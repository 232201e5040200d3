"""Command-line interface: round trips, provenance, exit codes."""

import contextlib
import csv
import io
import json
import os
import re
import tempfile
import time
import xml.etree.ElementTree as ET
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpoqst import __version__, cli, experiment
from mpoqst.cli import main
from mpoqst.povm import MAX_REPEAT, local_povm_to_json_dict, sic_qubit
from mpoqst.states import MPDOGenConfig, maximally_mixed, random_mpdo
from mpoqst.tt import load_tt, save_tt, tt_from_json_dict, tt_to_json_dict


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def workspace(tmp_path):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    yield tmp_path
    os.chdir(cwd)


def _generate(tmp_path, n=2, kappa=2, seed=5):
    state = tmp_path / "truth.json"
    assert run(["generate", "--n", n, "--kappa", kappa, "--seed", seed,
                "--out", state]) == 0
    return state


def test_generate_writes_state_with_provenance(workspace):
    path = _generate(workspace)
    data = json.loads(path.read_text())
    assert data["format"] == "mpoqst-state"
    assert data["provenance"]["seed"] == 5
    assert "input_sha256" in data["provenance"]
    state = tt_from_json_dict(data["state"])
    assert state.n == 2


def test_measure_estimate_round_trip(workspace):
    state = _generate(workspace)
    record = workspace / "rec.json"
    assert run(["measure", "--state", state, "--shots", 4000, "--seed", 3,
                "--out", record]) == 0
    cfg = workspace / "cfg.json"
    cfg.write_text(json.dumps({"ranks": 4, "max_iters": 40}))
    assert run(["estimate", "--record", record, "--truth", state,
                "--config", cfg, "--out", workspace / "fit"]) == 0
    result = json.loads((workspace / "fit.json").read_text())
    assert result["final_error"] < 0.5
    assert result["iterations_run"] == 40
    trace_lines = (workspace / "fit.trace.csv").read_text().splitlines()
    assert trace_lines[1] == "iter,loss,error,step,wall_ms"
    assert len(trace_lines) == 2 + 40 + 1  # provenance, header, init + iters


def test_measure_determinism(workspace):
    state = _generate(workspace)
    rec_a, rec_b = workspace / "a.json", workspace / "b.json"
    for out in (rec_a, rec_b):
        assert run(["measure", "--state", state, "--shots", 1000,
                    "--seed", 9, "--out", out]) == 0
    a = json.loads(rec_a.read_text())
    b = json.loads(rec_b.read_text())
    assert a["counts"] == b["counts"]


def test_estimate_noiseless_fixed_point(workspace):
    state = _generate(workspace, n=2, kappa=2)
    record = workspace / "pop.json"
    assert run(["measure", "--state", state, "--exact",
                "--out", record]) == 0
    cfg = workspace / "cfg.json"
    cfg.write_text(json.dumps({"ranks": 4, "max_iters": 20}))
    assert run(["estimate", "--record", record, "--truth", state,
                "--init-state", state, "--config", cfg,
                "--out", workspace / "fix"]) == 0
    result = json.loads((workspace / "fix.json").read_text())
    assert result["final_error"] <= 1e-8


def test_estimate_rejects_mismatched_povm(workspace):
    state = _generate(workspace)
    record = workspace / "rec.json"
    assert run(["measure", "--state", state, "--shots", 100, "--seed", 1,
                "--out", record]) == 0
    data = json.loads(record.read_text())
    data["povm_id"] = "someone-else"
    record.write_text(json.dumps(data))
    cfg = workspace / "cfg.json"
    cfg.write_text(json.dumps({"ranks": 1, "max_iters": 5}))
    assert run(["estimate", "--record", record, "--config", cfg,
                "--out", workspace / "x"]) == 1


def test_check_povm_local_sic(workspace, capsys):
    assert run(["check-povm"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid_povm"] is True
    assert payload["passes_1e-12"] is True
    assert payload["sic"]["trace_dev"] <= 1e-12


def test_check_design_cli(workspace, capsys):
    from mpoqst.povm import sic_qubit_vectors

    vecs = sic_qubit_vectors()
    path = workspace / "vectors.json"
    path.write_text(json.dumps(
        np.stack([vecs.real, vecs.imag], axis=-1).tolist()))
    assert run(["check-design", "--vectors", path, "--s", 2]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta_upper"] <= 1e-10
    assert run(["check-design", "--vectors", path, "--s", 3]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta_lower"] >= 0.01


def test_gamma_cli(workspace, capsys):
    state = _generate(workspace, n=3, kappa=1)
    capsys.readouterr()  # drop the generate command's path output
    assert run(["gamma", "--state", state, "--method", "exhaustive"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact"] is True
    assert payload["gamma"] >= 1.0
    assert run(["gamma", "--state", state, "--method", "beam",
                "--width", 8]) == 0
    beam = json.loads(capsys.readouterr().out)
    assert beam["gamma"] <= payload["gamma"] + 1e-12


def test_estimate_empty_record_is_input_error(workspace, capsys):
    record = workspace / "empty.json"
    record.write_text(json.dumps({"format": "mpoqst-record", "kind": "counts",
                                  "M": 0, "counts": []}))
    assert run(["estimate", "--record", record,
                "--out", workspace / "x"]) == 1
    assert "input error:" in capsys.readouterr().err
    assert not (workspace / "x.json").exists()


_NOT_INT = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=4),
                     st.lists(st.integers(), max_size=2))
_JUNK = st.one_of(_NOT_INT, st.integers(),
                  st.dictionaries(st.text(max_size=2), st.integers(),
                                  max_size=2))
_ESTIMATE_MODES = [[], ["--algorithm", "psgd"], ["--backend", "dense"]]


@st.composite
def _records(draw):
    """A counts record of n <= 3 sites, valid for the local SIC but for
    one fault."""
    n = draw(st.integers(1, 3))
    outcome = st.lists(st.integers(1, 4), min_size=n, max_size=n)
    entries = draw(st.lists(st.tuples(outcome, st.integers(1, 50)),
                            min_size=1, max_size=5,
                            unique_by=lambda e: tuple(e[0])))
    counts = [[list(o), c] for o, c in entries]
    record = {"format": "mpoqst-record", "kind": "counts", "seed": 0,
              "povm_id": "", "counts": counts}
    record["M"] = sum(c for _, c in entries)
    i = draw(st.integers(0, len(counts) - 1))
    j = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from([
        "top", "kind", "counts", "entry", "index-type", "count-type",
        "ragged", "out-of-range", "non-positive", "duplicate", "M-value",
        "M-type", "seed", "diagnostics", "probability"]))
    if kind == "top":
        return draw(_JUNK)
    if kind == "kind":
        record["kind"] = draw(_JUNK)
    elif kind == "counts":
        record["counts"] = draw(_JUNK)
    elif kind == "entry":
        counts[i] = draw(st.one_of(
            _NOT_INT, st.integers(), st.just([counts[i][0]]),
            st.just(counts[i] + [1]), st.just([counts[i][1], counts[i][0]])))
    elif kind == "index-type":
        counts[i][0][j] = draw(_NOT_INT)
    elif kind == "count-type":
        counts[i][1] = draw(_NOT_INT)
    elif kind == "ragged":
        length = draw(st.integers(0, n + 2).filter(lambda k: k != n))
        counts.append([[1] * length, 1])
        record["M"] += 1
    elif kind == "out-of-range":
        counts[i][0][j] = draw(st.one_of(st.integers(max_value=0),
                                         st.integers(min_value=5)))
    elif kind == "non-positive":
        counts[i][1] = draw(st.integers(max_value=0))
        record["M"] = sum(c for _, c in counts)
    elif kind == "duplicate":
        counts.append([list(counts[i][0]), 1])
        record["M"] += 1
    elif kind == "M-value":
        total = record["M"]
        record["M"] = draw(st.integers().filter(lambda m: m != total))
    elif kind == "M-type":
        record["M"] = draw(_NOT_INT)
    elif kind == "seed":
        record["seed"] = draw(_NOT_INT)
    elif kind == "diagnostics":
        record["diagnostics"] = draw(st.one_of(
            _NOT_INT, st.dictionaries(st.text(max_size=3), _NOT_INT,
                                      min_size=1)))
    else:
        record["kind"] = "probabilities"
        counts[i][1] = draw(st.one_of(
            st.sampled_from([float("nan"), float("inf"), 2 ** 1100]),
            st.text(max_size=3), st.none(), st.booleans()))
    return record


_FUZZ_CONFIG = {"ranks": 1, "max_iters": 2, "max_epochs": 1}
_FUZZ_RECORD = {"kind": "counts", "M": 5, "seed": 0, "povm_id": "",
                "counts": [[[1, 2], 2], [[4, 3], 3]]}


def _estimate_exit_code(record, mode, config=_FUZZ_CONFIG) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "record.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(record))
        config_path = os.path.join(tmp, "config.json")
        with open(config_path, "w") as fh:
            fh.write(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(["estimate", "--record", path,
                         "--config", config_path,
                         "--out", os.path.join(tmp, "fit"), *mode])


@pytest.mark.parametrize("mode", _ESTIMATE_MODES)
def test_estimate_accepts_unfaulted_fuzz_records(mode):
    assert _estimate_exit_code(_FUZZ_RECORD, mode) == 0


@settings(max_examples=50, deadline=None)
@given(record=_records(), mode=st.sampled_from(_ESTIMATE_MODES))
def test_estimate_malformed_record_exits_1_or_2(record, mode):
    assert _estimate_exit_code(record, mode) in (1, 2)


# Faults of one EstimatorConfig field each: wrong types, values out of
# range and, for the integer fields, numbers that are not integers.
_NOT_REAL = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                      st.lists(st.floats(), max_size=2))


def _bad_count(low):
    return st.one_of(_NOT_REAL, st.integers(max_value=low - 1), st.floats())


_CONFIG_FAULTS = {
    "max_iters": _bad_count(0), "max_epochs": _bad_count(0),
    "batch_size": _bad_count(1), "plateau_window": _bad_count(1),
    "init_seed": _bad_count(0),
    "epoch_size": _bad_count(1).filter(lambda x: x is not None),
    "lam": st.one_of(_NOT_REAL, st.floats().filter(
        lambda x: not 0 < x <= 1)),
    "mu0": st.one_of(_NOT_REAL, st.floats(max_value=0),
                     st.sampled_from([float("nan"), float("inf")])),
    "plateau_rel_tol": _NOT_REAL,
    "tt_round_tol": _NOT_REAL.filter(lambda x: x is not None),
    "ranks": st.one_of(_NOT_REAL,
                       st.integers(max_value=0),
                       st.sampled_from([float("nan"), float("inf"), 2.5])),
    **dict.fromkeys(("scale_2n", "record_trace", "check_iterates"),
                    _JUNK.filter(lambda x: not isinstance(x, bool))),
    "init": _JUNK, "backend": _JUNK,
    "init_state": st.one_of(_JUNK, st.just({})),
    "design_order_t": st.integers(2, 3), "bogus": _JUNK,
}


@st.composite
def _configs(draw):
    """An estimate config, valid for every mode but for one fault."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(_CONFIG_FAULTS)))
        return {**_FUZZ_CONFIG, name: draw(_CONFIG_FAULTS[name])}
    return draw(st.one_of(st.none(), st.integers(), st.text(max_size=3),
                          st.lists(st.integers(), max_size=2)))


@pytest.mark.parametrize("mode", _ESTIMATE_MODES)
def test_estimate_accepts_unfaulted_fuzz_config(mode):
    # every field the fuzz faults, at a valid value
    full = {**_FUZZ_CONFIG, "mu0": 0.5, "lam": 1.0, "batch_size": 3,
            "epoch_size": 4, "plateau_window": 1, "init_seed": 3,
            "plateau_rel_tol": 0, "tt_round_tol": 1e-12, "ranks": [1]}
    assert _estimate_exit_code(_FUZZ_RECORD, mode, full) == 0


@settings(max_examples=50, deadline=None)
@given(config=_configs(), mode=st.sampled_from(_ESTIMATE_MODES))
def test_estimate_malformed_config_exits_1_or_2(config, mode):
    assert _estimate_exit_code(_FUZZ_RECORD, mode, config) in (1, 2)


@pytest.mark.parametrize("config", [
    None, [], [1, 2], {"init": "provided", "init_state": {}},
    {"design_order_t": 2}, {"max_iters": 2.5, "max_epochs": 1},
    {"max_iters": 2, "max_epochs": 1, "batch_size": 2.5},
    {"max_iters": True}, {"max_epochs": 1.0}])
@pytest.mark.parametrize("mode", _ESTIMATE_MODES)
def test_estimate_rejects_config_faults(config, mode):
    # a config that is not an object, or sets init_state, never reaches
    # EstimatorConfig; a fractional count is refused also in the modes
    # that do not read it
    assert _estimate_exit_code(_FUZZ_RECORD, mode, config) == 1


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("mode", _ESTIMATE_MODES)
def test_estimate_divergence_exits_2(mode, workspace, capsys):
    record = workspace / "rec.json"
    record.write_text(json.dumps(_FUZZ_RECORD))
    cfg = workspace / "cfg.json"
    cfg.write_text(json.dumps({"ranks": 4, "mu0": 1e300, "lam": 1.0,
                               "max_iters": 50, "max_epochs": 50}))
    assert run(["estimate", "--record", record, "--config", cfg,
                "--out", workspace / "fit", *mode]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert ("at epoch" if "psgd" in mode else "at iteration") in err


def test_estimate_rejects_dense_psgd(workspace, capsys):
    record = workspace / "rec.json"
    record.write_text(json.dumps(_FUZZ_RECORD))
    assert run(["estimate", "--record", record, "--algorithm", "psgd",
                "--backend", "dense", "--out", workspace / "fit"]) == 1
    assert "tt backend only" in capsys.readouterr().err
    assert not (workspace / "fit.json").exists()


def _sic_site() -> dict:
    return local_povm_to_json_dict(sic_qubit())


def test_measure_with_equal_sites_file_then_estimate(workspace):
    # two equal but distinct sites share the local-sic serialization
    state = _generate(workspace)
    sites = workspace / "sites.json"
    sites.write_text(json.dumps({"kind": "product",
                                 "sites": [_sic_site(), _sic_site()]}))
    record = workspace / "rec.json"
    assert run(["measure", "--state", state, "--povm", sites,
                "--shots", 500, "--out", record]) == 0
    cfg = workspace / "cfg.json"
    cfg.write_text(json.dumps({"ranks": 4, "max_iters": 3}))
    assert run(["estimate", "--record", record, "--povm", "local-sic",
                "--config", cfg, "--out", workspace / "fit"]) == 0


_MEASURE_MODES = [[], ["--exact"], ["--sampler", "enumerate"]]
_NOT_NUMBER = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.lists(st.floats(), max_size=2),
    st.sampled_from([float("nan"), float("inf"), 2 ** 1100]))


@st.composite
def _povm_files(draw):
    """A product POVM file for a 2-site state, the local SIC in the
    {"local", "repeat"} or the {"sites"} form, but for one fault."""
    site = _sic_site()
    shared = draw(st.booleans())
    if shared:
        povm = {"kind": "product", "local": site, "repeat": 2}
    else:
        povm = {"kind": "product", "sites": [site, _sic_site()]}
    els = site["elements"]
    i = draw(st.integers(0, len(els) - 1))
    r, c, p = (draw(st.integers(0, 1)) for _ in range(3))
    kind = draw(st.sampled_from([
        "top", "kind", "missing", "d", "elements", "element", "ragged",
        "shape", "entry", "repeat", "site-count"]))
    if kind == "top":
        return draw(_JUNK)
    if kind == "kind":
        povm["kind"] = draw(st.one_of(_JUNK, st.text(max_size=8)).filter(
            lambda k: k != "product"))
    elif kind == "missing":
        holder = draw(st.sampled_from([povm, site]))
        del holder[draw(st.sampled_from(sorted(holder)))]
    elif kind == "d":
        site["d"] = draw(st.one_of(_NOT_INT,
                                   st.integers().filter(lambda v: v != 2)))
    elif kind == "elements":
        site["elements"] = draw(_JUNK)
    elif kind == "element":
        els[i] = draw(_JUNK)
    elif kind == "ragged":
        target = draw(st.sampled_from(["row", "pair", "extra"]))
        if target == "row":
            els[i][r] = els[i][r][:1]
        elif target == "pair":
            els[i][r][c] = els[i][r][c][:1]
        else:
            els[i][r].append([0.0, 0.0])
    elif kind == "shape":
        els[i] = draw(st.sampled_from([
            [[[0.0, 0.0]] * 3] * 3,                   # 3 x 3
            [[0.5, 0.0], [0.0, 0.0]],                # no [re, im] level
            [[[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]] * 2,  # triples
            [els[i]]]))                               # one level too deep
    elif kind == "entry":
        els[i][r][c][p] = draw(_NOT_NUMBER)
    elif kind == "repeat":  # not a positive integer, or not a site list
        if shared:
            povm["repeat"] = draw(st.one_of(
                _NOT_INT, st.integers(max_value=0),
                st.integers(min_value=MAX_REPEAT + 1)))
        else:
            povm["sites"] = draw(_JUNK)
    else:  # a site count other than the state's 2
        count = draw(st.integers(0, 5).filter(lambda k: k != 2))
        if shared:
            povm["repeat"] = count
        else:
            povm["sites"] = [_sic_site() for _ in range(count)]
    return povm


def _measure_exit_code(povm, mode) -> int:
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        state = os.path.join(tmp, "state.json")
        assert main(["generate", "--n", "2", "--kappa", "2",
                     "--out", state]) == 0
        path = os.path.join(tmp, "povm.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(povm))
        return main(["measure", "--state", state, "--povm", path,
                     "--shots", "20", "--out", os.path.join(tmp, "rec.json"),
                     *mode])


@pytest.mark.parametrize("mode", _MEASURE_MODES)
@pytest.mark.parametrize("povm", [
    {"kind": "product", "local": _sic_site(), "repeat": 2},
    {"kind": "product", "sites": [_sic_site(), _sic_site()]}],
    ids=["shared", "sites"])
def test_measure_accepts_unfaulted_fuzz_povm(povm, mode):
    assert _measure_exit_code(povm, mode) == 0


@settings(max_examples=50, deadline=None)
@given(povm=_povm_files(), mode=st.sampled_from(_MEASURE_MODES))
def test_measure_malformed_povm_exits_1_or_2(povm, mode):
    assert _measure_exit_code(povm, mode) in (1, 2)


@settings(max_examples=20, deadline=None)
@given(i=st.integers(0, 3), r=st.integers(0, 1), c=st.integers(0, 1),
       eps=st.floats(1e-11, 1.0), mode=st.sampled_from(_ESTIMATE_MODES))
def test_estimate_non_hermitian_povm_exits_1(i, r, c, eps, mode):
    site = _sic_site()
    site["elements"][i][r][c][1] += eps  # imaginary part of one entry
    with tempfile.TemporaryDirectory() as tmp:
        povm = os.path.join(tmp, "povm.json")
        with open(povm, "w") as fh:
            fh.write(json.dumps({"kind": "product", "local": site,
                                 "repeat": 2}))
        record = os.path.join(tmp, "record.json")
        with open(record, "w") as fh:
            fh.write(json.dumps({"kind": "counts", "M": 5, "seed": 0,
                                 "povm_id": "",
                                 "counts": [[[1, 2], 2], [[4, 3], 3]]}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["estimate", "--record", record, "--povm", povm,
                         "--out", os.path.join(tmp, "fit"), *mode])
    assert code == 1
    assert err.getvalue().startswith("input error:")
    assert "Hermitian" in err.getvalue()


_MEASURE_LINE = re.compile(
    r"measure: (\d+) distinct outcomes, clamped \d+, aborted \d+; "
    r"sampling \d+\.\d{3} s, writing \d+\.\d{3} s")


@pytest.mark.parametrize("mode", _MEASURE_MODES)
def test_measure_reports_on_stderr_and_writes_json_dump_bytes(
        workspace, capsys, mode):
    state = _generate(workspace, n=3)
    capsys.readouterr()
    out = workspace / "rec.json"
    assert run(["measure", "--state", state, "--shots", 700, "--seed", 4,
                "--out", out, *mode]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"{out}\n"
    lines = captured.err.splitlines()
    assert len(lines) == 1
    match = _MEASURE_LINE.fullmatch(lines[0])
    assert match
    text = out.read_text()
    data = json.loads(text)
    assert int(match.group(1)) == len(data["counts"])
    assert text == json.dumps(data, indent=2, sort_keys=True)


def _state_payload() -> dict:
    state = random_mpdo(MPDOGenConfig(n=2, kappa=2, purity=10, seed=1))
    return {"format": "mpoqst-state", "state": tt_to_json_dict(state)}


@st.composite
def _state_files(draw):
    """A 2-site state file, in the {"state": ...} or the bare form, valid
    but for one fault."""
    payload = _state_payload()
    state = payload["state"]
    l = draw(st.integers(0, 1))
    core = state["cores"][l]  # (r, 4, r', 2) nested lists
    a = draw(st.integers(0, len(core) - 1))
    b = draw(st.integers(0, 3))
    c = draw(st.integers(0, len(core[a][b]) - 1))
    p = draw(st.integers(0, 1))
    kind = draw(st.sampled_from([
        "top", "missing", "d", "cores", "core", "ragged", "entry", "ranks",
        "shape"]))
    if kind == "top":
        return draw(_JUNK)
    if kind == "missing":
        del state[draw(st.sampled_from(["d", "cores", "ranks"]))]
    elif kind == "d":
        state["d"] = draw(st.one_of(
            _NOT_INT, st.sampled_from([2.5, "2", 2.0]),
            st.integers().filter(lambda v: v != 2)))
    elif kind == "cores":
        state["cores"] = draw(_JUNK)
    elif kind == "core":
        state["cores"][l] = draw(_JUNK)
    elif kind == "ragged":
        target = draw(st.sampled_from(["bond", "physical", "pair", "extra"]))
        if target == "bond":
            core[a][b] = core[a][b][:-1]
        elif target == "physical":
            core[a] = core[a][:-1]
        elif target == "pair":
            core[a][b][c] = core[a][b][c][:1]
        else:
            core[a][b].append([0.0, 0.0])
    elif kind == "entry":
        core[a][b][c][p] = draw(_NOT_NUMBER)
    elif kind == "ranks":
        ranks = list(state["ranks"])
        ranks[draw(st.integers(0, len(ranks) - 1))] += draw(
            st.sampled_from([-1, 1, 5]))
        state["ranks"] = draw(st.sampled_from([ranks, None, "1,4,1"]))
    else:  # a level too many or too few
        state["cores"][l] = draw(st.sampled_from([[core], core[0]]))
    return payload if draw(st.booleans()) else state


def _measure_state_exit_code(payload, mode) -> int:
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        path = os.path.join(tmp, "state.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(payload))
        return main(["measure", "--state", path, "--shots", "20",
                     "--out", os.path.join(tmp, "rec.json"), *mode])


@pytest.mark.parametrize("mode", _MEASURE_MODES)
def test_measure_accepts_unfaulted_fuzz_state(mode):
    payload = _state_payload()
    assert _measure_state_exit_code(payload, mode) == 0
    assert _measure_state_exit_code(payload["state"], mode) == 0


@pytest.mark.parametrize("fault", [
    "nan", "infinity", "d-float", "d-string", "ragged", "pairs-cut"])
def test_measure_rejects_state_faults(fault):
    # the first four exited 0 and "pairs-cut" with an IndexError
    # traceback before the state loader checked its input
    payload = _state_payload()
    state = payload["state"]
    core = state["cores"][1]
    if fault in ("nan", "infinity"):
        state["cores"][0][0][1][0][0] = float(fault)
    elif fault == "d-float":
        state["d"] = 2.5
    elif fault == "d-string":
        state["d"] = "2"
    elif fault == "ragged":
        core[0][2] = core[0][2][:-1]
    else:
        state["cores"][1] = [[[pair[:1] for pair in col] for col in row]
                             for row in core]
    assert _measure_state_exit_code(payload, []) == 1


@settings(max_examples=50, deadline=None)
@given(payload=_state_files(), mode=st.sampled_from(_MEASURE_MODES))
def test_measure_malformed_state_exits_1(payload, mode):
    assert _measure_state_exit_code(payload, mode) == 1


def test_missing_file_is_input_error(workspace):
    assert run(["measure", "--state", "no-such-file.json",
                "--out", "x.json"]) == 1


def test_experiment_row_accounting(workspace, capsys):
    spec = {
        "n_values": [2, 3, 4, 5],
        "m_values": [3000],
        "rank_values": [1, 4],
        "init_modes": ["random", "spectral"],
        "algorithms": ["pgd"],
        "seeds": 5,
        "base_seed": 1,
        "estimator_overrides": {"max_iters": 25},
    }
    spec_path = workspace / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = workspace / "exp"
    assert run(["experiment", "--spec", spec_path, "--out", out_dir]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["cells_total"] == 80  # 4 * 1 * 2 * 2 * 5
    with open(out_dir / "results.csv") as fh:
        lines = [l for l in fh if not l.startswith("#")]
    rows = list(csv.DictReader(lines))
    assert len(rows) == 80
    assert all(float(r["final_error"]) >= 0 for r in rows)
    assert (out_dir / "provenance.json").exists()
    assert (out_dir / "error_vs_n.svg").exists()


def test_experiment_wall_ms_covers_the_estimator(monkeypatch):
    # a row's wall_ms times the whole estimator run, not its init row
    run_pgd = experiment.pgd

    def slow_pgd(*args, **kwargs):
        time.sleep(0.3)
        return run_pgd(*args, **kwargs)

    monkeypatch.setattr(experiment, "pgd", slow_pgd)
    spec = experiment.ExperimentSpec(n_values=[2], m_values=[200], seeds=1,
                                     estimator_overrides={"max_iters": 3})
    row = experiment.run_cell(spec, next(experiment.iter_cells(spec)))
    assert row.wall_ms >= 300


def test_plot_medians_writes_deterministic_svg(tmp_path):
    medians = [{"n": n, "shots": m, "rank": r, "init": "random",
                "algorithm": "pgd", "median_final_error": 0.01 * n * r / m}
               for n in (2, 3) for m in (100, 1000) for r in (1, 4)]
    paths = experiment._plot_medians(medians, str(tmp_path))
    assert [os.path.basename(p) for p in paths] == ["error_vs_n.svg",
                                                    "error_vs_m.svg"]
    svg = "{http://www.w3.org/2000/svg}"
    for path in paths:
        polylines = ET.parse(path).getroot().findall(svg + "polyline")
        # one per (rank, value of the other axis): points of different M
        # (or n) never share a line
        assert len(polylines) == 4
        for p in polylines:
            xs = [float(xy.split(",")[0]) for xy in p.get("points").split()]
            assert len(xs) == 2
            assert all(a < b for a, b in zip(xs, xs[1:]))
    first = [open(p, "rb").read() for p in paths]
    assert experiment._plot_medians(medians, str(tmp_path)) == paths
    assert [open(p, "rb").read() for p in paths] == first
    # a zero or non-finite median is left out of the log-scale plot
    medians[0]["median_final_error"] = 0.0
    medians[1]["median_final_error"] = float("nan")
    experiment._plot_medians(medians, str(tmp_path))
    polylines = ET.parse(paths[0]).getroot().findall(svg + "polyline")
    assert [len(p.get("points").split()) for p in polylines] == [1, 2, 1, 2]
    # a single-axis sweep keeps one line per (rank, init, algorithm)
    single = [med for med in medians if med["shots"] == 1000]
    (path,) = experiment._plot_medians(single, str(tmp_path))
    labels = [t.text for t in ET.parse(path).getroot().findall(svg + "text")]
    assert "r=1 random pgd" in labels and "r=4 random pgd" in labels


def test_experiment_resume_and_determinism(workspace, capsys):
    spec = {
        "n_values": [2],
        "m_values": [500],
        "rank_values": [1],
        "init_modes": ["random"],
        "algorithms": ["pgd"],
        "seeds": 2,
        "base_seed": 7,
        "estimator_overrides": {"max_iters": 10},
    }
    spec_path = workspace / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = workspace / "exp"
    assert run(["experiment", "--spec", spec_path, "--out", out_dir]) == 0
    capsys.readouterr()
    first = (out_dir / "results.csv").read_text()
    # resume: no cells re-run, byte-identical output
    assert run(["experiment", "--spec", spec_path, "--out", out_dir]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["cells_run"] == 0
    assert (out_dir / "results.csv").read_text() == first
    # fresh directory: all statistical fields identical (wall time differs)
    out2 = workspace / "exp2"
    assert run(["experiment", "--spec", spec_path, "--out", out2]) == 0

    def strip_wall(text):
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        rows = list(csv.reader(lines))
        wall = rows[0].index("wall_ms")
        return [[c for i, c in enumerate(r) if i != wall] for r in rows]

    assert strip_wall(first) == strip_wall((out2 / "results.csv").read_text())


def test_experiment_rejects_bad_spec(workspace):
    spec_path = workspace / "spec.json"
    spec_path.write_text(json.dumps({"n_values": []}))
    assert run(["experiment", "--spec", spec_path,
                "--out", workspace / "x"]) == 1
    spec_path.write_text(json.dumps({"n_values": [2], "bogus": 1}))
    assert run(["experiment", "--spec", spec_path,
                "--out", workspace / "x"]) == 1


def _cli(args) -> tuple:
    """Exit code and stderr of one in-process run; an argparse error
    counts as its SystemExit code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def test_measure_non_finite_masses_exit_2(workspace):
    # cores scaled by 1e120 made the chain overflow; the run exited 0
    # with all 1000 shots on (4, 4, 4, 4)
    state = random_mpdo(MPDOGenConfig(n=4, kappa=2, purity=10, seed=1))
    payload = tt_to_json_dict(state)
    payload["cores"] = [(np.array(c) * 1e120).tolist()
                        for c in payload["cores"]]
    path = workspace / "big.json"
    path.write_text(json.dumps(payload))
    with np.errstate(all="ignore"):
        code, err = _cli(["measure", "--state", path, "--shots", 1000,
                          "--out", workspace / "rec.json"])
    assert code == 2
    assert err.startswith("numerical failure:") and "non-finite" in err
    assert not (workspace / "rec.json").exists()


@pytest.mark.parametrize("args", [
    ["gamma"], ["gamma", "--method", "beam"], ["measure", "--exact"],
    ["measure", "--sampler", "enumerate"]],
    ids=["gamma", "gamma-beam", "measure-exact", "measure-enumerate"])
def test_non_finite_measurement_outputs_exit_2(workspace, args):
    # on cores scaled by 1e120, gamma printed "gamma": NaN and measure
    # --exact wrote NaN probabilities, both exiting 0; the enumeration
    # sampler exited 1 with numpy's message on the pvals
    state = random_mpdo(MPDOGenConfig(n=4, kappa=2, purity=10, seed=1))
    payload = tt_to_json_dict(state)
    payload["cores"] = [(np.array(c) * 1e120).tolist()
                        for c in payload["cores"]]
    path = workspace / "big.json"
    path.write_text(json.dumps(payload))
    out = workspace / "out.json"
    with np.errstate(all="ignore"):
        code, err = _cli([args[0], "--state", path, *args[1:], "--out", out])
    assert code == 2
    assert err.startswith("numerical failure:") and "non-finite" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, limit", [
    ("--purity", 10 ** 15, "10000"), ("--kappa", 3000, "4194304")])
def test_generate_rejects_oversized_draws(workspace, flag, value, limit):
    # both asked numpy for the whole draw and ended in an
    # _ArrayMemoryError traceback
    code, err = _cli(["generate", "--n", 2, flag, value])
    assert code == 1
    assert err.startswith("input error:") and limit in err
    assert not (workspace / "state.json").exists()


_GEN_SIZE = st.one_of(st.integers(-2, 3), st.integers(3000, 2 ** 80),
                      st.text(max_size=3))


@settings(max_examples=50, deadline=None)
@given(n=st.one_of(st.integers(-2, 3), st.text(max_size=3)),
       kappa=_GEN_SIZE, purity_=_GEN_SIZE,
       seed=st.one_of(st.integers(-5, 5), st.integers(2 ** 62, 2 ** 80),
                      st.text(max_size=3)))
def test_generate_arguments_never_traceback(n, kappa, purity_, seed):
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _cli(["generate", "--n", n, "--kappa", kappa,
                          "--purity", purity_, "--seed", seed,
                          "--out", os.path.join(tmp, "state.json")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("vectors", [[], [[]], [[[1, 0, 3]]]])
def test_check_design_rejects_malformed_vectors(workspace, vectors):
    # [] and [[]] ended in an IndexError traceback; [[[1, 0, 3]]] was
    # read as the vector (1,) and exited 0
    path = workspace / "vectors.json"
    path.write_text(json.dumps(vectors))
    code, err = _cli(["check-design", "--vectors", path])
    assert code == 1
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("width", [0, -3])
def test_gamma_rejects_beam_width_below_one(workspace, width):
    state = _generate(workspace, n=3, kappa=1)
    code, err = _cli(["gamma", "--state", state, "--method", "beam",
                      "--width", width])
    assert code == 1
    assert "beam width" in err


_SPEC = {"n_values": [2], "m_values": [20], "seeds": 1,
         "estimator_overrides": {"max_iters": 1}}


def _experiment_exit(spec) -> tuple:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(spec))
        return _cli(["experiment", "--spec", path,
                     "--out", os.path.join(tmp, "out")])


def test_experiment_accepts_unfaulted_fuzz_spec():
    full = {**_SPEC, "rank_values": [1], "init_modes": ["random"],
            "algorithms": ["pgd"], "base_seed": 3, "povm": "local-sic",
            "purity": 2, "record_gamma": True}
    assert _experiment_exit(full)[0] == 0


@pytest.mark.parametrize("fault", [
    {"estimator_overrides": {"init": "provided", "init_state": [1]}},
    {"n_values": [3.5]}, {"seeds": True}, {"m_values": [True]},
    {"rank_values": [1.0]}, {"base_seed": "1"}, {"purity": 2.0},
    {"record_gamma": 1}, {"estimator_overrides": [["max_iters", 1]]},
    {"estimator_overrides": {"max_iters": 1.5}}, {"n_values": 2}])
def test_experiment_rejects_spec_faults(fault):
    # the init_state override ended in an AttributeError traceback, n=3.5
    # ran as n=3 and seeds=true as one seed
    code, err = _experiment_exit({**_SPEC, **fault})
    assert code == 1
    assert err.startswith("input error:")


_NOT_LIST = st.one_of(_NOT_INT.filter(lambda x: not isinstance(x, list)),
                      st.integers(), st.just([]),
                      st.dictionaries(st.text(max_size=2), st.integers(),
                                      max_size=2))
_BAD_COUNT = st.one_of(_NOT_INT, st.integers(max_value=0))
_SPEC_FIELDS = set(experiment.ExperimentSpec.__dataclass_fields__)


def _bad_choice(valid):
    return st.one_of(_JUNK, st.text(max_size=8)).filter(
        lambda x: x not in valid)


@st.composite
def _specs(draw):
    """A tiny experiment spec, valid but for one fault."""
    spec = json.loads(json.dumps(_SPEC))
    kind = draw(st.sampled_from([
        "top", "unknown", "axis", "axis-entry", "choice", "count",
        "base_seed", "record_gamma", "povm", "overrides"]))
    if kind == "top":
        return draw(_JUNK)
    if kind == "unknown":
        spec[draw(st.text(min_size=1, max_size=6).filter(
            lambda k: k not in _SPEC_FIELDS))] = draw(_JUNK)
    elif kind == "axis":
        spec[draw(st.sampled_from(["n_values", "m_values", "rank_values",
                                   "init_modes", "algorithms"]))] = \
            draw(_NOT_LIST)
    elif kind == "axis-entry":
        name = draw(st.sampled_from(["n_values", "m_values", "rank_values"]))
        bad = draw(_BAD_COUNT)
        spec[name] = [2, bad] if draw(st.booleans()) else [bad]
    elif kind == "choice":
        if draw(st.booleans()):
            spec["init_modes"] = [draw(_bad_choice(("random", "spectral")))]
        else:
            spec["algorithms"] = [draw(_bad_choice(("pgd", "psgd")))]
    elif kind == "count":
        spec[draw(st.sampled_from(["seeds", "purity"]))] = draw(_BAD_COUNT)
    elif kind == "base_seed":
        spec["base_seed"] = draw(_NOT_INT)
    elif kind == "record_gamma":
        spec["record_gamma"] = draw(_JUNK.filter(
            lambda x: not isinstance(x, bool)))
    elif kind == "povm":
        spec["povm"] = draw(_bad_choice(("local-sic",)))
    else:
        spec["estimator_overrides"] = draw(st.one_of(
            _configs(), st.just({"init": "provided", "init_state": [1]})))
    return spec


@settings(max_examples=50, deadline=None)
@given(spec=_specs())
def test_experiment_malformed_spec_exits_1(spec):
    code, err = _experiment_exit(spec)
    assert code == 1
    assert "Traceback" not in err


_GAMMA_FAULTS = ["width", "width-type", "method", "cap", "povm", "state"]


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(_GAMMA_FAULTS), n=st.integers(1, 3),
       width=st.integers(max_value=0), text=st.floats().map(repr),
       method=st.text(max_size=8).filter(
           lambda m: m not in ("exhaustive", "beam")))
def test_gamma_malformed_arguments_exit_1_or_2(kind, n, width, text, method):
    with tempfile.TemporaryDirectory() as tmp:
        state = os.path.join(tmp, "state.json")
        truth = maximally_mixed(11 if kind == "cap" else n)
        with open(state, "w") as fh:
            fh.write(json.dumps(tt_to_json_dict(truth)))
        args = ["gamma", "--state", state]
        if kind == "width":
            args += ["--method", "beam", "--width", width]
        elif kind == "width-type":
            args += ["--method", "beam", "--width", text]
        elif kind == "method":
            args += ["--method", method]
        elif kind == "povm":  # a product POVM on another site count
            povm = os.path.join(tmp, "povm.json")
            with open(povm, "w") as fh:
                fh.write(json.dumps({"kind": "product", "local": _sic_site(),
                                     "repeat": n + 1}))
            args += ["--povm", povm]
        elif kind == "state":
            args[2] = os.path.join(tmp, "missing.json")
        code, err = _cli(args)
    assert code in (1, 2)
    assert "Traceback" not in err


def _vector_pairs() -> list:
    from mpoqst.povm import sic_qubit_vectors

    vecs = sic_qubit_vectors()
    return np.stack([vecs.real, vecs.imag], axis=-1).tolist()


@st.composite
def _vector_files(draw):
    """The qubit SIC vectors as [re, im] pairs, valid but for one fault."""
    vecs = _vector_pairs()
    k, c, p = (draw(st.integers(0, 3)), draw(st.integers(0, 1)),
               draw(st.integers(0, 1)))
    kind = draw(st.sampled_from([
        "top", "vector", "ragged", "pair", "entry", "norm", "depth",
        "empty"]))
    if kind == "top":
        return draw(_JUNK)
    if kind == "vector":
        vecs[k] = draw(_JUNK)
    elif kind == "ragged":
        vecs[k] = vecs[k][:1] if draw(st.booleans()) else vecs[k] + [[0, 0]]
    elif kind == "pair":
        vecs[k][c] = vecs[k][c][:1] if draw(st.booleans()) else \
            vecs[k][c] + [0.0]
    elif kind == "entry":
        vecs[k][c][p] = draw(_NOT_NUMBER)
    elif kind == "norm":
        vecs[k] = [[2 * x for x in pair] for pair in vecs[k]]
    elif kind == "depth":
        vecs = draw(st.sampled_from([[vecs], vecs[0], vecs[0][0]]))
    else:
        vecs = draw(st.sampled_from([[], [[]], [[[]]]]))
    return vecs


@settings(max_examples=50, deadline=None)
@given(vectors=_vector_files(), s=st.integers(-2, 3))
def test_check_design_malformed_vectors_exit_1(vectors, s):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "vectors.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(vectors))
        code, err = _cli(["check-design", "--vectors", path, "--s", s])
    assert code == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("s", [0, -1])
def test_check_design_rejects_order_below_one(workspace, s):
    path = workspace / "vectors.json"
    path.write_text(json.dumps(_vector_pairs()))
    code, err = _cli(["check-design", "--vectors", path, "--s", s])
    assert code == 1
    assert "moment order" in err


# ---------------------------------------------------------------------------
# one reader or writer per file format


def test_load_tt_reads_generate_and_estimate_files(workspace):
    # load_tt raised KeyError 'd' on the {"state": ...} files of generate
    state = _generate(workspace)
    assert run(["measure", "--state", state, "--shots", 500, "--seed", 2,
                "--out", "rec.json"]) == 0
    cfg = workspace / "cfg.json"
    cfg.write_text(json.dumps({"ranks": 2, "max_iters": 3}))
    assert run(["estimate", "--record", "rec.json", "--config", cfg,
                "--out", "fit"]) == 0
    for path in (state, workspace / "fit.json"):
        want = tt_from_json_dict(json.loads(path.read_text())["state"])
        got = load_tt(path)
        assert all(np.array_equal(a, b) for a, b in zip(got.cores,
                                                         want.cores))
        save_tt(got, workspace / "bare.json")
        assert tt_to_json_dict(load_tt(workspace / "bare.json")) == \
            tt_to_json_dict(want)


def _frozen_fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _frozen_trace_csv(trace_log) -> bytes:
    """estimate.trace.csv as the hand-written loop of cmd_estimate wrote
    it before the trace went through experiment._write_table."""
    fh = io.StringIO()
    fh.write(f"# mpoqst {__version__}\n")
    fh.write("iter,loss,error,step,wall_ms\n")
    for row in trace_log:
        fh.write("%d,%.12g,%.12g,%.12g,%.12g\n" % (
            row.iteration, row.loss, row.error, row.step, row.wall_ms))
    return fh.getvalue().encode()


def _frozen_table_csv(comment, columns, records) -> bytes:
    """An experiment table as the csv.writer default dialect wrote it,
    before every line ended with \\n."""
    fh = io.StringIO(newline="")
    fh.write(comment + "\n")
    writer = csv.writer(fh)
    writer.writerow(columns)
    for record in records:
        writer.writerow([_frozen_fmt(record[c]) for c in columns])
    return fh.getvalue().encode()


_FROZEN_RESULT_COLUMNS = [
    "n", "shots", "rank", "init", "algorithm", "seed_index", "state_seed",
    "noise_seed", "init_error", "final_error", "final_loss", "iterations",
    "converged", "wall_ms", "gamma_beam"]
_FROZEN_MEDIAN_COLUMNS = [
    "n", "shots", "rank", "init", "algorithm", "median_final_error",
    "median_init_error", "seeds", "all_converged"]


@pytest.mark.parametrize("truth", [False, True])
@pytest.mark.parametrize("mode", [
    ["--config", "random.json"], ["--config", "spectral.json"],
    ["--config", "random.json", "--backend", "dense"],
    ["--config", "random.json", "--algorithm", "psgd"]])
def test_trace_file_equals_the_frozen_loop(workspace, monkeypatch, mode,
                                           truth):
    state = _generate(workspace)
    assert run(["measure", "--state", state, "--shots", 800, "--seed", 4,
                "--out", "rec.json"]) == 0
    for init in ("random", "spectral"):
        (workspace / f"{init}.json").write_text(json.dumps(
            {"ranks": 4, "max_iters": 6, "max_epochs": 2, "init": init,
             "init_seed": 3}))
    estimates = []
    for name in ("pgd", "psgd"):
        def capture(*args, _runner=getattr(cli, name), **kwargs):
            estimates.append(_runner(*args, **kwargs))
            return estimates[-1]
        monkeypatch.setattr(cli, name, capture)
    assert run(["estimate", "--record", "rec.json", *mode, "--out", "fit",
                *(["--truth", state] if truth else [])]) == 0
    (estimate,) = estimates
    written = (workspace / "fit.trace.csv").read_bytes()
    assert written == _frozen_trace_csv(estimate.trace_log)
    assert (b",nan," in written.splitlines()[-1]) != truth


@pytest.fixture(scope="module")
def _small_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    spec = experiment.ExperimentSpec(
        n_values=[2, 3], m_values=[300], algorithms=["pgd", "psgd"],
        seeds=2, base_seed=5, record_gamma=True,
        estimator_overrides={"max_iters": 5, "max_epochs": 2})
    return spec, out, experiment.run_experiment(spec, str(out))


def test_experiment_tables_end_lines_with_lf(_small_sweep):
    # the comment line ended with \n, the csv.writer rows with \r\n
    _, out, _ = _small_sweep
    for name in ("results.csv", "medians.csv"):
        text = (out / name).read_bytes()
        assert b"\r" not in text and text.endswith(b"\n")


def test_experiment_tables_equal_the_frozen_writer(_small_sweep):
    spec, out, result = _small_sweep
    comment = experiment._provenance(spec)
    ordered = sorted(result["rows"], key=lambda r: (
        r.n, r.shots, r.rank, r.init, r.algorithm, r.seed_index))
    for name, columns, records in (
            ("results.csv", _FROZEN_RESULT_COLUMNS, map(asdict, ordered)),
            ("medians.csv", _FROZEN_MEDIAN_COLUMNS, result["medians"])):
        want = _frozen_table_csv(comment, columns, records)
        assert (out / name).read_bytes().replace(b"\r", b"") == \
            want.replace(b"\r", b"")


def test_experiment_spec_caps_the_site_count():
    # a cell with n above the cap would grow its truth without limit
    with pytest.raises(ValueError, match=str(MAX_REPEAT)):
        experiment.ExperimentSpec(n_values=[2, MAX_REPEAT + 1])


def test_generate_rejects_n_above_the_site_cap(workspace):
    code, err = _cli(["generate", "--n", MAX_REPEAT + 1])
    assert code == 1
    assert err.startswith("input error:") and str(MAX_REPEAT) in err
    assert not (workspace / "state.json").exists()


@pytest.mark.parametrize("sampler", ["sequential", "enumerate"])
def test_measure_rejects_negative_shots(workspace, sampler):
    state = _generate(workspace)
    code, err = _cli(["measure", "--state", state, "--shots", -5,
                      "--sampler", sampler, "--out", "rec.json"])
    assert code == 1
    assert err.startswith("input error:")
    assert "shot count" in err and "-5" in err
    assert not (workspace / "rec.json").exists()


def test_measure_out_of_memory_exits_1(workspace, monkeypatch):
    # --shots 10**12 ended in numpy's _ArrayMemoryError traceback; the
    # sampler is replaced, since hosts differ in their overcommit settings
    state = _generate(workspace)

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.6 TiB for an array")

    monkeypatch.setattr(cli, "sample_sequential", no_memory)
    code, err = _cli(["measure", "--state", state, "--shots", 10 ** 12,
                      "--out", "rec.json"])
    assert code == 1
    assert err.startswith("input error:") and "14.6 TiB" in err
    assert "Traceback" not in err
