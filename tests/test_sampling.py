"""Measurement simulation: determinism, chain rule, distribution accuracy."""

import io
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpoqst.povm import (
    PROB_CLAMP_TOL,
    LocalPOVM,
    NonPhysicalStateError,
    ProductPOVM,
    _right_environments,
    _site_transfers,
    dense_from_local,
    marginal_prefix_prob,
    prob_of_outcome,
    probability_tensor,
    sic_qubit,
    wh_sic_from_fiducial,
)
from mpoqst.sampling import (
    _MAX_RETRY_ROUNDS,
    _SHOT_CHUNK,
    OutcomeRecord,
    PopulationRecord,
    _count_rows,
    _index_dtype,
    _stream,
    population_record,
    record_from_json_dict,
    record_to_json_dict,
    sample_enumerate,
    sample_sequential,
    write_record_json,
)
from mpoqst.states import (
    MPDOGenConfig,
    ghz_density,
    maximally_mixed,
    random_mpdo,
)
from mpoqst.tt import DenseOperator, TTTensor


def _mpdo(n, seed, kappa=2):
    return random_mpdo(MPDOGenConfig(n=n, kappa=kappa, purity=10, seed=seed))


def _flat_empirical(record, povm):
    emp = np.zeros(povm.k_total)
    for outcome, count in record.counts.items():
        flat = np.ravel_multi_index(tuple(i - 1 for i in outcome),
                                    povm.k_locs)
        emp[flat] = count / record.m_shots
    return emp


# ---------------------------------------------------------------------------
# record container


def test_record_invariants():
    rec = OutcomeRecord(counts={(1, 2): 3, (2, 2): 1}, m_shots=4,
                        povm_id="x", seed=0)
    assert rec.weights() == {(1, 2): 0.75, (2, 2): 0.25}
    with pytest.raises(ValueError):
        OutcomeRecord(counts={(1,): 3}, m_shots=4, povm_id="x", seed=0)
    with pytest.raises(ValueError):
        OutcomeRecord(counts={(1,): 0}, m_shots=0, povm_id="x", seed=0)


def test_empirical_probability_accessors():
    rec = OutcomeRecord(counts={(1, 1): 3, (2, 1): 9}, m_shots=12,
                        povm_id="x", seed=0)
    assert rec.weights()[(1, 1)] == 0.25
    assert rec.weights().get((4, 4), 0.0) == 0.0
    assert list(rec.counts) == [(1, 1), (2, 1)]
    assert sum(rec.weights().values()) == 1.0


# ---------------------------------------------------------------------------
# enumeration sampler


def test_deterministic_distribution():
    # basis projectors on |0><0| give p = (1, 0): every shot lands on
    # outcome 1
    from mpoqst.povm import DensePOVM

    projectors = DensePOVM(elements=(np.diag([1.0, 0.0]).astype(complex),
                                     np.diag([0.0, 1.0]).astype(complex)),
                           dim=2)
    state = DenseOperator.from_matrix(np.diag([1.0, 0.0]))
    rec = sample_enumerate(projectors, state, 4, seed=1)
    assert rec.counts == {(1,): 4}


def test_enumerate_qubit_sic_frequencies():
    povm = dense_from_local(sic_qubit())
    state = DenseOperator.from_matrix(np.eye(2) / 2)
    rec = sample_enumerate(povm, state, 10 ** 5, seed=7)
    for k in range(1, 5):
        assert abs(rec.weights().get((k,), 0.0) - 0.25) <= 0.01


def test_enumerate_seed_determinism():
    povm = ProductPOVM.local_sic(3)
    state = _mpdo(3, seed=1)
    a = sample_enumerate(povm, state, 5000, seed=3)
    b = sample_enumerate(povm, state, 5000, seed=3)
    assert a.counts == b.counts
    c = sample_enumerate(povm, state, 5000, seed=4)
    assert c.counts != a.counts


def test_counts_sum_to_shots():
    povm = ProductPOVM.local_sic(2)
    state = _mpdo(2, seed=2)
    for m in (1, 17, 1000):
        rec = sample_enumerate(povm, state, m, seed=5)
        assert sum(rec.counts.values()) == m


# ---------------------------------------------------------------------------
# sequential sampler


def test_sequential_seed_determinism():
    povm = ProductPOVM.local_sic(3)
    state = _mpdo(3, seed=3)
    a = sample_sequential(povm, state, 3000, seed=11)
    b = sample_sequential(povm, state, 3000, seed=11)
    assert a.counts == b.counts


def test_sequential_mixed_state_conditionals_uniform():
    povm = ProductPOVM.local_sic(2)
    mm = maximally_mixed(2)
    rec = sample_sequential(povm, mm, 2 * 10 ** 5, seed=13)
    emp = _flat_empirical(rec, povm)
    assert np.abs(emp - 1 / 16).max() <= 0.01


def test_chain_rule_matches_direct_probability():
    povm = ProductPOVM.local_sic(3)
    state = _mpdo(3, seed=5)
    rec = sample_sequential(povm, state, 200, seed=17)
    checked = 0
    for outcome in list(rec.counts)[:100]:
        chain = 1.0
        for ell in range(1, 4):
            num = marginal_prefix_prob(povm, state, outcome[:ell])
            den = marginal_prefix_prob(povm, state, outcome[:ell - 1])
            chain *= num / den
        direct = prob_of_outcome(povm, state, outcome)
        assert abs(chain - direct) <= 1e-10 * direct
        checked += 1
    assert checked > 0


def test_sequential_total_variation():
    povm = ProductPOVM.local_sic(3)
    state = _mpdo(3, seed=6)
    m = 2 * 10 ** 5
    rec = sample_sequential(povm, state, m, seed=19)
    emp = _flat_empirical(rec, povm)
    exact = probability_tensor(povm, state).reshape(-1)
    tv = 0.5 * np.abs(emp - exact).sum()
    assert tv <= 0.02


def test_enumerate_and_sequential_agree():
    povm = ProductPOVM.local_sic(2)
    state = _mpdo(2, seed=7)
    m = 5 * 10 ** 5
    enum = sample_enumerate(povm, state, m, seed=23)
    seq = sample_sequential(povm, state, m, seed=29)
    diff = np.abs(_flat_empirical(enum, povm) - _flat_empirical(seq, povm))
    assert diff.max() <= 0.01


def test_sparsity_bound():
    povm = ProductPOVM.local_sic(4)
    state = _mpdo(4, seed=8)
    rec = sample_sequential(povm, state, 100, seed=31)
    assert len(rec.counts) <= min(100, povm.k_total)


@given(st.integers(0, 2 ** 31), st.integers(1, 500))
@settings(max_examples=15, deadline=None)
def test_sequential_shot_conservation(seed, m):
    povm = ProductPOVM.local_sic(2)
    state = _mpdo(2, seed=9)
    rec = sample_sequential(povm, state, m, seed=seed)
    assert sum(rec.counts.values()) == m


def _sequential_loop(povm, state, m_shots, seed):
    """The per-site sampler loop that sample_sequential replaced, frozen
    as a reference (zeros_like conditionals, masked copies and a separate
    dead flag).  Returns the counted rows and the two diagnostics."""
    n = povm.n
    transfers = _site_transfers(povm, state)
    envs = _right_environments(transfers)
    cand = [np.tensordot(transfers[l], envs[l + 1], axes=[[2], [0]])
            for l in range(n)]
    k_locs = povm.k_locs
    dtype = _index_dtype(max(k_locs))
    done, clamped_total, aborted_total = [], 0, 0
    pending = np.arange(m_shots)
    for round_idx in range(_MAX_RETRY_ROUNDS + 1):
        if len(pending) == 0:
            break
        uniforms = _stream(seed, round_idx).random((m_shots, n))
        aborted = []
        for lo in range(0, len(pending), _SHOT_CHUNK):
            shots = pending[lo:lo + _SHOT_CHUNK]
            us = uniforms[shots]
            left = np.ones((len(shots), 1), dtype=complex)
            outcome = np.zeros((len(shots), n), dtype=dtype)
            alive = np.ones(len(shots), dtype=bool)
            for l in range(n):
                masses = (left @ cand[l].T).real
                neg = masses < 0
                bad = masses < -PROB_CLAMP_TOL
                assert not bad.any()
                clamped_total += int((neg & ~bad).sum())
                masses[neg] = 0.0
                totals = masses.sum(axis=1)
                dead = alive & (totals <= 0.0)
                if dead.any():
                    alive &= ~dead
                cond = np.zeros_like(masses)
                ok = totals > 0
                cond[ok] = masses[ok] / totals[ok, None]
                cum = np.cumsum(cond, axis=1)
                pick = (us[:, l:l + 1] > cum).sum(axis=1)
                np.clip(pick, 0, k_locs[l] - 1, out=pick)
                outcome[:, l] = pick
                left = np.einsum("mr,mrs->ms", left, transfers[l][pick])
            done.append(outcome[alive])
            aborted.append(shots[~alive])
        pending = np.concatenate(aborted)
        aborted_total += len(pending)
    rows = np.concatenate(done) + 1
    return (*_count_rows(rows), clamped_total, aborted_total)


@pytest.mark.parametrize("kind, n, shots", [
    ("sic", 4, 20000), ("sic", 6, 20000), ("sic", 10, 10000),
    ("sic", 12, 10000), ("pauli6-ghz", 4, 20000), ("pauli6-ghz", 6, 5000),
    ("pauli6-ghz", 8, 20000)])
def test_sequential_matches_the_site_loop(kind, n, shots):
    # identical records and diagnostics; the GHZ state under Pauli-6
    # clamps at n=4 and n=8 (its zero-probability prefixes come out as
    # noise around zero)
    if kind == "sic":
        povm, state = ProductPOVM.local_sic(n), _mpdo(n, seed=100 + n)
    else:
        povm, state = ProductPOVM(sites=(_pauli6(),) * n), ghz_density(n)
    rec = sample_sequential(povm, state, shots, seed=7)
    outcomes, counts, clamped, aborted = _sequential_loop(povm, state,
                                                          shots, 7)
    assert np.array_equal(rec.outcomes, outcomes)
    assert np.array_equal(rec.values, counts)
    assert rec.diagnostics == {"clamped": clamped, "aborted": aborted}
    if n in (4, 8) and kind != "sic":
        assert clamped > 0


def test_sequential_rejects_non_finite_masses():
    # cores scaled by 1e120 overflow the marginal chain to NaN totals,
    # which sent every shot to the last index of each site
    state = _mpdo(4, seed=1)
    big = TTTensor(tuple(c * 1e120 for c in state.cores), d=2)
    with np.errstate(all="ignore"), \
            pytest.raises(NonPhysicalStateError, match="non-finite"):
        sample_sequential(ProductPOVM.local_sic(4), big, 1000, seed=0)


# ---------------------------------------------------------------------------
# population records


def test_population_record_mass_and_fetch():
    povm = ProductPOVM.local_sic(3)
    state = _mpdo(3, seed=10)
    rec = population_record(povm, state)
    assert abs(sum(rec.weights().values()) - 1.0) < 1e-8
    probs = probability_tensor(povm, state)
    assert abs(rec.probs[(1, 1, 1)] - probs[0, 0, 0]) < 1e-12


# ---------------------------------------------------------------------------
# serialization


def test_record_json_round_trip():
    povm = ProductPOVM.local_sic(3)
    state = _mpdo(3, seed=11)
    rec = sample_sequential(povm, state, 500, seed=37)
    blob = json.dumps(record_to_json_dict(rec))
    back = record_from_json_dict(json.loads(blob))
    assert isinstance(back, OutcomeRecord)
    assert back.counts == rec.counts
    assert back.m_shots == rec.m_shots
    assert back.seed == rec.seed
    assert set(rec.diagnostics) == {"clamped", "aborted"}
    assert back.diagnostics == rec.diagnostics
    noisy = OutcomeRecord(counts={(1, 2, 3): 2}, m_shots=2, povm_id="x",
                          seed=1, diagnostics={"clamped": 3, "aborted": 1})
    back = record_from_json_dict(json.loads(json.dumps(
        record_to_json_dict(noisy))))
    assert back.diagnostics == {"clamped": 3, "aborted": 1}
    data = record_to_json_dict(rec)
    del data["diagnostics"]  # records written without the key still load
    assert record_from_json_dict(data).diagnostics == {}

    pop = population_record(povm, state)
    back = record_from_json_dict(json.loads(json.dumps(
        record_to_json_dict(pop))))
    assert isinstance(back, PopulationRecord)
    assert back.weights() == pop.weights()


def test_record_json_sorted_lexicographically():
    rec = OutcomeRecord(counts={(2, 1): 1, (1, 2): 1, (1, 1): 2},
                        m_shots=4, povm_id="x", seed=0)
    data = record_to_json_dict(rec)
    keys = [tuple(k) for k, _ in data["counts"]]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# array-backed records


def _dict_record_json(record) -> dict:
    """record_to_json_dict as it was for dict-of-tuple records: pairs
    sorted by outcome tuple, built from the mapping view."""
    if isinstance(record, OutcomeRecord):
        return {"kind": "counts", "M": record.m_shots, "seed": record.seed,
                "povm_id": record.povm_id,
                "diagnostics": dict(record.diagnostics),
                "counts": [[list(k), v]
                           for k, v in sorted(dict(record.counts).items())]}
    return {"kind": "probabilities", "M": record.m_shots,
            "seed": record.seed, "povm_id": record.povm_id,
            "counts": [[list(k), v]
                       for k, v in sorted(dict(record.probs).items())]}


def _pauli6():
    vecs = np.array([[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j]])
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    return LocalPOVM(tuple(np.outer(v, v.conj()) / 3 for v in vecs), d=2)


def _written_record(kind):
    if kind.startswith("sic-n"):
        n = int(kind[5:])
        povm = ProductPOVM.local_sic(n)
        return sample_sequential(povm, _mpdo(n, seed=40 + n),
                                 {1: 40, 5: 3000, 12: 20000}[n], seed=41)
    if kind == "exact-n4":
        return population_record(ProductPOVM.local_sic(4), _mpdo(4, seed=42))
    if kind == "enumerate-n3":
        return sample_enumerate(ProductPOVM.local_sic(3), _mpdo(3, seed=43),
                                900, seed=44)
    local = (_pauli6() if kind.startswith("pauli6")
             else LocalPOVM(wh_sic_from_fiducial(3).elements, d=3))
    povm = ProductPOVM(sites=(local,) * 3)
    state = random_mpdo(MPDOGenConfig(n=3, kappa=2, purity=10, seed=45,
                                      d=local.d))
    if kind.endswith("exact"):
        return population_record(povm, state)
    return sample_sequential(povm, state, 2000, seed=46)


@pytest.mark.parametrize("kind", [
    "sic-n1", "sic-n5", "sic-n12", "exact-n4", "enumerate-n3", "pauli6",
    "pauli6-exact", "qutrit", "qutrit-exact"])
def test_record_file_bytes_match_dict_json(kind):
    record = _written_record(kind)
    payload = record_to_json_dict(record)
    payload["format"] = "mpoqst-record"
    payload["provenance"] = {"seed": 7, "input_sha256": "ab\"counts\": []"}
    want = _dict_record_json(record)
    assert record_to_json_dict(record) == want
    want.update(format=payload["format"], provenance=payload["provenance"])
    fh = io.StringIO()
    write_record_json(fh, payload, record)
    assert fh.getvalue() == json.dumps(want, indent=2, sort_keys=True)


def test_record_file_of_empty_and_non_finite_records():
    # an empty record's block is written as []; a non-finite probability
    # is refused when the record is built, so no record file holds one
    for record in (OutcomeRecord(counts={}, m_shots=0, povm_id="", seed=0),
                   PopulationRecord(probs={}, povm_id="")):
        payload = record_to_json_dict(record)
        fh = io.StringIO()
        write_record_json(fh, payload, record)
        assert fh.getvalue() == json.dumps(_dict_record_json(record),
                                           indent=2, sort_keys=True)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            PopulationRecord(probs={(1,): bad, (2,): 0.5}, povm_id="")
        with pytest.raises(ValueError, match="finite"):
            PopulationRecord([0.5, bad], povm_id="", outcomes=[[1], [2]])


@pytest.mark.parametrize("shots", [-5, -1, 2.5, True, "3"])
@pytest.mark.parametrize("sampler", [sample_sequential, sample_enumerate])
def test_samplers_reject_shot_counts_that_are_not_counts(sampler, shots):
    # a negative count failed as "counts must sum to the shot total"
    # (sequential) or as numpy's "n < 0" (enumerate)
    with pytest.raises(ValueError, match="shot count"):
        sampler(ProductPOVM.local_sic(2), _mpdo(2, seed=1), shots, seed=0)
    assert sampler(ProductPOVM.local_sic(2), _mpdo(2, seed=1), 0,
                   seed=0).m_shots == 0


@pytest.mark.parametrize("seed", range(4))
def test_count_rows_matches_counter(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    rows = rng.integers(-2 if seed == 3 else 1, 4, size=(500, n))
    if seed == 1:
        rows = rows.astype(np.uint8)
    want = sorted(Counter(map(tuple, rows.tolist())).items())
    outcomes, counts = _count_rows(rows)
    assert list(zip(map(tuple, outcomes.tolist()), counts.tolist())) == want
    outcomes, counts = _count_rows(rows[:0])
    assert outcomes.shape == (0, n) and counts.shape == (0,)


def test_record_arrays_and_read_only_views():
    povm = ProductPOVM.local_sic(4)
    rec = sample_sequential(povm, _mpdo(4, seed=47), 3000, seed=48)
    assert rec.outcomes.dtype == np.uint8 and rec.outcomes.shape[1] == 4
    assert rec.values.dtype == np.int64
    keys = list(map(tuple, rec.outcomes.tolist()))
    assert keys == sorted(set(keys))
    # the view equals the dict that the file's pairs give, with int types
    pairs = json.loads(json.dumps(record_to_json_dict(rec)))["counts"]
    want = {tuple(k): v for k, v in pairs}
    assert dict(rec.counts) == want and rec.counts == want
    assert all(type(i) is int for k in rec.counts for i in k)
    assert all(type(v) is int for v in rec.counts.values())
    assert list(rec.counts.items()) == sorted(want.items())
    assert rec.weights() == {k: v / 3000 for k, v in want.items()}
    with pytest.raises(TypeError):
        rec.counts[keys[0]] = 1
    with pytest.raises(ValueError):
        rec.outcomes[0, 0] = 2
    with pytest.raises(ValueError):
        rec.values[0] = 2
    with pytest.raises(AttributeError):
        rec.m_shots = 1
    assert rec.counts.get((9, 9, 9, 9)) is None
    pop = population_record(povm, _mpdo(4, seed=49))
    assert pop.outcomes.dtype == np.uint8 and pop.values.dtype == float
    with pytest.raises(TypeError):
        pop.probs[(1, 1, 1, 1)] = 0.5


def test_record_equality_by_value():
    povm = ProductPOVM.local_sic(3)
    rec = sample_sequential(povm, _mpdo(3, seed=50), 800, seed=51)
    back = record_from_json_dict(json.loads(json.dumps(
        record_to_json_dict(rec))))
    assert back == rec and not back != rec
    counts = dict(rec.counts)
    same = OutcomeRecord(counts=counts, m_shots=800, povm_id=rec.povm_id,
                         seed=51, diagnostics={"clamped": 99})
    assert same == rec  # diagnostics stay out of the comparison
    moved = dict(counts)
    first, second = list(moved)[:2]
    moved[first] += 1
    moved[second] -= 1
    if not moved[second]:
        del moved[second]
    for other in (
            OutcomeRecord(counts=moved, m_shots=800, povm_id=rec.povm_id,
                          seed=51),
            OutcomeRecord(counts=counts, m_shots=800, povm_id="other",
                          seed=51),
            OutcomeRecord(counts=counts, m_shots=800, povm_id=rec.povm_id,
                          seed=52),
            sample_sequential(povm, _mpdo(3, seed=50), 801, seed=51)):
        assert other != rec
    pop = population_record(povm, _mpdo(3, seed=50))
    assert pop != rec
    assert record_from_json_dict(json.loads(json.dumps(
        record_to_json_dict(pop)))) == pop


def test_record_constructor_rejects_malformed_outcomes():
    for counts in ({(1, 2): 1, (1,): 1}, {(): 2}, {(1, "a"): 2}):
        with pytest.raises(ValueError):
            OutcomeRecord(counts=counts, m_shots=2, povm_id="", seed=0)
    with pytest.raises(ValueError, match="listed twice"):
        OutcomeRecord(np.array([1, 2]), m_shots=3, povm_id="", seed=0,
                      outcomes=np.array([[2, 1], [2, 1]]))
    rec = OutcomeRecord(np.array([1, 2]), m_shots=3, povm_id="", seed=0,
                        outcomes=np.array([[2, 1], [1, 300]]))
    assert rec.outcomes.dtype == np.int64
    assert dict(rec.counts) == {(1, 300): 2, (2, 1): 1}


@pytest.mark.parametrize("fault, match", [
    ([[[1, 2], 1], [[1], 1]], "equal-length"),
    ([[[1, 2], 1], [[1, 2], 1]], "listed twice"),
    ([[[1, 2.0], 2]], "integers"),
    ([[[1, 2], 1, 0]], "pairs"),
    ([[[1, 2 ** 70], 2]], "out of range"),
])
def test_record_loader_rejects_ragged_and_repeated_outcomes(fault, match):
    data = {"kind": "counts", "M": 2, "seed": 0, "counts": fault}
    with pytest.raises(ValueError, match=match):
        record_from_json_dict(data)
