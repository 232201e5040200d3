"""Command-line interface.

Subcommands: generate, measure, estimate, check-povm, check-design, gamma,
experiment.  All outputs are JSON/CSV/SVG files embedding provenance
(input hash, seed, library version); re-running a command with identical
inputs reproduces identical numeric content.

Exit codes: 0 success, 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, astuple, fields

from . import __version__
from .estimator import (
    EstimatorConfig,
    IterateStats,
    pgd,
    psgd,
    recovery_error,
)
from .povm import (
    DensePOVM,
    NonPhysicalStateError,
    ProductPOVM,
    check_povm,
    check_sic,
    check_t_design,
    dense_from_local,
    gamma as gamma_stat,
    povm_from_json_dict,
    povm_id,
    sic_qubit,
)
from .sampling import (
    population_record,
    record_from_json_dict,
    record_to_json_dict,
    sample_enumerate,
    sample_sequential,
    write_record_json,
)
from .states import MPDOGenConfig, purity, random_mpdo
from .experiment import ExperimentSpec, _write_table, run_experiment
from .tt import (
    NumericalError,
    _complex_from_json,
    _json_sha256,
    load_tt,
    tt_to_json_dict,
    tt_trace,
)


def _provenance(inputs, seed=None) -> dict:
    return {"version": __version__, "input_sha256": _json_sha256(inputs),
            "seed": seed}


def _file_sha256(path) -> str:
    """Hex sha256 of the bytes of the input file at ``path`` (None for
    none), so that provenance follows a file's contents, not its path."""
    if path is None:
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _povm_sha256(label: str) -> str:
    """_file_sha256, but 'local-sic' names no file and stays a label."""
    return label if label == "local-sic" else _file_sha256(label)


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(path)


def _report(payload: dict, out) -> int:
    """Print a report and, given a path, also write it there."""
    print(json.dumps(payload, indent=2, sort_keys=True))
    if out:
        _write_json(out, payload)
    return 0


def _load_povm(label: str, n: int = None):
    """Resolve a POVM argument: 'local-sic' (needs n) or a JSON file.
    Given n, the POVM must be a product POVM on n sites."""
    if label == "local-sic":
        if n is None:
            raise ValueError("local-sic POVM needs --n")
        return ProductPOVM.local_sic(n)
    with open(label) as fh:
        povm = povm_from_json_dict(json.load(fh))
    if n is not None and not (isinstance(povm, ProductPOVM) and povm.n == n):
        raise ValueError(f"{label} is not a product POVM on {n} sites")
    return povm


def cmd_generate(args) -> int:
    config = MPDOGenConfig(n=args.n, kappa=args.kappa, purity=args.purity,
                           seed=args.seed)
    state = random_mpdo(config)
    payload = {
        "format": "mpoqst-state",
        "provenance": _provenance(asdict(config), seed=args.seed),
        "generator": asdict(config),
        "trace": float(tt_trace(state).real),
        "purity": purity(state),
        "state": tt_to_json_dict(state),
    }
    _write_json(os.path.join(args.out, f"state-n{args.n}-seed{args.seed}.json")
                if os.path.isdir(args.out) else args.out, payload)
    return 0


def cmd_measure(args) -> int:
    state = load_tt(args.state)
    povm = _load_povm(args.povm, n=state.n)
    t0 = time.perf_counter()
    if args.exact:
        record = population_record(povm, state)
    elif args.sampler == "enumerate":
        record = sample_enumerate(povm, state, args.shots, seed=args.seed)
    else:
        record = sample_sequential(povm, state, args.shots, seed=args.seed)
    t1 = time.perf_counter()
    payload = record_to_json_dict(record)
    payload["format"] = "mpoqst-record"
    payload["provenance"] = _provenance(
        {"state": _file_sha256(args.state), "povm": _povm_sha256(args.povm),
         "shots": args.shots, "exact": args.exact}, seed=args.seed)
    with open(args.out, "w") as fh:
        write_record_json(fh, payload, record)
    print(args.out)
    diagnostics = getattr(record, "diagnostics", {})
    print(f"measure: {len(record.values)} distinct outcomes, "
          f"clamped {diagnostics.get('clamped', 0)}, "
          f"aborted {diagnostics.get('aborted', 0)}; "
          f"sampling {t1 - t0:.3f} s, writing "
          f"{time.perf_counter() - t1:.3f} s", file=sys.stderr)
    return 0


def _record_state(path, povm: ProductPOVM):
    """The state file at ``path``, checked to fit the record's POVM."""
    state = load_tt(path)
    if (state.n, state.d) != (povm.n, povm.d):
        raise ValueError(f"state file {path} has {state.n} sites of d="
                         f"{state.d}, the record {povm.n} sites of d={povm.d}")
    return state


def cmd_estimate(args) -> int:
    with open(args.record, "rb") as fh:
        raw = fh.read()
    record = record_from_json_dict(json.loads(raw))
    if not len(record.values):
        raise ValueError(f"record {args.record} holds no outcomes")
    povm = _load_povm(args.povm, n=record.outcomes.shape[1])
    if record.povm_id and record.povm_id != povm_id(povm):
        raise ValueError("record was measured with a different POVM")
    povm.hermitian_coordinates()  # ValueError on a non-Hermitian element
    overrides = {}
    if args.config:
        with open(args.config) as fh:
            overrides = EstimatorConfig.json_fields(
                json.load(fh), f"config {args.config}")
    overrides.setdefault("backend", args.backend)
    if args.init_state:
        overrides.update(init="provided",
                         init_state=_record_state(args.init_state, povm))
    config = EstimatorConfig(**overrides)
    truth = _record_state(args.truth, povm) if args.truth else None
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValueError(f"the directory of --out {args.out} does not exist")
    runner = psgd if args.algorithm == "psgd" else pgd
    estimate = runner(record, povm, config, truth=truth)
    trace_path = args.out + ".trace.csv"
    columns = [f.name for f in fields(IterateStats)]
    _write_table(trace_path, f"# mpoqst {__version__}",
                 ["iter" if c == "iteration" else c for c in columns],
                 map(astuple, estimate.trace_log))
    payload = {
        "format": "mpoqst-estimate",
        "provenance": _provenance(
            {"record": hashlib.sha256(raw).hexdigest(),
             "povm": _povm_sha256(args.povm),
             "config": _file_sha256(args.config),
             "algorithm": args.algorithm, "backend": args.backend,
             "init_state": _file_sha256(args.init_state),
             "truth": _file_sha256(args.truth)}, seed=record.seed),
        "iterations_run": estimate.iterations_run,
        "converged_reason": estimate.converged_reason,
        "metadata": estimate.metadata,
        "final_error": (recovery_error(estimate.state, truth)
                        if truth is not None else None),
        "state": tt_to_json_dict(estimate.state),
    }
    _write_json(args.out + ".json", payload)
    print(trace_path)
    return 0


def cmd_check_povm(args) -> int:
    if args.povm == "local-sic":
        local = sic_qubit()
        dense = dense_from_local(local)
        report = check_sic(dense)
        payload = {"povm": "local-sic", "valid_povm": check_povm(local),
                   "sic": asdict(report), "passes_1e-12": report.passes(1e-12)}
    else:
        povm = _load_povm(args.povm)
        payload = {"povm": args.povm, "valid_povm": check_povm(povm)}
        if isinstance(povm, DensePOVM):
            report = check_sic(povm)
            payload["sic"] = asdict(report)
    return _report(payload, args.out)


def cmd_check_design(args) -> int:
    with open(args.vectors) as fh:
        vectors = _complex_from_json(json.load(fh), "vectors")
    return _report(asdict(check_t_design(vectors, args.s)), args.out)


def cmd_gamma(args) -> int:
    state = load_tt(args.state)
    povm = _load_povm(args.povm, n=state.n)
    report = gamma_stat(povm, state, method=args.method,
                        beam_width=args.width)
    return _report(asdict(report), args.out)


def cmd_experiment(args) -> int:
    with open(args.spec) as fh:
        spec = ExperimentSpec.from_json_dict(json.load(fh))
    result = run_experiment(spec, args.out)
    print(json.dumps({"cells_total": result["cells_total"],
                      "cells_run": result["cells_run"],
                      "results_csv": result["results_csv"],
                      "medians_csv": result["medians_csv"],
                      "plots": result["plots"]}, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpoqst",
        description="Tomography of matrix-product-operator states from "
                    "informationally complete POVM measurements.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a random MPDO ground truth")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kappa", type=int, default=1)
    p.add_argument("--purity", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="state.json")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("measure", help="simulate measurement shots")
    p.add_argument("--state", required=True)
    p.add_argument("--povm", default="local-sic")
    p.add_argument("--shots", type=int, default=3000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sampler", choices=["sequential", "enumerate"],
                   default="sequential")
    p.add_argument("--exact", action="store_true",
                   help="write exact outcome probabilities instead of counts")
    p.add_argument("--out", default="record.json")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("estimate", help="run the least-squares estimator")
    p.add_argument("--record", required=True)
    p.add_argument("--povm", default="local-sic")
    p.add_argument("--config", help="JSON object of EstimatorConfig fields")
    p.add_argument("--algorithm", choices=["pgd", "psgd"], default="pgd")
    p.add_argument("--backend", choices=["tt", "dense"], default="tt")
    p.add_argument("--truth", help="state file for error logging")
    p.add_argument("--init-state", help="state file used as the start point")
    p.add_argument("--out", default="estimate",
                   help="output prefix (.json and .trace.csv)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("check-povm", help="verify POVM / SIC identities")
    p.add_argument("--povm", default="local-sic")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_povm)

    p = sub.add_parser("check-design", help="moment-defect report of vectors")
    p.add_argument("--vectors", required=True,
                   help="JSON array of vectors as [re, im] pairs")
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_design)

    p = sub.add_parser("gamma", help="max-probability uniformity statistic")
    p.add_argument("--state", required=True)
    p.add_argument("--povm", default="local-sic")
    p.add_argument("--method", choices=["exhaustive", "beam"],
                   default="exhaustive")
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("experiment", help="run a seeded sweep")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default="experiment-out")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NonPhysicalStateError, NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError, OSError, MemoryError,
            json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
