"""The benchmark's workloads: closed-loop batch jobs with one caller.

Every operation starts when the previous one ends.  Operation ``index``
of a run draws all of its truth, noise and init seeds from the workload
seed and the index, so the same seed gives the same inputs.  ``body``
is the measured part; ``check`` validates its output afterwards and
returns a list of problems (empty when the output is correct).

Calls into mpoqst go through module attributes (``estimator.pgd``, not
a name bound at import), so that the span recorder's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import time

import numpy as np

from mpoqst import cli, estimator, experiment, sampling, states, tt
from mpoqst.estimator import STEP_PRESETS, EstimatorConfig
from mpoqst.experiment import ExperimentSpec
from mpoqst.povm import ProductPOVM
from mpoqst.states import MPDOGenConfig

import spans


def op_seeds(seed: int, index: int, count: int = 3) -> list:
    """Independent seeds in [0, 2**63) for operation ``index``."""
    state = np.random.SeedSequence([seed, index]).generate_state(
        count, np.uint64)
    return [int(s) >> 1 for s in state]


# Operation index of the warm-up; timed operations count up from 0.
WARMUP = 2 ** 32


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple:
    """Highest whole percentile with at least ten samples beyond it."""
    count = len(values)
    if count <= 10:
        return None, None
    pct = math.floor(100 * (count - 10) / count)
    ordered = sorted(values)
    return float(ordered[math.ceil(pct / 100 * count) - 1]), pct


def _median_of(outcomes, key, unit):
    return median([o[key] for o in outcomes]), unit, len(outcomes)


def _mean_of(outcomes, key, unit):
    return statistics.fmean(o[key] for o in outcomes), unit, len(outcomes)


class Workload:
    """Base class: ``seed`` fixes the inputs, ``workdir`` holds files."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.host = None  # hostspeed.HostSpeed of an untraced run

    def clock(self) -> float:
        """Seconds, less the time of the host-speed reference blocks."""
        return self.host.clock() if self.host else time.perf_counter()

    def setup(self) -> None:
        """Build inputs shared by all operations and warm up."""

    def body(self, index: int) -> dict:
        raise NotImplementedError

    def check(self, outcome: dict) -> list:
        raise NotImplementedError

    def summarize(self, outcomes: list) -> dict:
        """Metric name -> (value, unit, sample count), from the numbers and
        number lists of the checked outcomes."""
        raise NotImplementedError

    def op_mean_s(self, outcomes: list) -> float:
        """Mean seconds per operation, the time op_ref expresses in
        reference blocks."""
        return statistics.fmean(o["op_s"] for o in outcomes)


class Pipeline(Workload):
    """generate -> measure -> estimate, with a fixed iteration budget."""

    def __init__(self, seed, workdir, n, shots, algorithm, config):
        super().__init__(seed, workdir)
        self.n, self.shots = n, shots
        self.algorithm, self.config = algorithm, config
        self.povm = None

    def setup(self):
        self.povm = ProductPOVM.local_sic(self.n)
        warm = Pipeline(self.seed, self.workdir, 4, 1000, self.algorithm,
                        self.config)
        warm.povm = ProductPOVM.local_sic(4)
        warm.check(warm.body(WARMUP))

    def body(self, index):
        truth_seed, noise_seed, init_seed = op_seeds(self.seed, index)
        t0 = self.clock()
        truth = states.random_mpdo(MPDOGenConfig(
            n=self.n, kappa=2, purity=10, seed=truth_seed))
        record = sampling.sample_sequential(self.povm, truth, self.shots,
                                            noise_seed)
        config = self.config(init_seed)
        runner = getattr(estimator, self.algorithm)
        t1 = self.clock()
        est = runner(record, self.povm, config, truth=truth)
        t2 = self.clock()
        return {"op_s": t2 - t0, "estimate_s": t2 - t1,
                "iter_ms": (t2 - t1) * 1e3 / max(est.iterations_run, 1),
                "final_error": est.trace_log[-1].error,
                "estimate": est}

    def check(self, outcome):
        est = outcome["estimate"]
        problems = []
        trace = tt.tt_trace(est.state)
        if abs(trace - 1.0) > 1e-8:
            problems.append(f"final trace {trace} is not 1 within 1e-8")
        if not tt.is_hermitian(est.state):
            problems.append("final iterate is not Hermitian")
        first, last = est.trace_log[0].error, outcome["final_error"]
        if not (math.isfinite(last) and last < first):
            problems.append(f"final error {last} not below initial {first}")
        if est.converged_reason not in ("max_iters", "max_epochs"):
            problems.append(f"stopped early: {est.converged_reason}")
        return problems

    def summarize(self, outcomes):
        return {
            "op_s": _median_of(outcomes, "op_s", "s"),
            "error": _mean_of(outcomes, "final_error", "1"),
            "pipeline_s": _median_of(outcomes, "op_s", "s"),
            "estimate_s": _median_of(outcomes, "estimate_s", "s"),
            "iter_ms": _median_of(outcomes, "iter_ms", "ms"),
            "final_error": _median_of(outcomes, "final_error", "1"),
        }


PGD_ITERS = 4
PSGD_EPOCHS = 1


def recover_n10(seed, workdir):
    # The plateau window exceeds the budget, so every run does the same
    # number of steps.
    def config(init_seed):
        return EstimatorConfig(ranks=4, init="spectral", init_seed=init_seed,
                               max_iters=PGD_ITERS,
                               plateau_window=PGD_ITERS + 1,
                               **STEP_PRESETS["pgd-spectral-rank4"])
    return Pipeline(seed, workdir, 10, 3000, "pgd", config)


def psgd_n8(seed, workdir):
    def config(init_seed):
        return EstimatorConfig(ranks=4, init="random", init_seed=init_seed,
                               max_epochs=PSGD_EPOCHS,
                               plateau_window=PSGD_EPOCHS + 1,
                               **STEP_PRESETS["psgd-random"])
    return Pipeline(seed, workdir, 8, 3000, "psgd", config)


class Sweep(Workload):
    """run_experiment as scripts/run_error_vs_n.py calls it (threads=1,
    plateau stop on), then a resume pass over the same directory.

    Cells are timed from outside, around experiment.run_cell: the rows'
    wall_ms holds only the init time when record_trace is off.
    """

    def __init__(self, seed, workdir, n_values=range(2, 7), seeds=1):
        super().__init__(seed, workdir)
        self.n_values, self.seeds = list(n_values), seeds
        self.runs = 0

    def spec(self, index):
        return ExperimentSpec(
            n_values=self.n_values, m_values=[3000], rank_values=[1, 4],
            init_modes=["random", "spectral"], algorithms=["pgd"],
            seeds=self.seeds, base_seed=op_seeds(self.seed, index, 1)[0],
            estimator_overrides={"max_iters": 300})

    def setup(self):
        warm = Sweep(self.seed, self.workdir, n_values=[2], seeds=1)
        warm.check(warm.body(WARMUP))

    def body(self, index):
        spec = self.spec(index)
        self.runs += 1
        out = os.path.join(self.workdir, f"sweep-{self.runs}")
        cell_s = []
        run_cell = experiment.run_cell

        def timed_cell(*args, **kwargs):
            t = self.clock()
            try:
                return run_cell(*args, **kwargs)
            finally:
                cell_s.append(self.clock() - t)

        with spans.patched(run_cell, timed_cell):
            t0 = self.clock()
            first = experiment.run_experiment(spec, out)
            t1 = self.clock()
        with open(first["results_csv"], "rb") as fh:
            csv_bytes = fh.read()
        t2 = self.clock()
        again = experiment.run_experiment(spec, out)
        t3 = self.clock()
        return {"sweep_s": t1 - t0, "resume_s": t3 - t2, "cell_s": cell_s,
                "iterations": sum(r.iterations for r in first["rows"]),
                "final_errors": [r.final_error for r in first["rows"]],
                "spec": spec, "out": out, "first": first, "again": again,
                "csv_bytes": csv_bytes,
                "op_s": t1 - t0 + t3 - t2}

    def check(self, outcome):
        try:
            spec, first, again = (outcome["spec"], outcome["first"],
                                  outcome["again"])
            expected = len(list(experiment.iter_cells(spec)))
            problems = []
            keys = {(r.n, r.rank, r.init, r.seed_index)
                    for r in first["rows"]}
            if len(first["rows"]) != expected or len(keys) != expected:
                problems.append(f"{len(first['rows'])} rows, {len(keys)} "
                                f"distinct, for {expected} cells")
            if first["cells_run"] != expected:
                problems.append(f"first pass ran {first['cells_run']} cells")
            if len(outcome["cell_s"]) != expected:
                problems.append(f"timed {len(outcome['cell_s'])} cells")
            if not all(math.isfinite(r.final_error) for r in first["rows"]):
                problems.append("non-finite final error")
            if again["cells_run"] != 0:
                problems.append(f"resume pass ran {again['cells_run']} cells")
            with open(again["results_csv"], "rb") as fh:
                if fh.read() != outcome["csv_bytes"]:
                    problems.append("resume pass changed results.csv")
            return problems
        finally:
            shutil.rmtree(outcome["out"], ignore_errors=True)

    def summarize(self, outcomes):
        cells = [s for o in outcomes for s in o["cell_s"]]
        errors = [e for o in outcomes for e in o["final_errors"]]
        cell_count = sum(len(o["cell_s"]) for o in outcomes)
        sweep_s = sum(o["sweep_s"] for o in outcomes)
        tail_s, pct = tail(cells)
        # A run holds only a few sweeps, so op_s pools all their cells
        # rather than taking a median over sweeps.
        out = {
            "op_s": (self.op_mean_s(outcomes), "s", cell_count),
            "error": (statistics.fmean(errors), "1", len(errors)),
            "cells_per_s": (cell_count / sweep_s, "1/s", len(outcomes)),
            "cell_s": (median(cells), "s", len(cells)),
            "final_error": (median(errors), "1", len(errors)),
            "resume_s": _median_of(outcomes, "resume_s", "s"),
        }
        if tail_s is not None:
            out["cell_s_tail"] = (tail_s, "s", len(cells), f"p{pct}")
        return out

    def op_mean_s(self, outcomes):
        """Seconds per cell over all sweeps of the run."""
        return (sum(o["sweep_s"] for o in outcomes)
                / sum(len(o["cell_s"]) for o in outcomes))


class MeasureRecord(Workload):
    """``mpoqst measure`` in-process on a generated truth, then the record
    read back the way ``mpoqst estimate`` reads it."""

    def __init__(self, seed, workdir, n=12, shots=100_000):
        super().__init__(seed, workdir)
        self.n, self.shots = n, shots

    def setup(self):
        warm = MeasureRecord(self.seed, self.workdir, n=4, shots=2000)
        warm.check(warm.body(WARMUP))

    def body(self, index):
        truth_seed, noise_seed = op_seeds(self.seed, index, 2)
        state_path = os.path.join(self.workdir, f"state-{self.n}.json")
        record_path = os.path.join(self.workdir, f"record-{self.n}.json")
        written = []
        to_json = sampling.record_to_json_dict

        def capture(record):
            written.append(record)
            return to_json(record)

        t0 = self.clock()
        truth = states.random_mpdo(MPDOGenConfig(n=self.n, kappa=2,
                                                 purity=10, seed=truth_seed))
        with open(state_path, "w") as fh:
            json.dump({"format": "mpoqst-state",
                       "state": tt.tt_to_json_dict(truth)}, fh)
        t1 = self.clock()
        with spans.patched(to_json, capture), \
                contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["measure", "--state", state_path,
                             "--shots", str(self.shots),
                             "--seed", str(noise_seed),
                             "--out", record_path])
        t2 = self.clock()
        with open(record_path) as fh:
            loaded = sampling.record_from_json_dict(json.load(fh))
        t3 = self.clock()
        return {"op_s": t3 - t0, "measure_s": t2 - t1, "load_s": t3 - t2,
                "record_bytes": os.path.getsize(record_path), "code": code,
                "written": written, "loaded": loaded, "truth": truth}

    def check(self, outcome):
        problems = []
        if outcome["code"] != 0:
            problems.append(f"mpoqst measure exited {outcome['code']}")
        loaded, written = outcome["loaded"], outcome["written"]
        if sum(loaded.counts.values()) != self.shots:
            problems.append("counts do not sum to M")
        if len(written) != 1 or loaded != written[0]:
            problems.append("JSON round trip differs from the record")
        error, expected = pair_marginal_error(outcome["truth"], loaded)
        outcome["pair_error"] = error
        if not error ** 2 <= 3.0 * expected ** 2:
            problems.append(f"two-site marginal error {error:.3g} exceeds "
                            f"sampling noise {expected:.3g}")
        return problems

    def summarize(self, outcomes):
        return {
            "op_s": _median_of(outcomes, "op_s", "s"),
            "error": _mean_of(outcomes, "pair_error", "1"),
            "measure_s": _median_of(outcomes, "measure_s", "s"),
            "load_s": _median_of(outcomes, "load_s", "s"),
            "record_bytes": _median_of(outcomes, "record_bytes", "bytes"),
        }


def pair_marginal_error(truth, record) -> tuple:
    """Distance between the record's two-site outcome frequencies and the
    truth's exact two-site SIC probabilities, over all site pairs, and its
    expected value for an unbiased sampler, sqrt(sum_pairs (1 - sum p^2)/M).
    """
    n, shots = truth.n, record.m_shots
    outcomes = np.array(list(record.counts), dtype=np.int64) - 1
    weights = np.fromiter(record.counts.values(), dtype=float,
                          count=len(record.counts))
    fused = ProductPOVM.local_sic(n).sites[0].fused().conj()
    k = fused.shape[0]
    # trans[l][i] = sum_s conj(b_i(s)) core_l[:, s, :]; tmaps sum out i.
    trans = [np.tensordot(fused, core, axes=[[1], [1]])
             for core in truth.cores]
    tmaps = [t.sum(axis=0) for t in trans]
    left = [np.ones(1, dtype=complex)]
    for t in tmaps:
        left.append(left[-1] @ t)
    right = [np.ones(1, dtype=complex)]
    for t in reversed(tmaps):
        right.insert(0, t @ right[0])
    total, expected = 0.0, 0.0
    for a in range(n):
        mid = np.einsum("r,krs->ks", left[a], trans[a])
        for b in range(a + 1, n):
            exact = np.einsum("kr,jrs,s->kj", mid, trans[b],
                              right[b + 1]).real.ravel()
            freq = np.bincount(outcomes[:, a] * k + outcomes[:, b],
                               weights=weights, minlength=k * k) / shots
            total += float(((freq - exact) ** 2).sum())
            expected += (1.0 - float((exact ** 2).sum())) / shots
            mid = mid @ tmaps[b]
    return math.sqrt(total), math.sqrt(expected)


WORKLOADS = {
    "recover-n10": recover_n10,
    "sweep-small": Sweep,
    "psgd-n8": psgd_n8,
    "measure-n12": MeasureRecord,
}
