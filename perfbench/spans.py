"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``mpoqst`` modules from the
benchmark's side: nothing inside the package changes.  Modules import
names directly (``from .tt import tt_round``), so a wrapper is installed
in every loaded ``mpoqst.*`` namespace that holds the original function
object, and removed again when the traced region ends.

A span is ``[name, start, end, parent, info]``; ``parent`` is the index
of the enclosing span, and every span of one recorder shares its run id.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# (module, public function, span name).  spectral_init and random_init
# share the span "estimator.init".
TRACED = (
    ("tt", "tt_round", "tt.round"),
    ("tt", "tt_inner", "tt.inner"),
    ("tt", "tt_add", "tt.add"),
    ("povm", "sum_channel", "povm.sum_channel"),
    ("povm", "outcome_amplitude", "povm.outcome_amplitude"),
    ("sampling", "sample_sequential", "sampling.sample_sequential"),
    ("sampling", "record_to_json_dict", "sampling.record_to_json"),
    ("sampling", "record_from_json_dict", "sampling.record_from_json"),
    ("states", "random_mpdo", "states.random_mpdo"),
    ("estimator", "empirical_operator", "estimator.empirical_operator"),
    ("estimator", "outcome_sum_tt", "estimator.outcome_sum_tt"),
    ("estimator", "project_mpo", "estimator.project_mpo"),
    ("estimator", "spectral_init", "estimator.init"),
    ("estimator", "random_init", "estimator.init"),
    ("estimator", "recovery_error", "estimator.recovery_error"),
    ("estimator", "pgd", "estimator.pgd"),
    ("estimator", "psgd", "estimator.psgd"),
    ("experiment", "run_cell", "experiment.run_cell"),
    ("experiment", "run_experiment", "experiment.run_experiment"),
    ("cli", "main", "cli.main"),
)


def patch(original, replacement):
    """Replace ``original`` by ``replacement`` in every loaded mpoqst
    module namespace that holds it; return a callable that undoes it."""
    hits = []
    for name, module in list(sys.modules.items()):
        if name == "mpoqst" or name.startswith("mpoqst."):
            hits.extend((module, attr) for attr, value in vars(module).items()
                        if value is original)
    for module, attr in hits:
        setattr(module, attr, replacement)

    def undo():
        for module, attr in hits:
            setattr(module, attr, original)
    return undo


@contextlib.contextmanager
def patched(original, replacement):
    undo = patch(original, replacement)
    try:
        yield
    finally:
        undo()


# ---------------------------------------------------------------------------
# computed work counts attached to spans


def _qr_flops(m: int, n: int) -> float:
    """Complex Householder QR with the reduced Q formed (xGEQRF + xUNGQR),
    LAPACK Working Note 41 counts; a complex flop counts as 4 real."""
    k = min(m, n)
    return 4.0 * (2 * k * k * (max(m, n) - k / 3) + 2 * k * k * (m - k / 3))


def _svd_flops(m: int, n: int) -> float:
    """Complex thin SVD with U and V (R-SVD, Golub & Van Loan:
    6 m n^2 + 20 n^3 for m >= n); a complex flop counts as 4 real."""
    m, n = max(m, n), min(m, n)
    return 4.0 * (6 * m * n * n + 20 * n ** 3)


def tt_round_flops(inp, out) -> float:
    """Flops of the factorizations tt_round performs on ``inp``, replayed
    from the core shapes: a right-to-left QR sweep, then a left-to-right
    SVD sweep whose kept ranks are those of ``out``."""
    n = len(inp.cores)
    if n == 1:
        return 0.0
    dd = inp.d * inp.d
    left = [c.shape[0] for c in inp.cores]
    right = [c.shape[2] for c in inp.cores]
    flops = 0.0
    for l in range(n - 1, 0, -1):
        rows = dd * right[l]
        flops += _qr_flops(rows, left[l])
        k = min(rows, left[l])
        left[l] = right[l - 1] = k
    kept = out.ranks
    for l in range(n - 1):
        flops += _svd_flops(kept[l] * dd, right[l])
    return flops


def _round_info(args, kwargs, result):
    inp = args[0]
    return {"in_rank": max(inp.ranks), "flops": tt_round_flops(inp, result)}


def _sample_info(args, kwargs, result):
    shots = args[2] if len(args) > 2 else kwargs["m_shots"]
    diag = result.diagnostics
    return {"shots": int(shots), "distinct": len(result.counts),
            "clamped": int(diag.get("clamped", 0)),
            "aborted": int(diag.get("aborted", 0))}


def _bond_info(args, kwargs, result):
    return {"bond": max(result.ranks)}


def _iterations_info(args, kwargs, result):
    return {"iterations": int(result.iterations_run)}


INFO = {
    "tt.round": _round_info,
    "sampling.sample_sequential": _sample_info,
    "estimator.empirical_operator": _bond_info,
    "estimator.pgd": _iterations_info,
    "estimator.psgd": _iterations_info,
}


# ---------------------------------------------------------------------------
# recorder


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED function for the duration of the block."""
        undos = []
        try:
            for module, attr, name in TRACED:
                original = getattr(sys.modules["mpoqst." + module], attr)
                undos.append(patch(original, self.wrap(name, original)))
            yield self
        finally:
            for undo in reversed(undos):
                undo()

    def self_times(self) -> list:
        """Per span: its duration minus the time its child spans cover.
        Spans come from one thread, so children never overlap."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer metrics per traced operation: calls, self seconds and
        the computed counts attached to spans."""
        out = {}
        agg = {}  # name -> [calls, self seconds, total seconds, infos]
        for span, own in zip(self.spans, self.self_times()):
            entry = agg.setdefault(span[0], [0, 0.0, 0.0, []])
            entry[0] += 1
            entry[1] += own
            entry[2] += span[2] - span[1]
            if span[4] is not None:
                entry[3].append(span[4])
        for name, (calls, self_s, _, _) in sorted(agg.items()):
            out[f"{name}.calls"] = (calls / ops, "count")
            out[f"{name}.self_s"] = (self_s / ops, "s")
        if "tt.round" in agg:
            infos = agg["tt.round"][3]
            out["tt.round.max_in_rank"] = (
                max(i["in_rank"] for i in infos), "count")
            out["tt.round.gflop_computed"] = (
                sum(i["flops"] for i in infos) / 1e9 / ops, "GFLOP")
        if "estimator.empirical_operator" in agg:
            out["estimator.data_bond_max"] = (
                max(i["bond"] for i in agg["estimator.empirical_operator"][3]),
                "count")
        iterations = [i["iterations"] for name in ("estimator.pgd",
                                                   "estimator.psgd")
                      if name in agg for i in agg[name][3]]
        if iterations:
            out["estimator.iterations"] = (sum(iterations) / ops, "count")
        if "sampling.sample_sequential" in agg:
            _, _, total_s, infos = agg["sampling.sample_sequential"]
            out["sampling.shots_per_s"] = (
                sum(i["shots"] for i in infos) / total_s, "1/s")
            for key in ("distinct", "clamped", "aborted"):
                label = "distinct_outcomes" if key == "distinct" else key
                out[f"sampling.{label}"] = (
                    sum(i[key] for i in infos) / ops, "count")
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "run_id": self.run_id,
            "names": names,
            "columns": ["name", "start", "end", "parent", "info"],
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]]
                      for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
