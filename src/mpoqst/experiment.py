"""Seeded experiment sweeps: generate, measure, estimate, aggregate.

Every cell of a sweep is fully determined by the spec and its derived
seeds: the ground-truth draw depends on (base_seed, n, rank, seed index)
but not on the shot count, so M-sweeps reuse one truth per seed; the
measurement noise seed additionally folds in M.  Completed cells persist
as JSON files and are skipped on re-run; the aggregated CSV is rebuilt
from cell files in sorted order, so its numeric content is independent of
scheduling.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, astuple, dataclass, field, fields
from html import escape

import numpy as np

from . import __version__
from .estimator import EstimatorConfig, pgd, preset_schedule, psgd, recovery_error
from .povm import ProductPOVM, gamma
from .sampling import MAX_SHOTS, sample_sequential
from .states import MPDOGenConfig, kappa_for_rank, random_mpdo
from .tt import _json_int, _json_sha256


@dataclass
class ExperimentSpec:
    """Sweep axes and per-cell settings.  Every axis must be a non-empty
    list, the n, M and rank axes of positive JSON integers (M at most
    sampling.MAX_SHOTS), as must be seeds and purity; every (n, rank)
    truth must be a valid MPDOGenConfig draw; base_seed is an integer,
    record_gamma a boolean and estimator_overrides an object of
    EstimatorConfig fields other than init_state, ranks and init (set
    per cell), with no dense backend for psgd (ValueError otherwise)."""

    n_values: list
    m_values: list = field(default_factory=lambda: [3000])
    rank_values: list = field(default_factory=lambda: [1])
    init_modes: list = field(default_factory=lambda: ["random"])
    algorithms: list = field(default_factory=lambda: ["pgd"])
    seeds: int = 3
    base_seed: int = 0
    povm: str = "local-sic"
    purity: int = 10
    record_gamma: bool = False
    estimator_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("n_values", "m_values", "rank_values", "init_modes",
                     "algorithms"):
            axis = getattr(self, name)
            if not isinstance(axis, (list, tuple)) or not axis:
                raise ValueError(f"{name} must be a non-empty list")
        for name in ("n_values", "m_values", "rank_values"):
            if min(_json_int(v, f"{name} entry")
                   for v in getattr(self, name)) < 1:
                raise ValueError(f"{name} entries must be >= 1")
        if max(self.m_values) > MAX_SHOTS:
            raise ValueError(f"m_values entries must be <= {MAX_SHOTS}")
        for name in ("seeds", "purity"):
            if _json_int(getattr(self, name), name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # the largest truth of the sweep: every cap grows with n and kappa
        MPDOGenConfig(n=max(self.n_values),
                      kappa=kappa_for_rank(max(self.rank_values)),
                      purity=self.purity)
        _json_int(self.base_seed, "base_seed")
        if not isinstance(self.record_gamma, bool):
            raise ValueError("record_gamma must be true or false")
        EstimatorConfig.json_fields(self.estimator_overrides,
                                    "estimator_overrides")
        for alg in self.algorithms:
            if alg not in ("pgd", "psgd"):
                raise ValueError(f"unknown algorithm {alg!r}")
        for name, axis in (("ranks", "rank_values"), ("init", "init_modes")):
            if name in self.estimator_overrides:
                raise ValueError(f"estimator_overrides cannot set {name}: "
                                 f"{axis} sets it per cell")
        if (self.estimator_overrides.get("backend") == "dense"
                and "psgd" in self.algorithms):
            raise ValueError("estimator_overrides sets the dense backend, "
                             "but psgd runs on the tt backend only")
        for mode in self.init_modes:
            if mode not in ("random", "spectral"):
                raise ValueError(f"unknown init mode {mode!r}")
        if self.povm != "local-sic":
            raise ValueError("only the bundled local-sic POVM is supported")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise ValueError("an experiment spec must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        return cls(**data)

    def sha256(self) -> str:
        return _json_sha256(self.to_json_dict())


@dataclass
class ResultRow:
    n: int
    shots: int
    rank: int
    init: str
    algorithm: str
    seed_index: int
    state_seed: int
    noise_seed: int
    init_error: float
    final_error: float
    final_loss: float
    iterations: int
    converged: bool
    wall_ms: float  # time of the estimator run
    gamma_beam: float = float("nan")


def derived_seed(base_seed: int, *parts) -> int:
    """Deterministic 63-bit seed from the base seed and cell coordinates:
    the first 8 digest bytes, big-endian, shifted right by one."""
    return int(_json_sha256([base_seed, *parts])[:16], 16) >> 1


def cell_key(cell: dict) -> str:
    return _json_sha256(cell)[:16]


def iter_cells(spec: ExperimentSpec):
    for n in spec.n_values:
        for m in spec.m_values:
            for rank in spec.rank_values:
                for init in spec.init_modes:
                    for alg in spec.algorithms:
                        for seed_index in range(spec.seeds):
                            yield {"n": int(n), "shots": int(m),
                                   "rank": int(rank), "init": init,
                                   "algorithm": alg,
                                   "seed_index": seed_index}


def _truth_state(spec: ExperimentSpec, cell: dict, state_seed: int):
    return random_mpdo(MPDOGenConfig(n=cell["n"],
                                     kappa=kappa_for_rank(cell["rank"]),
                                     purity=spec.purity, seed=state_seed))


def run_cell(spec: ExperimentSpec, cell: dict) -> ResultRow:
    n, m, rank = cell["n"], cell["shots"], cell["rank"]
    state_seed = derived_seed(spec.base_seed, "state", n, rank,
                              cell["seed_index"])
    noise_seed = derived_seed(spec.base_seed, "noise", n, rank, m,
                              cell["seed_index"])
    init_seed = derived_seed(spec.base_seed, "init", n, rank, m,
                             cell["init"], cell["algorithm"],
                             cell["seed_index"])
    povm = ProductPOVM.local_sic(n)
    truth = _truth_state(spec, cell, state_seed)
    record = sample_sequential(povm, truth, m, seed=noise_seed)
    schedule = preset_schedule(cell["algorithm"], cell["init"], rank)
    params = dict(ranks=rank, init=cell["init"], init_seed=init_seed,
                  record_trace=False, **schedule)
    params.update(spec.estimator_overrides)
    config = EstimatorConfig(**params)
    runner = pgd if cell["algorithm"] == "pgd" else psgd
    t0 = time.perf_counter()
    estimate = runner(record, povm, config, truth=truth)
    wall_ms = (time.perf_counter() - t0) * 1e3
    init_error = estimate.trace_log[0].error
    final_error = recovery_error(estimate.state, truth)
    gamma_beam = float("nan")
    if spec.record_gamma:
        gamma_beam = gamma(povm, truth, method="beam", beam_width=64).gamma
    return ResultRow(n=n, shots=m, rank=rank, init=cell["init"],
                     algorithm=cell["algorithm"],
                     seed_index=cell["seed_index"], state_seed=state_seed,
                     noise_seed=noise_seed, init_error=init_error,
                     final_error=final_error,
                     final_loss=estimate.metadata["final_loss"],
                     iterations=estimate.iterations_run,
                     converged=estimate.converged_reason == "loss_plateau",
                     wall_ms=wall_ms, gamma_beam=gamma_beam)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _provenance(spec: ExperimentSpec) -> str:
    return f"# mpoqst {__version__} spec_sha256={spec.sha256()} seed={spec.base_seed}"


def _write_table(path: str, comment: str, header: list, rows) -> None:
    """A CSV file: the comment line, the header, then one line per row (a
    sequence of values in header order, formatted by _fmt), in the order
    of the iterable ``rows``; every line ends with \\n."""
    with open(path, "w", newline="") as fh:
        fh.write(comment + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def aggregate_medians(rows: list) -> list:
    groups = {}
    for row in rows:
        groups.setdefault((row.n, row.shots, row.rank, row.init,
                           row.algorithm), []).append(row)
    out = []
    for key in sorted(groups):
        cell_rows = groups[key]
        out.append({
            "n": key[0], "shots": key[1], "rank": key[2], "init": key[3],
            "algorithm": key[4],
            "median_final_error": float(np.median(
                [r.final_error for r in cell_rows])),
            "median_init_error": float(np.median(
                [r.init_error for r in cell_rows])),
            "seeds": len(cell_rows),
            "all_converged": all(r.converged for r in cell_rows),
        })
    return out


_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _svg_plot(series: dict, xlabel: str, xlog: bool) -> str:
    """SVG text of a line plot with one polyline per labelled series of
    x-sorted (x, y) points, a log y axis and, if xlog, a log x axis.
    Points a log axis cannot show (non-finite or <= 0) are left out."""
    left, right, top, bottom = 70, 430, 15, 295
    fx = math.log10 if xlog else float

    def shown(x, y):
        return math.isfinite(y) and y > 0 and math.isfinite(x) and (
            x > 0 or not xlog)

    pts = {label: [(x, y) for x, y in series[label] if shown(x, y)]
           for label in sorted(series)}
    xticks = sorted({x for p in pts.values() for x, _ in p})
    logy = [math.log10(y) for p in pts.values() for _, y in p]
    ylo = math.floor(min(logy, default=-1.0))
    yhi = max(math.ceil(max(logy, default=0.0)), ylo + 1)
    xlo, xhi = (fx(xticks[0]), fx(xticks[-1])) if xticks else (0.0, 1.0)

    def sx(x):
        return left + (right - left) * (fx(x) - xlo) / ((xhi - xlo) or 1.0)

    def sy(logv):
        return bottom - (bottom - top) * (logv - ylo) / (yhi - ylo)

    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="600" height="340"'
           ' font-family="sans-serif" font-size="10">',
           f'<rect x="{left}" y="{top}" width="{right - left}" '
           f'height="{bottom - top}" fill="none" stroke="black"/>',
           f'<text x="{(left + right) / 2:.1f}" y="328" '
           f'text-anchor="middle">{escape(xlabel)}</text>',
           f'<text transform="rotate(-90)" x="{-(top + bottom) / 2:.1f}" '
           'y="16" text-anchor="middle">median recovery error</text>']
    for x in xticks:
        out.append(f'<text x="{sx(x):.2f}" y="{bottom + 14}" '
                   f'text-anchor="middle">{escape(_fmt(x))}</text>')
    for k in range(ylo, yhi + 1):
        out.append(f'<text x="{left - 4}" y="{sy(k) + 3:.2f}" '
                   f'text-anchor="end">1e{k}</text>')
    for i, (label, p) in enumerate(pts.items()):
        color = _PALETTE[i % len(_PALETTE)]
        xy = [(sx(x), sy(math.log10(y))) for x, y in p]
        out.append('<polyline fill="none" stroke="%s" points="%s"/>' % (
            color, " ".join(f"{a:.2f},{b:.2f}" for a, b in xy)))
        out.extend(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="2.5" '
                   f'fill="{color}"/>' for a, b in xy)
        ly = top + 8 + 14 * i
        out.append(f'<line x1="{right + 12}" y1="{ly}" x2="{right + 32}" '
                   f'y2="{ly}" stroke="{color}"/><text x="{right + 36}" '
                   f'y="{ly + 3}">{escape(label)}</text>')
    out.append("</svg>\n")
    return "\n".join(out)


def _plot_medians(medians: list, out_dir: str) -> list:
    """SVG line plots of median final error vs n (error_vs_n.svg, written
    when the medians hold more than one n) and vs M (error_vs_m.svg, more
    than one M): one polyline per (rank, init, algorithm) series, split
    further by the other axis's value when that axis has more than one.
    The bytes depend only on the medians.  Returns the written paths."""
    written = []
    axes = (("n", "shots", "M", "error_vs_n.svg", "number of sites n"),
            ("shots", "n", "n", "error_vs_m.svg", "shots M"))
    for axis, other, other_name, fname, xlabel in axes:
        if len({med[axis] for med in medians}) < 2:
            continue
        split = len({med[other] for med in medians}) > 1
        series = {}
        for med in medians:
            label = f"r={med['rank']} {med['init']} {med['algorithm']}"
            if split:
                label += f" {other_name}={_fmt(med[other])}"
            series.setdefault(label, []).append((med[axis],
                                                 med["median_final_error"]))
        series = {label: sorted(pts) for label, pts in series.items()}
        path = os.path.join(out_dir, fname)
        with open(path, "w") as fh:
            fh.write(_svg_plot(series, xlabel, xlog=axis == "shots"))
        written.append(path)
    return written


def run_experiment(spec: ExperimentSpec, out_dir: str) -> dict:
    """Execute all cells (skipping completed ones), then write results.csv,
    medians.csv, provenance.json, and SVG plots into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    cells_dir = os.path.join(out_dir, "cells")
    os.makedirs(cells_dir, exist_ok=True)
    cells = list(iter_cells(spec))
    cells_run = 0
    for cell in cells:
        path = os.path.join(cells_dir, cell_key(cell) + ".json")
        if os.path.exists(path):
            continue
        row = run_cell(spec, cell)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"cell": cell, "row": asdict(row)}, fh)
        os.replace(tmp, path)
        cells_run += 1

    rows = []
    for cell in cells:
        path = os.path.join(cells_dir, cell_key(cell) + ".json")
        with open(path) as fh:
            data = json.load(fh)
        rows.append(ResultRow(**data["row"]))
    results_path = os.path.join(out_dir, "results.csv")
    ordered = sorted(rows, key=lambda r: (r.n, r.shots, r.rank, r.init,
                                          r.algorithm, r.seed_index))
    _write_table(results_path, _provenance(spec),
                 [f.name for f in fields(ResultRow)], map(astuple, ordered))
    medians = aggregate_medians(rows)
    medians_path = os.path.join(out_dir, "medians.csv")
    _write_table(medians_path, _provenance(spec), list(medians[0]),
                 [list(med.values()) for med in medians])
    with open(os.path.join(out_dir, "provenance.json"), "w") as fh:
        json.dump({"version": __version__, "spec_sha256": spec.sha256(),
                   "seed": spec.base_seed,
                   "spec": spec.to_json_dict()}, fh, indent=2,
                  sort_keys=True)
    plots = _plot_medians(medians, out_dir)
    return {"rows": rows, "medians": medians, "results_csv": results_path,
            "medians_csv": medians_path, "plots": plots,
            "cells_run": cells_run, "cells_total": len(cells)}
