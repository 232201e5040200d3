"""Constrained least-squares state estimator.

Minimizes  g(rho) = || A(rho) - p_hat ||_2^2  over unit-trace Hermitian
MPOs of fixed ranks by projected gradient descent: each step follows the
conjugate-coordinate (Wirtinger) gradient

    grad g(rho) = sum_k (<A_k, rho> - p_hat_k) A_k

and projects back by TT rounding to the target ranks and trace
normalization rho / trace(rho).

Every operator on that path (the iterate, both gradient terms, each PSGD
batch gradient) is Hermitian, so a real TT of the same ranks in a real
orthonormal basis of the Hermitian d x d matrices (tt.hermitian_basis).
The estimator runs in those float64 coordinates, Hermitian by
construction; fused operators enter as their Hermitian part.

The gradient splits into an iteration-dependent channel term
sum_k <A_k, rho> A_k (a site-local superoperator, rank-preserving) and a
data term E = sum_k p_hat_k A_k that is fixed for a given record.  The
record's outcome prefix tree, which povm.py builds and alone reads, gives
E (povm._trie_tt: an exact MPO whose bond R grows with the number of
distinct outcomes), the Gram matrices of its right parts
(povm._trie_grams, with no product over E's mostly-zero dense cores) and
the loss's cross term <E, rho> (povm._trie_amplitudes).  E is never
orthogonalized: each step rounds rho - mu Phi(rho) + mu E from its Grams
with ``tt_round_sum``, one eigenproblem of size r d^2 per bond at O(n
d^2 r R^2) per step instead of the O(n d^2 R^3) of rounding the whole
sum.  Each PSGD batch step rounds rho - mu grad the same way, from the
TT (povm._trie_tt) and Grams (povm._trie_grams) of the batch's own
rows, unshared (povm._row_trie).  Traces come from
tt.tt_coordinate_trace: this module reads no tree id and no coordinate
position.

One loop (``_descend``) runs PGD on MPOs, PGD on dense matrices (the
reference backend for small n) and PSGD.  It owns the step schedule,
the divergence checks, the iterate checks, the trace rows and the
plateau stop; each algorithm supplies only its start, its loss and its
step.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .povm import (
    ProductPOVM,
    _outcome_indices,
    _outcome_trie,
    _row_trie,
    _Trie,
    _trie_amplitudes,
    _trie_grams,
    _trie_tt,
    dense_from_product,
    measure_map_dense,
    sum_channel,
)
from .sampling import _stream
from .states import MPDOGenConfig, kappa_for_rank, random_mpdo
from .tt import (
    DenseOperator,
    NumericalError,
    TTTensor,
    _orthogonalize_left,
    _orthogonalize_right,
    cap_ranks,
    max_tt_ranks,
    tt_add,
    tt_coordinate_trace,
    tt_from_dense,
    tt_from_hermitian_coordinates,
    tt_inner,
    tt_norm,
    tt_round,
    tt_round_sum,
    tt_scale,
    tt_sub,
    tt_to_dense,
    tt_to_hermitian_coordinates,
    tt_zeros,
)

TRACE_FLOOR = 1e-8

# Step-size presets (mu is mu0 * 2^n * lam^tau unless scale_2n is off).
# The diminishing schedules suit fixed-M runs; the fixed-step variants
# (lam = 1) suit sweeps over the shot count.
STEP_PRESETS = {
    "pgd-random-rank1": dict(mu0=5 / 4, lam=0.9, scale_2n=True),
    "pgd-random-rank4": dict(mu0=5 / 8, lam=0.9, scale_2n=True),
    "pgd-spectral-rank1": dict(mu0=5 / 8, lam=0.9, scale_2n=True),
    "pgd-spectral-rank4": dict(mu0=5 / 16, lam=0.9, scale_2n=True),
    "pgd-fixed-random": dict(mu0=5 / 32, lam=1.0, scale_2n=True),
    "pgd-fixed-spectral": dict(mu0=1 / 16, lam=1.0, scale_2n=True),
    "psgd-random": dict(mu0=5 / 4, lam=0.9, scale_2n=True),
    "psgd-spectral": dict(mu0=10.0, lam=0.9, scale_2n=False),
}


def preset_schedule(algorithm: str, init: str, max_rank: int) -> dict:
    """Named step-size schedule for an (algorithm, init, rank) setting."""
    if algorithm == "psgd":
        return dict(STEP_PRESETS["psgd-spectral" if init == "spectral"
                                 else "psgd-random"])
    suffix = "rank1" if max_rank <= 1 else "rank4"
    kind = "spectral" if init == "spectral" else "random"
    return dict(STEP_PRESETS[f"pgd-{kind}-{suffix}"])


def _is_number(value, kind) -> bool:
    """isinstance(value, kind), but False for a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class EstimatorConfig:
    """Estimator hyperparameters.

    ranks may be a single max rank or an explicit internal rank vector;
    either is clipped to the structural caps.  Ranks, iteration counts,
    sizes and the seed must be integers (the seed in [0, 2**63), as
    every seed of the package), mu0, lam and the tolerances
    numbers (mu0 positive and finite, the tolerances finite and >= 0)
    and the switches booleans (ValueError otherwise).
    """

    ranks: object = 1
    mu0: float = 5 / 4
    lam: float = 0.9
    scale_2n: bool = True
    max_iters: int = 200
    init: str = "random"  # spectral | random | provided
    init_seed: int = 0
    init_state: TTTensor = None
    backend: str = "tt"  # tt | dense
    epoch_size: int = None  # N; defaults to 10 d^2 n rbar^2 clipped to [U, K]
    batch_size: int = 32  # B
    tt_round_tol: float = None  # extra tolerance compression per projection
    max_epochs: int = 50
    plateau_rel_tol: float = 1e-10
    plateau_window: int = 10
    record_trace: bool = True
    check_iterates: bool = False

    def __post_init__(self):
        # lower bounds of the integer fields; epoch_size may be None
        counts = {"max_iters": 0, "max_epochs": 0, "batch_size": 1,
                  "epoch_size": 1, "plateau_window": 1, "init_seed": 0}
        for name, low in counts.items():
            value = getattr(self, name)
            if value is None and name == "epoch_size":
                continue
            if not _is_number(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.init_seed >= 2 ** 63:
            raise ValueError("init_seed must be < 2**63")
        for name in ("mu0", "lam", "plateau_rel_tol", "tt_round_tol"):
            value = getattr(self, name)
            if not (value is None and name == "tt_round_tol"
                    or _is_number(value, numbers.Real)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        for name in ("scale_2n", "record_trace", "check_iterates"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be true or false, got "
                                 f"{getattr(self, name)!r}")
        if not 0 < self.mu0 < float("inf"):
            raise ValueError("mu0 must be positive and finite")
        for name in ("plateau_rel_tol", "tt_round_tol"):  # None is 0 here
            if not 0 <= (getattr(self, name) or 0) < float("inf"):
                raise ValueError(f"{name} must be finite and >= 0")
        ranks = (self.ranks if isinstance(self.ranks, (list, tuple))
                 else [self.ranks])
        if not all(_is_number(r, numbers.Integral) and r >= 1
                   for r in ranks):
            raise ValueError("ranks must be a positive integer or a list "
                             f"of them, got {self.ranks!r}")
        if not 0 < self.lam <= 1:
            raise ValueError("lam must be in (0, 1]")
        if self.init not in ("spectral", "random", "provided"):
            raise ValueError(f"unknown init {self.init!r}")
        if self.backend not in ("tt", "dense"):
            raise ValueError(f"unknown backend {self.backend!r}")

    def rank_vector(self, n: int, d: int) -> tuple:
        return cap_ranks(self.ranks, n, d)

    @classmethod
    def json_fields(cls, data, what: str) -> dict:
        """A copy of ``data``, checked to be a JSON object of valid
        EstimatorConfig fields other than init_state (a state file sets
        that); ValueError naming ``what`` otherwise (TypeError for an
        unknown field)."""
        if not isinstance(data, dict):
            raise ValueError(f"{what} must be a JSON object")
        if "init_state" in data:
            raise ValueError(f"init_state cannot be set in {what}")
        cls(**data)  # the fields' own checks
        return dict(data)


@dataclass(frozen=True)
class IterateStats:
    iteration: int
    loss: float
    error: float  # nan when no ground truth supplied
    step: float
    wall_ms: float


@dataclass
class Estimate:
    """Recovered state plus per-iterate diagnostics."""

    state: TTTensor
    trace_log: list
    iterations_run: int
    converged_reason: str
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# sparse outcome sums as exact MPOs


def outcome_sum_tt(outcomes, weights, povm: ProductPOVM) -> TTTensor:
    """Exact MPO for sum_k w_k B_{i_1(k)} x ... x B_{i_n(k)}, built on the
    outcome prefix tree (see povm._trie_tt) from the fused() rows.  Bonds
    may pass the structural caps when k_loc > d^2; tt_round cuts them."""
    return _trie_tt(_outcome_trie(outcomes, weights, povm, povm.fused()))


def empirical_operator(record, povm: ProductPOVM) -> TTTensor:
    """The adjoint-map image E = sum_k p_hat_k A_k of the recorded
    weights, returned right-orthogonal: cores 2..n have orthonormal rows
    (a right-to-left QR sweep, after a left-to-right one cuts any bond
    over its structural cap).  ValueError when a POVM element is not
    Hermitian."""
    trie = _outcome_trie(record.outcomes, record.p_hat, povm,
                         povm.hermitian_coordinates())
    cores = list(_trie_tt(trie).cores)
    dd = povm.d * povm.d
    if any(c.shape[2] > cap
           for c, cap in zip(cores, max_tt_ranks(povm.n, povm.d))):
        _orthogonalize_left(cores, dd)
    _orthogonalize_right(cores, dd)
    return tt_from_hermitian_coordinates(TTTensor(tuple(cores), d=povm.d))


# ---------------------------------------------------------------------------
# loss


def _loss(rho, trie: _Trie, povm: ProductPOVM) -> tuple:
    """(g(rho), Phi(rho)) in the basis of the record's prefix tree
    (weights p_hat): g = <rho, Phi(rho)> - 2 <E, rho> + sum p_hat^2, the
    cross term from _trie_amplitudes, so no E is read."""
    channel = sum_channel(povm, rho, trie.local)
    w = trie.weights
    cross = (w @ _trie_amplitudes(trie, rho)).real
    quad = tt_inner(rho, channel).real
    return float(max(quad - 2.0 * cross + w @ w, 0.0)), channel


def loss(state: TTTensor, record, povm: ProductPOVM) -> float:
    """|| A(rho) - p_hat ||_2^2 without enumerating zero-count outcomes:
    <rho, Phi(rho)> - 2 <E, rho> + sum p_hat^2 with Phi the measurement
    channel, the cross term from the amplitudes of the record's outcomes
    (see _loss).  An empty record gives <rho, Phi(rho)>."""
    trie = _outcome_trie(record.outcomes, record.p_hat, povm, povm.fused())
    return _loss(state, trie, povm)[0]


def _dense_weights(record, povm: ProductPOVM) -> np.ndarray:
    """The record's p_hat as a flat K-vector in lexicographic outcome
    order (zero for unobserved outcomes)."""
    p_hat = np.zeros(povm.k_total)
    idx = _outcome_indices(povm, record.outcomes)
    p_hat[np.ravel_multi_index(idx.T, povm.k_locs)] = record.p_hat
    return p_hat


def loss_dense(state: DenseOperator, record, povm: ProductPOVM) -> float:
    """Direct K-vector evaluation for cross-checks (small n)."""
    residual = measure_map_dense(povm, state) - _dense_weights(record, povm)
    return float(residual @ residual)


# ---------------------------------------------------------------------------
# projection


def project_mpo(raw, ranks, d: int = 2, round_tol: float = None) -> TTTensor:
    """Projection onto unit-trace Hermitian MPOs of the given ranks: the
    Hermitian part (raw + raw^dag)/2 in real coordinates, rounded once to
    the target ranks, then divided by the trace; returned fused.  A dense
    input (DenseOperator or array) is first decomposed at those ranks.

    An optional round_tol compresses further below the target ranks when
    the iterate allows it, trading a relative error of that size for
    smaller bonds.
    """
    if isinstance(raw, np.ndarray):
        raw = DenseOperator.from_matrix(raw, d=d)
    if isinstance(raw, DenseOperator):
        raw = tt_from_dense(raw, target_ranks=cap_ranks(ranks, raw.n, raw.d))
    return tt_from_hermitian_coordinates(
        _project(tt_to_hermitian_coordinates(raw), ranks, round_tol))


def _project(x: TTTensor, ranks, round_tol: float = None,
             data: TTTensor = None, grams: list = None) -> TTTensor:
    """project_mpo in coordinates, of x plus ``data`` when given, rounded
    by tt_round_sum from data's right Gram matrices ``grams``.  The data
    is a scaled E, with the _trie_grams of the record's prefix tree, or a
    scaled PSGD batch gradient, with the _trie_grams of the batch's
    unshared rows."""
    capped = cap_ranks(ranks, x.n, x.d)
    if data is None:
        x = tt_round(x, target_ranks=capped)
    else:
        x = tt_round_sum(x, data, grams, capped)
    if round_tol is not None:
        x = tt_round(x, truncation_tol=round_tol)
    tr = tt_coordinate_trace(x)
    if abs(tr) < TRACE_FLOOR:
        raise NumericalError(
            f"trace {abs(tr):.3e} below {TRACE_FLOOR}; normalization "
            "is degenerate")
    return tt_scale(x, 1.0 / tr)


# ---------------------------------------------------------------------------
# initialization


def spectral_init(record, povm: ProductPOVM, ranks) -> TTTensor:
    """Project the rescaled adjoint map K (d^n + 1) / d^n sum p_hat_k A_k
    of the empirical probabilities onto the constraint set."""
    trie = _outcome_trie(record.outcomes, record.p_hat, povm,
                         povm.hermitian_coordinates())
    return tt_from_hermitian_coordinates(_initial_state(
        trie, povm, EstimatorConfig(init="spectral"), ranks))


def _random_mpdo(ranks, n: int, d: int, seed: int) -> TTTensor:
    """The random PSD MPO with Kraus bond ceil(sqrt(rbar)) that the
    random start projects."""
    kappa = kappa_for_rank(int(max(np.atleast_1d(ranks), default=1)))
    return random_mpdo(MPDOGenConfig(n=n, kappa=kappa, purity=10,
                                     seed=seed, d=d))


def random_init(ranks, n: int, d: int, seed: int) -> TTTensor:
    """Random mixed-state start: a random PSD MPO with Kraus bond
    ceil(sqrt(rbar)), projected to the requested ranks."""
    return project_mpo(_random_mpdo(ranks, n, d, seed), ranks)


def _initial_state(trie: _Trie, povm, config: EstimatorConfig, ranks,
                   data: tuple = None) -> TTTensor:
    """The start in coordinates.  The spectral start rounds the scaled E
    through its Grams: ``data``, (_trie_tt(trie), _trie_grams(trie)) of
    the record's prefix tree, is built here when not given."""
    if config.init == "spectral":
        empirical, grams = data or (_trie_tt(trie), _trie_grams(trie))
        n, d = povm.n, povm.d
        scale = povm.k_total * (d ** n + 1) / d ** n
        return _project(tt_zeros(n, d), ranks,
                        data=tt_scale(empirical, scale), grams=grams)
    if config.init == "provided":
        if config.init_state is None:
            raise ValueError("init='provided' requires init_state")
        raw = config.init_state
    else:
        raw = _random_mpdo(ranks, povm.n, povm.d, config.init_seed)
    return _project(tt_to_hermitian_coordinates(raw), ranks)


# ---------------------------------------------------------------------------
# error metric and physical projection


def recovery_error(a: TTTensor, b: TTTensor) -> float:
    """Frobenius distance ||a - b||_F, by the backward-stable tt_norm of
    the difference, so it stays accurate near zero where Gram terms
    would cancel."""
    return tt_norm(tt_sub(a, b))


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, len(v) + 1)
    k = idx[u - (css - 1.0) / idx > 0][-1]
    tau = (css[k - 1] - 1.0) / k
    return np.maximum(v - tau, 0.0)


def psd_project(state) -> DenseOperator:
    """Nearest physical state: eigenvalues projected onto the simplex.

    The eigenbasis is kept; the output is PSD with unit trace, and the map
    is non-expansive in Frobenius norm (projection onto a convex set)."""
    if isinstance(state, np.ndarray):
        state = DenseOperator.from_matrix(state)
    if not state.is_hermitian(1e-10):
        raise ValueError("psd_project requires a Hermitian input")
    evals, vecs = np.linalg.eigh(state.matrix)
    projected = project_to_simplex(evals)
    matrix = (vecs * projected) @ vecs.conj().T
    return DenseOperator(matrix=matrix, n=state.n, d=state.d)


# ---------------------------------------------------------------------------
# the descent loop


def _step_size(config: EstimatorConfig, n: int, tau: int) -> float:
    mu = config.mu0 * (config.lam ** tau)
    if config.scale_2n:
        mu *= 2.0 ** n
    return mu


def _plateaued(losses, window: int, rel_tol: float) -> bool:
    if len(losses) < window + 1:
        return False
    recent = losses[-(window + 1):]
    for prev, cur in zip(recent, recent[1:]):
        if abs(cur - prev) > rel_tol * max(abs(prev), 1e-300):
            return False
    return True


def _check_iterate(x: TTTensor):
    """NumericalError unless the coordinate iterate x has finite float64
    cores and trace 1 within 1e-10; real coordinates make it Hermitian."""
    for l, core in enumerate(x.cores):
        if core.dtype != np.float64 or not np.isfinite(core).all():
            raise NumericalError(f"iterate core {l + 1} is not finite "
                                 "float64")
    tr = tt_coordinate_trace(x)
    if abs(tr - 1.0) > 1e-10:
        raise NumericalError(f"iterate trace {tr} deviates from 1")


def _log_row(log, iteration, loss_val, state, truth, step, t0):
    err = (recovery_error(tt_from_hermitian_coordinates(state), truth)
           if truth is not None else float("nan"))
    log.append(IterateStats(iteration=iteration, loss=loss_val, error=err,
                            step=step,
                            wall_ms=(time.perf_counter() - t0) * 1e3))


def _descend(record, povm: ProductPOVM, config: EstimatorConfig, truth,
             algorithm: str, prepare) -> Estimate:
    """The one descent loop, shared by PGD on either backend and PSGD.

    ``prepare(record, trie, povm, config, ranks)``, ``trie`` the record's
    prefix tree in coordinates, returns (state, loss_of, step, extra):
    the start, a map of an iterate to (its loss, aux), a generator
    ``step(state, k, mu, aux)`` of the iterates of outer step k (one for
    PGD, one per batch for PSGD's epoch k) and extra metadata.  The loop
    owns the step schedule mu0 * 2^n * lam^k, checks every iterate when
    check_iterates is set, logs a row per outer step and stops on the
    budget (max_iters, for PSGD max_epochs) or a loss plateau.  A failed
    decomposition or a non-finite loss raises NumericalError naming the
    outer step (iteration or epoch) and its step size; an empty record
    or a non-Hermitian POVM element, ValueError.

    Iterates are coordinate TTs, and the checks read them as they are;
    the rows' error and the returned state see their fused map-back.

    ``aux`` is what loss_of computed on the way for the step's start: the
    TT paths' channel term, the dense path's matrix and probabilities.
    """
    if not len(record.p_hat):
        raise ValueError("record is empty: no outcomes to fit")
    n = povm.n
    ranks = config.rank_vector(n, povm.d)
    if algorithm == "psgd":
        unit, limit, reason = "epoch", config.max_epochs, "max_epochs"
    else:
        unit, limit, reason = "iteration", config.max_iters, "max_iters"
    t0 = time.perf_counter()
    trie = _outcome_trie(record.outcomes, record.p_hat, povm,
                         povm.hermitian_coordinates())
    state, loss_of, step, extra = prepare(record, trie, povm, config, ranks)
    log = []
    cur_loss, aux = loss_of(state)
    _log_row(log, 0, cur_loss, state, truth, float("nan"), t0)
    losses = [cur_loss]
    iterations = 0
    for k in range(limit):
        mu = _step_size(config, n, k)
        try:
            for state in step(state, k, mu, aux):
                iterations += 1
                if config.check_iterates:
                    _check_iterate(state)
            cur_loss, aux = loss_of(state)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"decomposition failed at {unit} {k + 1} "
                f"(step {mu:.3g} too large): {exc}") from exc
        if not np.isfinite(cur_loss):
            raise NumericalError(
                f"non-finite loss at {unit} {k + 1} "
                f"(step {mu:.3g} too large)")
        if config.record_trace:
            _log_row(log, iterations, cur_loss, state, truth, mu, t0)
        losses.append(cur_loss)
        if _plateaued(losses, config.plateau_window, config.plateau_rel_tol):
            reason = "loss_plateau"
            break
    return Estimate(state=tt_from_hermitian_coordinates(state),
                    trace_log=log,
                    iterations_run=iterations,
                    converged_reason=reason,
                    metadata={"algorithm": algorithm,
                              "backend": config.backend,
                              "ranks": list(ranks), **extra,
                              "final_loss": losses[-1]})


def pgd(record, povm: ProductPOVM, config: EstimatorConfig,
        truth: TTTensor = None) -> Estimate:
    """Full-gradient projected descent with the diminishing step schedule
    mu_tau = mu0 * 2^n * lam^tau.  Stops on max_iters or when the relative
    loss change stays within plateau_rel_tol over plateau_window
    iterations.  Raises NumericalError on a failed decomposition or a
    non-finite loss (step too large), reporting the offending iteration;
    ValueError on either backend for a non-Hermitian POVM element."""
    prepare = _dense_pgd if config.backend == "dense" else _tt_pgd
    return _descend(record, povm, config, truth, "pgd", prepare)


def _tt_pgd(record, trie, povm, config, ranks):
    """PGD on MPOs: E and its right Gram matrices once, from the
    record's prefix tree, then each step rounds rho - mu Phi(rho) + mu E
    through them.  The loss and the next step share one sum_channel per
    iterate."""
    emp, grams = _trie_tt(trie), _trie_grams(trie)
    state = _initial_state(trie, povm, config, ranks, (emp, grams))

    def step(rho, k, mu, channel):
        yield _project(tt_add(rho, tt_scale(channel, -mu)), ranks,
                       config.tt_round_tol, data=tt_scale(emp, mu),
                       grams=grams)

    loss_of = partial(_loss, trie=trie, povm=povm)
    return state, loss_of, step, {}


def _dense_pgd(record, trie, povm, config, ranks):
    """Dense-matrix reference path: materialized POVM elements, explicit
    gradient, identical projection.  Cross-check backend for small n."""
    n, d = povm.n, povm.d
    elements = np.stack(dense_from_product(povm).elements)
    state = _initial_state(trie, povm, config, ranks)
    p_hat = _dense_weights(record, povm)

    def loss_of(rho):
        dense = tt_to_dense(tt_from_hermitian_coordinates(rho)).matrix
        probs = np.einsum("kij,ij->k", elements.conj(), dense).real
        return float(((probs - p_hat) ** 2).sum()), (dense, probs)

    def step(rho, k, mu, aux):
        dense, probs = aux
        grad = np.einsum("k,kij->ij", probs - p_hat, elements)
        raw = tt_from_dense(DenseOperator(dense - mu * grad, n=n, d=d),
                            target_ranks=ranks)
        yield _project(tt_to_hermitian_coordinates(raw), ranks,
                       config.tt_round_tol)

    return state, loss_of, step, {}


def _zero_outcome_filler(povm: ProductPOVM, nonzero, count: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Seeded choice of zero-count outcomes to pad a stochastic epoch, as
    a (count, n) matrix of 1-based indices (fewer rows when fewer
    outcomes are free).  ``nonzero`` holds the observed outcomes as rows.

    Up to 2^20 outcomes, the pool is every outcome outside ``nonzero`` in
    lexicographic order, and ``count`` of them are drawn without
    replacement; beyond that, outcomes are drawn by rejection, the rows
    still needed as one block per pass."""
    k_locs = povm.k_locs
    if count <= 0:
        return np.zeros((0, povm.n), dtype=np.intp)
    if povm.k_total <= 2 ** 20:
        free = np.ones(povm.k_total, dtype=bool)
        observed = _outcome_indices(povm, nonzero)
        free[np.ravel_multi_index(observed.T, k_locs)] = False
        pool = np.flatnonzero(free)
        take = min(count, len(pool))
        chosen = rng.choice(len(pool), size=take, replace=False)
        picked = np.unravel_index(pool[np.sort(chosen)], k_locs)
        return np.stack(picked, axis=1) + 1
    # Generator.integers takes each entry from the same 32-bit stream
    # whatever the call's shape, and a block of the rows still needed ends
    # no later than a row-by-row loop would: the draws and the generator
    # state after them are those of one call per row
    chosen = []
    seen = set(map(tuple, np.asarray(nonzero).tolist()))
    high = np.array(k_locs) + 1
    while len(chosen) < count:
        block = rng.integers(1, high, size=(count - len(chosen), povm.n))
        for outcome in map(tuple, block.tolist()):
            if outcome not in seen:
                seen.add(outcome)
                chosen.append(outcome)
    return np.array(chosen, dtype=np.intp)


def psgd(record, povm: ProductPOVM, config: EstimatorConfig,
         truth: TTTensor = None) -> Estimate:
    """Stochastic variant: each epoch assembles a subset of N outcomes
    containing every nonzero-count outcome plus seeded zero-count filler,
    then runs floor(N/B) iterations on sequential batches of B, each using
    the partial gradient sum_{k in batch} (<A_k, rho> - p_hat_k) A_k, a
    TT of rank B with diagonal cores (povm._row_trie) whose right Gram
    matrices are Hadamard products; each step rounds rho - mu grad from
    those Grams, as PGD rounds against E's.

    The nonzero outcomes are deliberately oversampled relative to a
    uniform pass over all K outcomes, and the batch gradient is used
    unscaled; the decaying step absorbs the resulting scale.  The step
    schedule decays per epoch (each epoch makes one effective pass), so
    iteration tau within epoch e uses mu0 * 2^n * lam^e.  MPOs only:
    ValueError for the dense backend.
    """
    if config.backend == "dense":
        raise ValueError("psgd runs on the tt backend only")
    return _descend(record, povm, config, truth, "psgd", _psgd)


def _psgd(record, trie, povm, config, ranks):
    """PSGD's epoch sizing, its loss (the TT paths' _loss) and its epochs
    of batch steps.  Each batch's rows give its amplitudes, its
    gradient and that gradient's right Gram matrices, from which
    _project rounds rho - mu grad by tt_round_sum."""
    n, d = povm.n, povm.d
    observed, p_obs = record.outcomes, record.p_hat
    n_obs = len(p_obs)
    max_rank = max(ranks, default=1)
    if config.epoch_size is not None:
        n_epoch = config.epoch_size
        if not n_obs <= n_epoch <= povm.k_total:
            raise ValueError(f"epoch_size {n_epoch} not between the nonzero "
                             f"outcome count {n_obs} and K={povm.k_total}")
    else:
        n_epoch = min(max(10 * d * d * n * max_rank ** 2, n_obs),
                      povm.k_total)
    batch = min(config.batch_size, n_epoch)
    state = _initial_state(trie, povm, config, ranks)

    def step(rho, epoch, mu, _channel):
        rng = _stream(config.init_seed, 0xE0C + epoch)
        filler = _zero_outcome_filler(povm, observed, n_epoch - n_obs, rng)
        subset = _outcome_indices(povm, np.concatenate([observed, filler]))
        subset_p = np.concatenate([p_obs, np.zeros(len(filler))])
        order = rng.permutation(len(subset))
        for it in range(len(subset) // batch):
            pick = order[it * batch:(it + 1) * batch]
            rows, p_hat = subset[pick], subset_p[pick]
            amps = _trie_amplitudes(
                _row_trie(rows, np.ones(len(rows)), trie.local), rho)
            part = _row_trie(rows, amps - p_hat, trie.local)
            rho = _project(rho, ranks, config.tt_round_tol,
                           data=tt_scale(_trie_tt(part), -mu),
                           grams=_trie_grams(part))
            yield rho

    loss_of = partial(_loss, trie=trie, povm=povm)
    return state, loss_of, step, {"epoch_size": n_epoch, "batch_size": batch}
