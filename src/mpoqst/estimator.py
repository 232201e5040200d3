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
data term E = sum_k p_hat_k A_k that is fixed for a given record.  E is
assembled once as an exact MPO whose bond bases are the distinct observed
outcome prefixes/suffixes, so its bond R grows with the number of
distinct outcomes, and it is right-orthogonalized once per run.  Each step
rounds rho - mu Phi(rho) + mu E with ``tt_round_sum``: only the rank-2r
part is orthogonalized against E's fixed orthonormal rows, which costs
O(n d^2 r R^2) per step instead of the O(n d^2 R^3) of rounding the whole
sum.  PGD's spectral initialization and loss cross term <E, rho> read the
same E; PSGD builds none and takes the cross term from the amplitudes
of the record's observed outcomes.

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

import numpy as np

from .povm import (
    ProductPOVM,
    _outcome_indices,
    dense_from_product,
    measure_map_dense,
    outcome_amplitudes,
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
    numbers (mu0 positive and finite) and the switches booleans
    (ValueError otherwise).
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


def _trie_cores(outcomes, weights, povm: ProductPOVM, local: list) -> list:
    """Cores of the exact MPO sum_k w_k v_{i_1(k)} x ... x v_{i_n(k)},
    where local[l] holds site l's vectors v_i as rows (k_loc, d*d) and
    sets the cores' dtype.

    Bond bases are the distinct outcome prefixes left of a bridge site and
    the distinct suffixes right of it, so the representation is exact with
    bond dimensions min(#prefixes, #suffixes) and never grows with the
    number of terms beyond the enumeration caps.

    The bases come from group ids over the lexicographically sorted
    (U, n) outcome matrix: a prefix id is the number of prefix changes
    down the sorted rows, and the suffix ids are ranked from the right,
    each column sorted together with the ids of the suffix after it.  The
    cores are filled by scatter, the bridge core by accumulation in sorted
    outcome order.
    """
    n = povm.n
    dd = povm.d * povm.d
    rows = _outcome_indices(povm, outcomes)
    if not len(rows):
        raise ValueError("need at least one outcome")
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    weights = np.asarray(weights)[order]
    u = len(rows)
    bridge = (n + 1) // 2  # 1-based site carrying the weights
    dtype = local[0].dtype

    # prefix[l]: id of each row's length-l prefix (l < bridge), and
    # first[l]: the first row of each distinct prefix, in id order
    prefix, first = [np.zeros(u, dtype=np.intp)], [np.zeros(1, np.intp)]
    changed = np.zeros(u, dtype=bool)
    for l in range(1, bridge):
        changed[1:] |= rows[1:, l - 1] != rows[:-1, l - 1]
        prefix.append(np.cumsum(changed))
        first.append(np.flatnonzero(np.diff(prefix[-1], prepend=-1)))
    # suffix[c]: id of each row's suffix from column c (c >= bridge), and
    # rep[c]: one row of each distinct suffix, in id order
    suffix = {n: np.zeros(u, dtype=np.intp)}
    rep = {n: np.zeros(1, dtype=np.intp)}
    for c in range(n - 1, bridge - 1, -1):
        by = np.lexsort((suffix[c + 1], rows[:, c]))
        new = np.ones(u, dtype=bool)
        new[1:] = ((rows[by[1:], c] != rows[by[:-1], c])
                   | (suffix[c + 1][by[1:]] != suffix[c + 1][by[:-1]]))
        suffix[c] = np.empty(u, dtype=np.intp)
        suffix[c][by] = np.cumsum(new) - 1
        rep[c] = by[new]

    cores = []
    for l in range(1, n + 1):
        vec, col = local[l - 1], rows[:, l - 1]
        if l < bridge:
            take = first[l]
            core = np.zeros((len(first[l - 1]), dd, len(take)), dtype=dtype)
            core[prefix[l - 1][take], :, np.arange(len(take))] = vec[col[take]]
        elif l == bridge:
            core = np.zeros((len(first[l - 1]), dd, len(rep[l])), dtype=dtype)
            np.add.at(core, (prefix[l - 1], slice(None), suffix[l]),
                      weights[:, None] * vec[col])
        else:
            take = rep[l - 1]
            core = np.zeros((len(take), dd, len(rep[l])), dtype=dtype)
            core[np.arange(len(take)), :, suffix[l][take]] = vec[col[take]]
        cores.append(core)
    return cores


def outcome_sum_tt(outcomes, weights, povm: ProductPOVM,
                   local=None) -> TTTensor:
    """Exact MPO for sum_k w_k B_{i_1(k)} x ... x B_{i_n(k)}, built on the
    outcome prefix tree (see _trie_cores).  ``local[l]`` holds site l's
    element rows in the basis of the result's physical legs, by default
    the fused() rows.  Bonds may pass the structural caps when
    k_loc > d^2; tt_round cuts them."""
    if local is None:
        local = povm.fused()
    return TTTensor(tuple(_trie_cores(outcomes, weights, povm, local)),
                    d=povm.d)


def _empirical_coordinates(record, povm: ProductPOVM) -> TTTensor:
    """E = sum_k p_hat_k A_k as a right-orthogonal real coordinate TT.

    p_hat is real and every A_k Hermitian, so the prefix-tree cores are
    built in the real coordinates of tt.hermitian_basis and orthogonalized
    in float64.  A bond over its structural cap (k_loc > d^2) is first cut
    down by a left-to-right QR sweep."""
    cores = _trie_cores(record.outcomes, record.p_hat, povm,
                        povm.hermitian_coordinates())
    dd = povm.d * povm.d
    if any(c.shape[2] > cap
           for c, cap in zip(cores, max_tt_ranks(povm.n, povm.d))):
        _orthogonalize_left(cores, dd)
    _orthogonalize_right(cores, dd)
    return TTTensor(tuple(cores), d=povm.d)


def empirical_operator(record, povm: ProductPOVM) -> TTTensor:
    """The adjoint-map image E = sum_k p_hat_k A_k of the recorded
    weights, returned right-orthogonal: cores 2..n have orthonormal rows,
    as tt_right_orthogonalize gives them.  ValueError when a POVM element
    is not Hermitian."""
    return tt_from_hermitian_coordinates(_empirical_coordinates(record, povm))


# ---------------------------------------------------------------------------
# loss


def _loss_from_parts(state, channel, cross: float, weight_sq: float) -> float:
    """The loss from its three terms: <rho, Phi(rho)>, the cross term
    <E, rho> and sum p_hat^2."""
    quad = tt_inner(state, channel).real
    return max(quad - 2.0 * cross + weight_sq, 0.0)


def loss(state: TTTensor, record, povm: ProductPOVM) -> float:
    """|| A(rho) - p_hat ||_2^2 without enumerating zero-count outcomes:
    <rho, Phi(rho)> - 2 <data, rho> + sum p_hat^2 with Phi the measurement
    channel and data the empirical-operator MPO."""
    empirical = empirical_operator(record, povm)
    channel = sum_channel(povm, state)
    return _loss_from_parts(state, channel, tt_inner(state, empirical).real,
                            _weight_sq(record))


def _weight_sq(record) -> float:
    """sum_k p_hat_k^2 over the record."""
    return float(record.p_hat @ record.p_hat)


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


def _coordinate_trace(x: TTTensor) -> float:
    """The trace of a coordinate TT: the chain of the sums of its
    diagonal-unit coordinates, which hermitian_basis lists first."""
    v = np.ones((1, 1))
    for core in x.cores:
        v = v @ core[:, :x.d, :].sum(axis=1)
    return v[0, 0]


def _project(x: TTTensor, ranks, round_tol: float = None,
             data: TTTensor = None) -> TTTensor:
    """project_mpo in coordinates, of x plus the right-orthogonal
    ``data`` when given (tt_round_sum keeps its orthonormal rows)."""
    capped = cap_ranks(ranks, x.n, x.d)
    if data is None:
        x = tt_round(x, target_ranks=capped)
    else:
        x = tt_round_sum(x, data, target_ranks=capped)
    if round_tol is not None and x.n > 1:
        x = tt_round(x, truncation_tol=round_tol)
    tr = _coordinate_trace(x)
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
    config = EstimatorConfig(init="spectral")
    return tt_from_hermitian_coordinates(
        _initial_state(record, povm, config, ranks))


def _random_mpdo(ranks, n: int, d: int, seed: int) -> TTTensor:
    """The random PSD MPO with Kraus bond ceil(sqrt(rbar)) that the
    random start projects."""
    kappa = kappa_for_rank(int(np.max(np.atleast_1d(ranks))))
    return random_mpdo(MPDOGenConfig(n=n, kappa=kappa, purity=10,
                                     seed=seed, d=d))


def random_init(ranks, n: int, d: int, seed: int) -> TTTensor:
    """Random mixed-state start: a random PSD MPO with Kraus bond
    ceil(sqrt(rbar)), projected to the requested ranks."""
    return project_mpo(_random_mpdo(ranks, n, d, seed), ranks)


def _initial_state(record, povm, config: EstimatorConfig, ranks,
                   empirical: TTTensor = None) -> TTTensor:
    """The start in coordinates; ``empirical``, if given, is the record's
    _empirical_coordinates."""
    if config.init == "spectral":
        if not record.weights():
            raise ValueError("record is empty")
        if empirical is None:
            empirical = _empirical_coordinates(record, povm)
        n, d = povm.n, povm.d
        scale = povm.k_total * (d ** n + 1) / d ** n
        return _project(tt_zeros(n, d), ranks,
                        data=tt_scale(empirical, scale))
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
    tr = _coordinate_trace(x)
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

    ``prepare(record, povm, config, ranks)`` returns (state, loss_of,
    step, extra): the start, the loss of an iterate, a generator
    ``step(state, k, mu)`` of the iterates of outer step k (one for PGD,
    one per batch for PSGD's epoch k) and extra metadata.  The loop owns
    the step schedule mu0 * 2^n * lam^k, checks every iterate when
    check_iterates is set, logs a row per outer step and stops on the
    budget (max_iters, for PSGD max_epochs) or a loss plateau.  A failed
    decomposition or a non-finite loss raises NumericalError naming the
    outer step (iteration or epoch) and its step size.

    Iterates are coordinate TTs, and the checks read them as they are;
    the rows' error and the returned state see their fused map-back.

    The loss of each outer step's last iterate is taken before the next
    step starts, so a step may reuse what loss_of computed for its start
    (PGD's channel term, the dense path's probabilities).
    """
    n = povm.n
    ranks = config.rank_vector(n, povm.d)
    if algorithm == "psgd":
        unit, limit, reason = "epoch", config.max_epochs, "max_epochs"
    else:
        unit, limit, reason = "iteration", config.max_iters, "max_iters"
    t0 = time.perf_counter()
    state, loss_of, step, extra = prepare(record, povm, config, ranks)
    log = []
    cur_loss = loss_of(state)
    _log_row(log, 0, cur_loss, state, truth, float("nan"), t0)
    losses = [cur_loss]
    iterations = 0
    for k in range(limit):
        mu = _step_size(config, n, k)
        try:
            for state in step(state, k, mu):
                iterations += 1
                if config.check_iterates:
                    _check_iterate(state)
            cur_loss = loss_of(state)
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
    non-finite loss (step too large), reporting the offending iteration."""
    prepare = _dense_pgd if config.backend == "dense" else _tt_pgd
    return _descend(record, povm, config, truth, "pgd", prepare)


def _tt_pgd(record, povm, config, ranks):
    """PGD on MPOs: E once, then each step rounds rho - mu Phi(rho) + mu E
    against E's orthonormal rows.  The loss and the next step share one
    sum_channel per iterate."""
    emp = _empirical_coordinates(record, povm)
    local = povm.hermitian_coordinates()
    state = _initial_state(record, povm, config, ranks, emp)
    weight_sq = _weight_sq(record)
    channel = None

    def loss_of(rho):
        nonlocal channel
        channel = sum_channel(povm, rho, local)
        return _loss_from_parts(rho, channel, tt_inner(rho, emp).real,
                                weight_sq)

    def step(rho, k, mu):
        yield _project(tt_add(rho, tt_scale(channel, -mu)), ranks,
                       config.tt_round_tol, data=tt_scale(emp, mu))

    return state, loss_of, step, {}


def _dense_pgd(record, povm, config, ranks):
    """Dense-matrix reference path: materialized POVM elements, explicit
    gradient, identical projection.  Cross-check backend for small n."""
    n, d = povm.n, povm.d
    if povm.k_total * (d ** n) ** 2 > 2_000_000:
        raise ValueError("dense backend limited to small systems")
    state = _initial_state(record, povm, config, ranks)
    elements = np.stack([a for a in dense_from_product(povm).elements])
    p_hat = _dense_weights(record, povm)
    dense = probs = None

    def loss_of(rho):
        nonlocal dense, probs
        dense = tt_to_dense(tt_from_hermitian_coordinates(rho)).matrix
        probs = np.einsum("kij,ij->k", elements.conj(), dense).real
        return float(((probs - p_hat) ** 2).sum())

    def step(rho, k, mu):
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
    the partial gradient sum_{k in batch} (<A_k, rho> - p_hat_k) A_k; the
    batch's amplitudes come from one batched contraction
    (outcome_amplitudes).

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


def _psgd(record, povm, config, ranks):
    """PSGD's epoch sizing, its loss (the cross term from the record's
    amplitudes) and its epochs of batch steps."""
    n, d = povm.n, povm.d
    observed, p_obs = record.outcomes, record.p_hat
    n_obs = len(p_obs)
    max_rank = max(ranks) if ranks else 1
    if config.epoch_size is not None:
        n_epoch = config.epoch_size
        if n_epoch < n_obs:
            raise ValueError(
                f"epoch_size {n_epoch} below nonzero outcome count {n_obs}")
    else:
        n_epoch = min(max(10 * d * d * n * max_rank ** 2, n_obs),
                      povm.k_total)
    batch = min(config.batch_size, n_epoch)
    local = povm.hermitian_coordinates()
    state = _initial_state(record, povm, config, ranks)
    weight_sq = _weight_sq(record)

    def loss_of(rho):
        # cross term <E, rho> = sum_k p_hat_k <A_k, rho> over the record
        cross = float(p_obs @ outcome_amplitudes(povm, rho, observed, local))
        return _loss_from_parts(rho, sum_channel(povm, rho, local), cross,
                                weight_sq)

    def step(rho, epoch, mu):
        rng = _stream(config.init_seed, 0xE0C + epoch)
        filler = _zero_outcome_filler(povm, observed, n_epoch - n_obs, rng)
        subset = np.concatenate([observed, filler])
        subset_p = np.concatenate([p_obs, np.zeros(len(filler))])
        order = rng.permutation(len(subset))
        for it in range(max(len(subset) // batch, 1)):
            pick = order[it * batch:(it + 1) * batch]
            if not len(pick):
                return
            chosen = subset[pick]
            coeffs = (outcome_amplitudes(povm, rho, chosen, local)
                      - subset_p[pick])
            grad = outcome_sum_tt(chosen, coeffs, povm, local)
            rho = _project(tt_add(rho, tt_scale(grad, -mu)), ranks,
                           config.tt_round_tol)
            yield rho

    return state, loss_of, step, {"epoch_size": n_epoch, "batch_size": batch}
