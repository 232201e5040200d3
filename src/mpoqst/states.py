"""Ground-truth state generation: random MPDOs and reference states.

The random generator draws per-site Kraus-like cores A_l^{i,a} of bond
dimension kappa with entries uniform on [-1, 1] (real and imaginary parts)
and forms the MPO cores

    X_l^{i,j} = sum_a A_l^{i,a} (x) conj(A_l^{j,a})

which makes the operator PSD by construction with MPO bond dimension
kappa^2.  The purity parameter controls how mixed the state is (1 gives a
pure state).  The trace is evaluated by chaining the per-site diagonal
sums and divided out as trace^{-1/n} per core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .povm import MAX_REPEAT
from .tt import NumericalError, TTTensor, fuse_index, tt_inner, tt_trace

# Offset used to derive the one retry seed on a non-positive trace draw.
_RESEED_OFFSET = 0x9E3779B9

# Largest Kraus-term count, and largest entry count of one site's Kraus
# draw (d * purity * kappa^2), of one MPO core (d^2 kappa^4) and of all n
# cores: beyond them a draw asks numpy for gigabytes.  n <= MAX_REPEAT.
MAX_PURITY = 10 ** 4
MAX_SITE_ENTRIES = 2 ** 22
MAX_DRAW_ENTRIES = 2 ** 24


def kappa_for_rank(rank: int) -> int:
    """The smallest Kraus bond kappa whose MPO bond kappa^2 reaches rank
    (ceil(sqrt(rank)) in integers)."""
    return math.isqrt(rank - 1) + 1


@dataclass(frozen=True)
class MPDOGenConfig:
    """Random-MPDO generator parameters.

    kappa is the Kraus bond dimension (MPO bond = kappa^2); purity >= 1
    sets the number of Kraus terms per site (1 = pure state).  ValueError
    for n above MAX_REPEAT or beyond MAX_PURITY, MAX_SITE_ENTRIES or
    MAX_DRAW_ENTRIES.
    """

    n: int
    kappa: int = 1
    purity: int = 10
    seed: int = 0
    d: int = 2

    def __post_init__(self):
        if not 1 <= self.n <= MAX_REPEAT:
            raise ValueError(f"n must be in 1..{MAX_REPEAT}, got {self.n}")
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if self.purity < 1:
            raise ValueError("purity must be >= 1")
        if self.purity > MAX_PURITY:
            raise ValueError(f"purity must be <= {MAX_PURITY}")
        draw = self.d * self.purity * self.kappa ** 2
        core = (self.d * self.kappa ** 2) ** 2
        if max(draw, core) > MAX_SITE_ENTRIES:
            raise ValueError(
                f"a site's Kraus draw ({draw} entries) or MPO core ({core}) "
                f"exceeds {MAX_SITE_ENTRIES} entries; lower kappa or purity")
        if self.n * core > MAX_DRAW_ENTRIES:
            raise ValueError(
                f"the {self.n} MPO cores ({self.n * core} entries) exceed "
                f"{MAX_DRAW_ENTRIES} entries; lower n or kappa")


def _kraus_core(a_cores: np.ndarray) -> np.ndarray:
    """The MPO core X^{i,j} = sum_a A^{i,a} (x) conj(A^{j,a}) of Kraus
    cores a_cores[i, a], each a (kl_left, kl_right) matrix: rows (p p'),
    fused physical i + d*j, columns (q q')."""
    d, kl, kl_left, kl_right = a_cores.shape
    # x[j, i, p, p', q, q'] = sum_a A^{i,a}[p, q] conj(A^{j,a}[p', q']);
    # adding the terms in order of a keeps every seeded draw bit for bit
    x = np.zeros((d, d, kl_left, kl_left, kl_right, kl_right), dtype=complex)
    for a in range(kl):
        x += (a_cores[None, :, a, :, None, :, None]
              * a_cores[:, None, a, None, :, None, :].conj())
    return x.transpose(2, 3, 0, 1, 4, 5).reshape(
        kl_left ** 2, d * d, kl_right ** 2)


def _draw_mpdo(config: MPDOGenConfig, seed: int) -> TTTensor:
    n, d, kappa, kl = config.n, config.d, config.kappa, config.purity
    rng = np.random.default_rng(seed)
    cores = []
    for l in range(n):
        kl_left = 1 if l == 0 else kappa
        kl_right = 1 if l == n - 1 else kappa
        size = (d, kl, kl_left, kl_right)
        cores.append(_kraus_core(rng.uniform(-1.0, 1.0, size=size)
                                 + 1j * rng.uniform(-1.0, 1.0, size=size)))
    return TTTensor(tuple(cores), d=d)


def random_mpdo(config: MPDOGenConfig) -> TTTensor:
    """Random PSD unit-trace MPO with bond dimension kappa^2.

    The Kraus structure forces a strictly positive trace in exact
    arithmetic; a non-positive draw is retried once with a derived seed
    before failing.
    """
    seed = config.seed
    for attempt in range(2):
        state = _draw_mpdo(config, seed)
        tr = tt_trace(state)
        if tr.real > 0 and abs(tr.imag) <= 1e-10 * tr.real:
            scale = tr.real ** (-1.0 / config.n)
            cores = tuple(c * scale for c in state.cores)
            return TTTensor(cores, d=config.d)
        seed = (seed + _RESEED_OFFSET) % (2 ** 63)
    raise NumericalError(
        f"random MPDO trace not positive after retry (trace={tr})")


def purity(state: TTTensor) -> float:
    """trace(rho^2) = ||rho||_F^2 for Hermitian rho; in (0, 1] for
    physical states."""
    return float(tt_inner(state, state).real)


# ---------------------------------------------------------------------------
# reference states


def maximally_mixed(n: int, d: int = 2) -> TTTensor:
    """I / d^n as an all-ranks-1 MPO."""
    core = (np.eye(d, dtype=complex) / d).reshape(1, d * d, 1, order="F")
    return TTTensor((core,) * n, d=d)


def pure_product(bits: str, d: int = 2) -> TTTensor:
    """|b_1...b_n><b_1...b_n| for a digit string, ranks all 1."""
    cores = []
    for ch in bits:
        b = int(ch)
        if not 0 <= b < d:
            raise ValueError(f"digit {ch!r} out of range for d={d}")
        core = np.zeros((1, d * d, 1), dtype=complex)
        core[0, fuse_index(b, b, d), 0] = 1.0
        cores.append(core)
    return TTTensor(tuple(cores), d=d)


def ghz_density(n: int) -> TTTensor:
    """|GHZ><GHZ| on n qubits: the Kraus cores of one term (purity 1) are
    the bond-2 chain psi(b_1..b_n) = M_1[b_1] ... M_n[b_n] with M[b] =
    |b><b| (a row at the first site, a column at the last), and the density
    MPO carries the squared bond, rank 4 internally."""
    if n < 2:
        raise ValueError("GHZ needs n >= 2")
    cores = []
    for l in range(n):
        m = np.zeros((2, 1, 1 if l == 0 else 2, 1 if l == n - 1 else 2),
                     dtype=complex)
        for b in range(2):
            m[b, 0, 0 if l == 0 else b, 0 if l == n - 1 else b] = 1.0
        cores.append(_kraus_core(m))
    cores[0] = cores[0] / 2.0  # |GHZ> has norm sqrt(2) here
    return TTTensor(tuple(cores), d=2)
