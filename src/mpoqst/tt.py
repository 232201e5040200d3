"""Tensor-train / matrix-product-operator (MPO) arithmetic.

An operator rho on n sites with local dimension d is stored as a chain of
order-3 cores X_1, ..., X_n where core X_l has shape (r_{l-1}, d*d, r_l)
and r_0 = r_n = 1.  Entry (i_1...i_n, j_1...j_n) of the dense operator is
the matrix product

    rho(i_1...i_n, j_1...j_n) = X_1[:, s_1, :] @ X_2[:, s_2, :] @ ...

with the per-site fused physical index

    s_l = i_l + d * j_l        (0-based row i, column j)

i.e. column-major over the (row, column) pair.  This fusion convention is
fixed package-wide, including the JSON serialization format, so that
adjoint and trace slice arithmetic is unambiguous.

All operations are pure functions of immutable inputs; returned tensors
never alias their arguments' core data.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

# Largest site count for which dense materialization (dim d**n) is allowed.
N_DENSE_MAX = 10

# Tensors with Frobenius norm at or below this are treated as exactly zero
# by the rounding routines (avoids SVD on all-zero unfoldings).
ZERO_NORM_TOL = 1e-14


class NumericalError(RuntimeError):
    """A numerical contract was violated (degenerate trace, residues, ...)."""


def _check_dense_cap(n: int) -> None:
    """ValueError when n sites exceed N_DENSE_MAX: the one guard run
    before anything d**n-sized is allocated."""
    if n > N_DENSE_MAX:
        raise ValueError(f"n={n} exceeds dense cap {N_DENSE_MAX}")


def fuse_index(i: int, j: int, d: int) -> int:
    """Fused physical index of the (row i, column j) pair, 0-based."""
    return i + d * j


def fuse_local_operator(op: np.ndarray) -> np.ndarray:
    """Flatten a (d, d) matrix into the fused d*d vector (column-major)."""
    return np.asarray(op, dtype=complex).reshape(-1, order="F")


def hermitian_basis(d: int) -> np.ndarray:
    """(d*d, d*d) unitary U whose rows are the fused forms of a real
    orthonormal basis of the Hermitian d x d matrices: the diagonal units
    E_ii, then for each i < j the pair (E_ij + E_ji)/sqrt2 and
    i (E_ji - E_ij)/sqrt2.  A Hermitian H has the real coordinates
    x = fuse(H) @ U^H, and fuse(H) = x @ U."""
    dd = d * d
    basis = np.zeros((dd, d, d), dtype=complex)
    for i in range(d):
        basis[i, i, i] = 1.0
    row = d
    for i in range(d):
        for j in range(i + 1, d):
            basis[row, i, j] = basis[row, j, i] = 1 / np.sqrt(2.0)
            basis[row + 1, j, i] = 1j / np.sqrt(2.0)
            basis[row + 1, i, j] = -1j / np.sqrt(2.0)
            row += 2
    return basis.transpose(0, 2, 1).reshape(dd, dd)  # rows fused as i + d*j


@dataclass(frozen=True)
class TTTensor:
    """Tensor-train operator: cores[l] has shape (r_{l-1}, d*d, r_l).
    Real cores are kept as float64, complex ones as complex128."""

    cores: tuple
    d: int = 2

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"local dimension must be >= 2, got {self.d}")
        if not self.cores:
            raise ValueError("need at least one core")
        cores = tuple(np.ascontiguousarray(c, dtype=np.result_type(c, float))
                      for c in map(np.asarray, self.cores))
        dd = self.d * self.d
        for l, c in enumerate(cores):
            if c.ndim != 3 or c.shape[1] != dd:
                raise ValueError(
                    f"core {l} has shape {c.shape}, expected (r, {dd}, r')")
            c.flags.writeable = False
        if cores[0].shape[0] != 1 or cores[-1].shape[2] != 1:
            raise ValueError("boundary ranks must be 1")
        for l in range(len(cores) - 1):
            if cores[l].shape[2] != cores[l + 1].shape[0]:
                raise ValueError(
                    f"rank mismatch between cores {l} and {l + 1}")
        object.__setattr__(self, "cores", cores)

    @property
    def n(self) -> int:
        return len(self.cores)

    @property
    def ranks(self) -> tuple:
        return tuple(c.shape[0] for c in self.cores) + (1,)

    def __repr__(self):
        return f"TTTensor(n={self.n}, d={self.d}, ranks={self.ranks})"


@dataclass(frozen=True)
class DenseOperator:
    """Explicit d**n x d**n matrix, guarded by the N_DENSE_MAX site cap."""

    matrix: np.ndarray
    n: int
    d: int = 2

    def __post_init__(self):
        _check_dense_cap(self.n)
        m = np.ascontiguousarray(self.matrix, dtype=complex)
        dim = self.d ** self.n
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} != ({dim}, {dim})")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.d ** self.n

    @classmethod
    def from_matrix(cls, matrix, d: int = 2):
        matrix = np.asarray(matrix)
        dim = matrix.shape[0]
        n = round(np.log(dim) / np.log(d))
        if d ** n != dim:
            raise ValueError(f"matrix dimension {dim} is not a power of {d}")
        return cls(matrix=matrix, n=n, d=d)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return np.abs(self.matrix - self.matrix.conj().T).max() <= tol


def max_tt_ranks(n: int, d: int) -> tuple:
    """Structural rank cap min(d^{2l}, d^{2(n-l)}) at each internal cut."""
    dd = d * d
    return tuple(min(dd ** l, dd ** (n - l)) for l in range(1, n))


def cap_ranks(ranks, n: int, d: int) -> tuple:
    """Clip a requested rank vector (or uniform rank) to the structural caps."""
    caps = max_tt_ranks(n, d)
    if np.isscalar(ranks):
        return tuple(min(int(ranks), c) for c in caps)
    return tuple(min(r, c) for r, c in zip(_rank_vector(ranks, n), caps))


def _rank_vector(ranks, n: int) -> tuple:
    """The n - 1 internal ranks as a tuple of ints (ValueError if not)."""
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != n - 1:
        raise ValueError(f"rank vector length {len(ranks)} != n-1 = {n - 1}")
    return ranks


def _validate_ranks(ranks, n: int, d: int) -> tuple:
    ranks = _rank_vector(ranks, n)
    caps = max_tt_ranks(n, d)
    for l, (r, c) in enumerate(zip(ranks, caps)):
        if r < 1:
            raise ValueError(f"rank at cut {l + 1} must be >= 1")
        if r > c:
            raise ValueError(
                f"rank {r} at cut {l + 1} exceeds structural cap {c}")
    return ranks


# ---------------------------------------------------------------------------
# dense <-> fused tensor <-> TT conversions


def fuse_dense_to_tensor(matrix: np.ndarray, n: int, d: int) -> np.ndarray:
    """Reshape a d**n x d**n matrix into the order-n fused tensor."""
    t = np.asarray(matrix, dtype=complex).reshape((d,) * (2 * n))
    perm = []
    for l in range(n):
        perm.extend([n + l, l])  # (j_l, i_l) so C-order fuse gives i + d*j
    return t.transpose(perm).reshape((d * d,) * n)


def unfuse_tensor_to_dense(tensor: np.ndarray, n: int, d: int) -> np.ndarray:
    """Inverse of :func:`fuse_dense_to_tensor`."""
    t = np.asarray(tensor).reshape((d, d) * n)  # (j_1, i_1, j_2, i_2, ...)
    perm = [2 * l + 1 for l in range(n)] + [2 * l for l in range(n)]
    return t.transpose(perm).reshape(d ** n, d ** n)


def tt_zeros(n: int, d: int = 2) -> TTTensor:
    """The zero operator on n sites, with all bond dimensions 1."""
    return TTTensor(tuple(np.zeros((1, d * d, 1)) for _ in range(n)), d=d)


def _choose_rank(s: np.ndarray, cap, per_cut_budget):
    """Number of singular values kept at one cut.

    With a rank cap, keep min(cap, available).  With an error budget, keep
    the smallest count whose discarded tail mass is within the budget.
    Singular values arrive sorted descending (numpy), so ties keep the
    earlier columns.
    """
    if cap is not None:
        return max(1, min(int(cap), len(s)))
    tail = np.cumsum((s ** 2)[::-1])[::-1]  # tail[r] = sum_{i>=r} s_i^2
    budget = per_cut_budget ** 2
    r = len(s)
    while r > 1 and tail[r - 1] <= budget:
        r -= 1
    return r


def tt_from_dense(dense, target_ranks=None, truncation_tol=None,
                  d: int = 2) -> TTTensor:
    """Sequential truncated-SVD decomposition of a dense operator.

    Exactly one of ``target_ranks`` / ``truncation_tol`` must be given.
    With a tolerance, the per-cut discarded singular mass is budgeted so
    the total Frobenius error is at most ``truncation_tol * ||dense||_F``.
    """
    if (target_ranks is None) == (truncation_tol is None):
        raise ValueError("supply exactly one of target_ranks, truncation_tol")
    if isinstance(dense, DenseOperator):
        matrix, n, d = dense.matrix, dense.n, dense.d
    else:
        op = DenseOperator.from_matrix(dense, d=d)
        matrix, n = op.matrix, op.n
    if target_ranks is not None:
        target_ranks = _validate_ranks(target_ranks, n, d)
    dd = d * d
    tensor = fuse_dense_to_tensor(matrix, n, d)
    return _truncate_left_to_right(tensor.reshape(1, dd, -1),
                                   lambda l, c: c.reshape(len(c), dd, -1),
                                   n, d, target_ranks, truncation_tol)


def tt_to_dense(tt: TTTensor) -> DenseOperator:
    """Materialize the dense operator (guarded by the site cap)."""
    _check_dense_cap(tt.n)
    acc = tt.cores[0].reshape(tt.d * tt.d, -1)
    for core in tt.cores[1:]:
        acc = np.tensordot(acc, core, axes=[[-1], [0]])
        acc = acc.reshape(-1, core.shape[2])
    tensor = acc.reshape((tt.d * tt.d,) * tt.n)
    return DenseOperator(matrix=unfuse_tensor_to_dense(tensor, tt.n, tt.d),
                         n=tt.n, d=tt.d)


def tt_element(tt: TTTensor, rows, cols) -> complex:
    """Single dense entry via the core matrix product (0-based indices)."""
    v = np.ones((1, 1), dtype=complex)
    for l, core in enumerate(tt.cores):
        v = v @ core[:, fuse_index(rows[l], cols[l], tt.d), :]
    return complex(v[0, 0])


# ---------------------------------------------------------------------------
# contractions


def _check_compatible(a: TTTensor, b: TTTensor):
    if a.n != b.n or a.d != b.d:
        raise ValueError(f"incompatible shapes: (n={a.n}, d={a.d}) vs "
                         f"(n={b.n}, d={b.d})")


def tt_inner(a: TTTensor, b: TTTensor) -> complex:
    """Hilbert-Schmidt inner product trace(A^dag B) by transfer contraction.

    Costs O(n d^2 r_a r_b (r_a + r_b)); never materializes dense operators.
    """
    _check_compatible(a, b)
    env = np.ones((1, 1))  # (r_a, r_b)
    for ca, cb in zip(a.cores, b.cores):
        tmp = np.tensordot(env, ca.conj(), axes=[[0], [0]])  # (r_b, dd, r_a')
        env = np.tensordot(tmp, cb, axes=[[0, 1], [0, 1]])   # (r_a', r_b')
    return complex(env[0, 0])


def tt_norm(a: TTTensor) -> float:
    """Frobenius norm, equal to sqrt(<A, A>).

    Computed by a right-to-left orthogonalization sweep rather than the
    Gram contraction: the sweep is backward stable, so tiny norms of
    block-structured sums (a - a, rounding residuals) come out at the
    true scale instead of drowning in cancellation noise.
    """
    cores = list(a.cores)
    _orthogonalize_right(cores, a.d * a.d)
    return float(np.linalg.norm(cores[0]))


def tt_trace(a: TTTensor) -> complex:
    """Operator trace: chain product of per-site diagonal-slice sums."""
    d = a.d
    diag = [fuse_index(i, i, d) for i in range(d)]
    v = np.ones((1, 1), dtype=complex)
    for core in a.cores:
        v = v @ core[:, diag, :].sum(axis=1)
    return complex(v[0, 0])


# ---------------------------------------------------------------------------
# linear structure


def tt_add(a: TTTensor, b: TTTensor) -> TTTensor:
    """Exact sum with block-concatenated cores (ranks add, no truncation)."""
    _check_compatible(a, b)
    n, dd = a.n, a.d * a.d
    if n == 1:
        return TTTensor((a.cores[0] + b.cores[0],), d=a.d)
    cores = []
    for l in range(n):
        ca, cb = a.cores[l], b.cores[l]
        if l == 0:
            cores.append(np.concatenate([ca, cb], axis=2))
        elif l == n - 1:
            cores.append(np.concatenate([ca, cb], axis=0))
        else:
            ra0, _, ra1 = ca.shape
            rb0, _, rb1 = cb.shape
            block = np.zeros((ra0 + rb0, dd, ra1 + rb1),
                             dtype=np.result_type(ca, cb))
            block[:ra0, :, :ra1] = ca
            block[ra0:, :, ra1:] = cb
            cores.append(block)
    return TTTensor(tuple(cores), d=a.d)


def tt_scale(a: TTTensor, c: complex) -> TTTensor:
    """Scalar multiple; the first core absorbs the factor."""
    cores = list(a.cores)
    cores[0] = cores[0] * c
    return TTTensor(tuple(cores), d=a.d)


def tt_sub(a: TTTensor, b: TTTensor) -> TTTensor:
    return tt_add(a, tt_scale(b, -1.0))


# ---------------------------------------------------------------------------
# rounding / compression


def _orthogonalize_right(cores: list, dd: int) -> None:
    """Right-to-left QR sweep, in place: cores 2..n of the list get
    right-orthonormal unfoldings and the first core absorbs the norm."""
    for l in range(len(cores) - 1, 0, -1):
        r0, _, r1 = cores[l].shape
        q, rmat = np.linalg.qr(cores[l].reshape(r0, dd * r1).T)
        cores[l] = np.ascontiguousarray(q.T).reshape(-1, dd, r1)
        cores[l - 1] = np.tensordot(cores[l - 1], rmat.T, axes=[[2], [0]])


def _orthogonalize_left(cores: list, dd: int) -> None:
    """Left-to-right QR sweep, in place: cores 1..n-1 of the list get
    left-orthonormal unfoldings (r*d*d, r') and the last core absorbs the
    norm.  Each bond shrinks to at most d*d times the one left of it."""
    for l in range(len(cores) - 1):
        r0, _, r1 = cores[l].shape
        q, rmat = np.linalg.qr(cores[l].reshape(r0 * dd, r1))
        cores[l] = q.reshape(r0, dd, -1)
        cores[l + 1] = np.tensordot(rmat, cores[l + 1], axes=[[1], [0]])


def tt_from_hermitian_coordinates(x: TTTensor) -> TTTensor:
    """The fused operator of a real TT whose physical legs hold
    coordinates in :func:`hermitian_basis`: each core's leg is mapped
    back by U."""
    u_t = hermitian_basis(x.d).T
    return TTTensor(tuple(u_t @ core for core in x.cores), d=x.d)


def tt_to_hermitian_coordinates(a: TTTensor) -> TTTensor:
    """The real TT, in :func:`hermitian_basis` coordinates, of the
    Hermitian part (A + A^dag)/2 at twice the ranks of A: its coordinates
    are the real parts of A's.  Each complex coordinate core X + iY
    becomes [[X, -Y], [Y, X]], which multiply as the complex cores do; the
    first core keeps the top block row and the last the left block column.
    For a Hermitian A a real tt_round returns to A's ranks exactly."""
    u_conj = hermitian_basis(a.d).conj()
    cores = []
    for l, core in enumerate(a.cores):
        c = np.tensordot(u_conj, core, axes=[[1], [1]])  # (dd, r, r')
        block = np.block([[c.real, -c.imag], [c.imag, c.real]])
        block = block[:, :1 if l == 0 else None, :1 if l == a.n - 1 else None]
        cores.append(block.transpose(1, 0, 2))
    return TTTensor(tuple(cores), d=a.d)


def _truncate_left_to_right(first, absorb, n: int, d: int, target_ranks,
                            truncation_tol) -> TTTensor:
    """Left-to-right truncated SVDs of a right-orthogonal chain.

    ``first`` is the first core, which holds the whole norm, and
    ``absorb(l, carry)`` returns carry @ core l of the right-orthonormal
    rest.  With a tolerance, the per-cut discarded singular mass is
    budgeted as in :func:`tt_from_dense`.
    """
    dd = d * d
    fro = float(np.linalg.norm(first))
    if fro <= ZERO_NORM_TOL:
        return tt_zeros(n, d)
    per_cut = None
    if truncation_tol is not None:
        per_cut = truncation_tol * fro / np.sqrt(max(n - 1, 1))
    cores = []
    core = first
    for l in range(n - 1):
        r0, _, r1 = core.shape
        u, s, vt = np.linalg.svd(core.reshape(r0 * dd, r1),
                                 full_matrices=False)
        cap = target_ranks[l] if target_ranks is not None else None
        r = _choose_rank(s, cap, per_cut)
        cores.append(u[:, :r].reshape(r0, dd, r))
        core = absorb(l + 1, s[:r, None] * vt[:r])
    cores.append(core)
    return TTTensor(tuple(cores), d=d)


def _rounding_mode(a: TTTensor, target_ranks, truncation_tol):
    if (target_ranks is None) == (truncation_tol is None):
        raise ValueError("supply exactly one of target_ranks, truncation_tol")
    if target_ranks is not None:
        return _validate_ranks(target_ranks, a.n, a.d)
    return None


def tt_round(a: TTTensor, target_ranks=None, truncation_tol=None) -> TTTensor:
    """Recompress: right-to-left orthogonalization then left-to-right
    truncated SVDs.  Same error contract as :func:`tt_from_dense`, computed
    fully in TT form at cost O(n d^2 r^3).
    """
    target_ranks = _rounding_mode(a, target_ranks, truncation_tol)
    n, d = a.n, a.d
    dd = d * d
    if n == 1:
        return TTTensor((a.cores[0].copy(),), d=d)
    cores = list(a.cores)
    _orthogonalize_right(cores, dd)

    def absorb(l, carry):
        return np.tensordot(carry, cores[l], axes=[[1], [0]])

    return _truncate_left_to_right(cores[0], absorb, n, d, target_ranks,
                                   truncation_tol)


def tt_right_orthogonalize(a: TTTensor) -> TTTensor:
    """The same tensor with cores 2..n right-orthonormal: the unfolding
    core.reshape(r, d*d*r') of each has orthonormal rows.  The first core
    holds the norm, so :func:`tt_scale` keeps the form."""
    cores = list(a.cores)
    _orthogonalize_right(cores, a.d * a.d)
    return TTTensor(tuple(cores), d=a.d)


def tt_round_sum(a: TTTensor, b: TTTensor, target_ranks=None,
                 truncation_tol=None) -> TTTensor:
    """tt_round(tt_add(a, b), ...) for a right-orthogonal ``b`` (see
    :func:`tt_right_orthogonalize`) with small ranks in ``a``.

    The right-to-left sweep keeps b's orthonormal rows Q and only
    orthogonalizes the rows of a against them: at each site the
    coefficients C = A Q^H go into the next core of a, and the residual
    A - C Q adds at most rank(a) new orthonormal rows.  The left-to-right
    truncation is the one of :func:`tt_round`.  With r the ranks of a and
    R those of b, this costs O(n d^2 r R^2) instead of O(n d^2 R^3).
    ``b`` is assumed right-orthogonal, not checked.
    """
    _check_compatible(a, b)
    target_ranks = _rounding_mode(a, target_ranks, truncation_tol)
    n, d = a.n, a.d
    dd = d * d
    if n == 1:
        return TTTensor((a.cores[0] + b.cores[0],), d=d)
    # Site l's orthonormal core is [Q_l, 0; Z_l] with Q_l = b's core
    # unfolding (rb_l, dd*rb_{l+1}), zero-padded to the k_{l+1} residual
    # columns of site l + 1, and Z_l the k_l residual rows.
    qs = [c.reshape(c.shape[0], -1) for c in b.cores]
    rb = [c.shape[0] for c in b.cores] + [1]
    zs = [None] * n
    k = [0] * (n + 1)
    acore = a.cores[n - 1]  # a's core times the carry, (ra, dd, rb' + k')
    for l in range(n - 1, 0, -1):
        ra = acore.shape[0]
        width = rb[l + 1] + k[l + 1]
        on_q = acore[:, :, :rb[l + 1]].reshape(ra, -1)
        coef = (on_q.conj() @ qs[l].T).conj()  # A Q^H, conjugating A only
        resid = acore.astype(coef.dtype)
        resid[:, :, :rb[l + 1]] -= (coef @ qs[l]).reshape(ra, dd, rb[l + 1])
        # The residual lies in the complement of Q's rb_l rows, so it
        # adds at most dd * width - rb_l new rows.
        k[l] = min(ra, dd * width - rb[l])
        carry = coef
        if k[l] > 0:
            q, rmat = np.linalg.qr(resid.reshape(ra, -1).T)
            rz, zs[l] = rmat.T, q.T
            if k[l] < ra:  # keep the leading k_l directions
                u, sv, vt = np.linalg.svd(rz, full_matrices=False)
                rz, zs[l] = u[:, :k[l]] * sv[:k[l]], vt[:k[l]] @ zs[l]
            zs[l] = np.ascontiguousarray(zs[l])
            carry = np.concatenate([coef, rz], axis=1)
        prev = a.cores[l - 1]
        acore = (prev.reshape(-1, ra) @ carry).reshape(prev.shape[0], dd, -1)
    first = acore  # a fresh array
    first[:, :, :rb[1]] += b.cores[0]

    def absorb(l, carry):
        r = carry.shape[0]
        width = rb[l + 1] + k[l + 1]
        on_q = (carry[:, :rb[l]] @ qs[l]).reshape(r, dd, rb[l + 1])
        if zs[l] is None:  # then k_{l+1} = 0 too: no padding
            return on_q
        out = (carry[:, rb[l]:] @ zs[l]).reshape(r, dd, width)
        out[:, :, :rb[l + 1]] += on_q
        return out

    return _truncate_left_to_right(first, absorb, n, d, target_ranks,
                                   truncation_tol)


# ---------------------------------------------------------------------------
# adjoint / hermiticity


def tt_adjoint(a: TTTensor) -> TTTensor:
    """Hermitian adjoint: per-site (i, j) slice swap with conjugation."""
    d = a.d
    cores = []
    for core in a.cores:
        r0, _, r1 = core.shape
        c = core.reshape(r0, d, d, r1)        # (r, j, i, r')
        cores.append(c.transpose(0, 2, 1, 3).conj().reshape(r0, d * d, r1))
    return TTTensor(tuple(cores), d=d)


def is_hermitian(a: TTTensor, tol: float = 1e-10) -> bool:
    nrm = tt_norm(a)
    if nrm == 0.0:
        return True
    return tt_norm(tt_sub(a, tt_adjoint(a))) <= tol * nrm


# ---------------------------------------------------------------------------
# TT singular values


def smallest_tt_singular_value(a: TTTensor, ranks) -> float:
    """min over cuts l of the r_l-th singular value of the l-th unfolding.

    Computed from dense unfoldings of the fused tensor, so it is limited to
    n <= N_DENSE_MAX.  For n == 1 there are no internal cuts and +inf is
    returned.
    """
    if a.n == 1:
        return float("inf")
    ranks = _rank_vector(ranks, a.n)
    tensor = fuse_dense_to_tensor(tt_to_dense(a).matrix, a.n, a.d)
    dd = a.d * a.d
    smallest = np.inf
    for l in range(1, a.n):
        sv = np.linalg.svd(tensor.reshape(dd ** l, -1), compute_uv=False)
        r = ranks[l - 1]
        val = float(sv[r - 1]) if r <= len(sv) else 0.0
        smallest = min(smallest, val)
    return smallest


# ---------------------------------------------------------------------------
# random tensors (test / benchmark utility)


def random_tt(n: int, d: int, ranks, seed: int, hermitian: bool = False) -> TTTensor:
    """Random TT with the given internal ranks; optionally hermitized."""
    ranks = _validate_ranks(ranks, n, d) if n > 1 else ()
    full = (1,) + tuple(ranks) + (1,)
    rng = np.random.default_rng(seed)
    cores = []
    for l in range(n):
        shape = (full[l], d * d, full[l + 1])
        cores.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    out = TTTensor(tuple(cores), d=d)
    if hermitian:
        out = tt_round(tt_scale(tt_add(out, tt_adjoint(out)), 0.5),
                       target_ranks=ranks if n > 1 else None,
                       truncation_tol=None if n > 1 else 0.0)
    return out


# ---------------------------------------------------------------------------
# serialization


def tt_to_json_dict(tt: TTTensor) -> dict:
    """JSON container {n, d, ranks, cores}; core entries are [re, im] pairs
    in (left-rank, fused-physical, right-rank) index order."""
    cores = [_complex_to_json(c) for c in tt.cores]
    return {"n": tt.n, "d": tt.d, "ranks": list(tt.ranks), "cores": cores}


def _json_int(value, what: str) -> int:
    """A JSON integer; ValueError on anything else, booleans included."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list")
    return value


def _json_sha256(data) -> str:
    """Hex sha256 of ``data`` as JSON with sorted keys: the one digest
    behind provenance hashes, derived seeds and identifiers."""
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _complex_to_json(values: np.ndarray) -> list:
    """Nested list of [re, im] pairs, the inverse of _complex_from_json."""
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _complex_from_json(raw, what: str) -> np.ndarray:
    """Complex array from a regular nested list whose innermost level
    holds [re, im] pairs of finite JSON numbers; ValueError on a ragged
    list, a pair of another length or any other entry."""
    arr = np.asarray(raw, dtype=object)
    if (arr.ndim == 0 or arr.shape[-1] != 2
            or any(type(x) not in (int, float) for x in arr.flat)):
        raise ValueError(f"{what} must be a regular array of [re, im] "
                         "number pairs")
    try:
        values = arr.astype(float)
        finite = np.isfinite(values).all()
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{what} entries must be finite numbers")
    return values[..., 0] + 1j * values[..., 1]


def tt_from_json_dict(data: dict) -> TTTensor:
    """TT operator from its JSON form; ValueError unless it is a JSON
    object with an integer d >= 2, a list of regular (r, d*d, r', 2) core
    arrays of finite [re, im] pairs, and ranks that match them."""
    if not isinstance(data, dict):
        raise ValueError("a TT operator must be a JSON object")
    d = _json_int(data["d"], "d")
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    cores = [_complex_from_json(raw, f"core {l}")
             for l, raw in enumerate(_json_list(data["cores"], "cores"))]
    tt = TTTensor(tuple(cores), d=d)
    if list(tt.ranks) != data["ranks"]:
        raise ValueError("stored ranks do not match core shapes")
    return tt


def save_tt(tt: TTTensor, path) -> None:
    with open(path, "w") as fh:
        json.dump(tt_to_json_dict(tt), fh)


def load_tt(path) -> TTTensor:
    """TT operator from a JSON file that holds it bare (save_tt) or under
    the key "state" (the files of generate and estimate)."""
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "state" in data:
        data = data["state"]
    return tt_from_json_dict(data)
