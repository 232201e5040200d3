"""IC-POVM construction, verification, and measurement maps on MPOs.

Outcome indices are 1-based tuples throughout the public API: for a
product POVM on n sites, an outcome is (i_1, ..., i_n) with each i_l in
1..K_loc; dense POVMs use single-entry tuples (k,).  Probabilities follow
the Born rule p_k = <A_k, rho> = trace(A_k rho).

An outcome list with weights w_k is held as the nonzero entries of the
cores of E = sum_k w_k A_k (_Trie): a record's as a prefix tree
(_outcome_trie), a PSGD batch's unshared (_row_trie).  Only this
module's _trie_* readers read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
from math import comb, factorial, isqrt

import numpy as np

from .tt import (
    DenseOperator,
    NumericalError,
    TTTensor,
    _check_dense_cap,
    _complex_from_json,
    _complex_to_json,
    _json_int,
    _json_list,
    _json_sha256,
    fuse_local_operator,
    fuse_dense_to_tensor,
    hermitian_basis,
)

# Largest entry of A - A^dag for which a local POVM element counts as
# Hermitian and gets real coordinates.
HERMITIAN_TOL = 1e-12

# Probability values in [-PROB_CLAMP_TOL, 0) are floating-point noise on a
# PSD state and are clamped to 0; anything more negative signals a
# genuinely non-PSD input.
PROB_CLAMP_TOL = 1e-10

# Largest site count of a product POVM file's {"local", "repeat"} form.
MAX_REPEAT = 2 ** 16

# Materialization guard for permutation-symmetrizer matrices.
MAX_SYM_ENTRIES = 1_000_000


class NonPhysicalStateError(NumericalError):
    """A probability was negative beyond the floating-point clamp window."""


# ---------------------------------------------------------------------------
# POVM containers


@dataclass(frozen=True, eq=False)
class LocalPOVM:
    """Single-site POVM: a list of d x d PSD matrices summing to I_d.

    Two sites are equal when d and the elements are equal by value."""

    elements: tuple
    d: int
    _fused: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        els = tuple(np.ascontiguousarray(e, dtype=complex) for e in self.elements)
        for e in els:
            if e.shape != (self.d, self.d):
                raise ValueError(f"element shape {e.shape} != ({self.d}, {self.d})")
            e.flags.writeable = False
        if not els:
            raise ValueError("need at least one element")
        object.__setattr__(self, "elements", els)
        fused = np.stack([fuse_local_operator(e) for e in els])
        fused.flags.writeable = False
        object.__setattr__(self, "_fused", fused)

    def __eq__(self, other):
        if not isinstance(other, LocalPOVM):
            return NotImplemented
        return self.d == other.d and np.array_equal(self._fused, other._fused)

    def __hash__(self):
        return hash((self.d, self.k_loc))

    @property
    def k_loc(self) -> int:
        return len(self.elements)

    def fused(self) -> np.ndarray:
        """(k_loc, d*d) read-only matrix of column-major flattened
        elements, built once per POVM."""
        return self._fused

    @cached_property
    def _coords(self):
        """The real coordinates, or None when an element is not Hermitian."""
        if any(np.abs(e - e.conj().T).max() > HERMITIAN_TOL
               for e in self.elements):
            return None
        coords = (self._fused @ hermitian_basis(self.d).conj().T).real.copy()
        coords.flags.writeable = False
        return coords

    def hermitian_coordinates(self) -> np.ndarray:
        """(k_loc, d*d) read-only real coordinates of the elements in
        :func:`tt.hermitian_basis`, built on first use: fused() equals
        them times U.  ValueError when an element is not Hermitian to
        HERMITIAN_TOL."""
        if self._coords is None:
            raise ValueError(
                f"a POVM element is not Hermitian to {HERMITIAN_TOL:.0e}")
        return self._coords


@dataclass(frozen=True)
class ProductPOVM:
    """Tensor-product POVM; global element A_k = B_{i_1} x ... x B_{i_n}.

    The K = prod(k_loc) global elements are never materialized for
    n > N_DENSE_MAX; all maps contract site by site.
    """

    sites: tuple

    def __post_init__(self):
        if not self.sites:
            raise ValueError("need at least one site")
        d = self.sites[0].d
        if any(s.d != d for s in self.sites):
            raise ValueError("all sites must share the local dimension")
        object.__setattr__(self, "sites", tuple(self.sites))

    @property
    def n(self) -> int:
        return len(self.sites)

    @property
    def d(self) -> int:
        return self.sites[0].d

    @property
    def k_total(self) -> int:
        k = 1
        for s in self.sites:
            k *= s.k_loc
        return k

    @property
    def k_locs(self) -> tuple:
        return tuple(s.k_loc for s in self.sites)

    def hermitian_coordinates(self) -> list:
        """Per site, the (k_loc, d*d) real coordinate rows of
        LocalPOVM.hermitian_coordinates (ValueError when an element is
        not Hermitian)."""
        return [site.hermitian_coordinates() for site in self.sites]

    def fused(self) -> list:
        """Per site, the (k_loc, d*d) element rows of LocalPOVM.fused."""
        return [s.fused() for s in self.sites]

    def identifier(self) -> str:
        return povm_id(self)

    @classmethod
    def local_sic(cls, n: int) -> "ProductPOVM":
        local = sic_qubit()
        return cls(sites=(local,) * n)


@dataclass(frozen=True)
class DensePOVM:
    """Explicit POVM on a dim-dimensional space; optional rank-one vectors
    w_k with A_k = (dim / K) w_k w_k^dag."""

    elements: tuple
    dim: int
    vectors: tuple = None

    def __post_init__(self):
        els = tuple(np.ascontiguousarray(e, dtype=complex) for e in self.elements)
        for e in els:
            if e.shape != (self.dim, self.dim):
                raise ValueError(f"element shape {e.shape} != ({self.dim},)*2")
            e.flags.writeable = False
        object.__setattr__(self, "elements", els)
        if self.vectors is not None:
            vecs = tuple(np.ascontiguousarray(v, dtype=complex) for v in self.vectors)
            for v in vecs:
                if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                    raise ValueError("rank-one vectors must be unit norm")
                v.flags.writeable = False
            object.__setattr__(self, "vectors", vecs)

    @property
    def k_total(self) -> int:
        return len(self.elements)

    def identifier(self) -> str:
        return povm_id(self)


# ---------------------------------------------------------------------------
# constructions


def sic_qubit_vectors() -> np.ndarray:
    """The four tetrahedral unit vectors w_k with B_k = (1/2) w_k w_k^dag."""
    vs = [np.array([1.0, 0.0], dtype=complex)]
    for m in range(3):
        vs.append(np.array([1 / np.sqrt(3.0),
                            np.sqrt(2.0 / 3.0) * np.exp(1j * 2 * np.pi * m / 3)]))
    return np.stack(vs)


def sic_qubit() -> LocalPOVM:
    """The qubit SIC-POVM used for local product measurements.

    Elements: diag(1/2, 0) and, for m = 0, 1, 2, the rank-one matrices
    [[1/6, (sqrt2/6) e^{-i 2 pi m / 3}], [(sqrt2/6) e^{+i 2 pi m / 3}, 1/3]].
    They sum to I_2 (the three phases are cube roots of unity) and satisfy
    trace(B_k) = 1/2, <B_k, B_k> = 1/4, <B_k, B_j> = 1/12.
    """
    s26 = np.sqrt(2.0) / 6.0
    els = [np.array([[0.5, 0.0], [0.0, 0.0]], dtype=complex)]
    for m in range(3):
        ph = np.exp(1j * 2 * np.pi * m / 3)
        els.append(np.array([[1 / 6, s26 * np.conj(ph)],
                             [s26 * ph, 1 / 3]], dtype=complex))
    return LocalPOVM(elements=tuple(els), d=2)


# Known closed-form Weyl-Heisenberg fiducial vectors (un-normalized forms
# normalized on use).  Higher dimensions require a user-supplied fiducial.
_WH_FIDUCIALS = {
    2: np.array([np.sqrt((3 + np.sqrt(3)) / 6),
                 np.exp(1j * np.pi / 4) * np.sqrt((3 - np.sqrt(3)) / 6)]),
    3: np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0),
}


def wh_sic_from_fiducial(d: int, fiducial=None) -> DensePOVM:
    """Weyl-Heisenberg orbit POVM: d^2 rank-one elements (1/d)|psi_ab><psi_ab|
    with psi_ab = X^a Z^b fiducial over the shift/clock group.

    Supported for d <= 16; the fiducial must be a unit vector (bundled
    closed forms exist for d = 2, 3).  Verify the SIC property afterwards
    with :func:`check_sic`: a generic fiducial does not produce a SIC.
    """
    if d > 16:
        raise ValueError("Weyl-Heisenberg construction limited to d <= 16")
    if fiducial is None:
        if d not in _WH_FIDUCIALS:
            raise ValueError(f"no bundled fiducial for d={d}; supply one")
        fiducial = _WH_FIDUCIALS[d]
    fiducial = np.asarray(fiducial, dtype=complex)
    if fiducial.shape != (d,):
        raise ValueError(f"fiducial must have length {d}")
    if abs(np.linalg.norm(fiducial) - 1.0) > 1e-12:
        raise ValueError("fiducial must be a unit vector")
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)  # X |k> = |k+1>
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))  # Z |k> = w^k |k>
    vectors, elements = [], []
    for a in range(d):
        for b in range(d):
            psi = np.linalg.matrix_power(shift, a) @ (
                np.linalg.matrix_power(clock, b) @ fiducial)
            psi = psi / np.linalg.norm(psi)
            vectors.append(psi)
            elements.append(np.outer(psi, psi.conj()) / d)
    return DensePOVM(elements=tuple(elements), dim=d, vectors=tuple(vectors))


def dense_from_local(local: LocalPOVM) -> DensePOVM:
    """Lift a single-site POVM to the dense container (dim = d)."""
    return DensePOVM(elements=local.elements, dim=local.d)


def dense_from_product(povm: ProductPOVM) -> DensePOVM:
    """Materialize every global element of a product POVM (small n only)."""
    _check_dense_cap(povm.n)
    elements = []
    for outcome in iter_outcomes(povm):
        m = np.ones((1, 1), dtype=complex)
        for l, i in enumerate(outcome):
            m = np.kron(m, povm.sites[l].elements[i - 1])
        elements.append(m)
    return DensePOVM(elements=tuple(elements), dim=povm.d ** povm.n)


def iter_outcomes(povm: ProductPOVM):
    """All outcomes in lexicographic order (1-based per-site indices)."""
    shape = povm.k_locs
    idx = np.indices(shape).reshape(len(shape), -1).T
    for row in idx:
        yield tuple(int(i) + 1 for i in row)


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class SICReport:
    dim: int
    n_elements: int
    element_count_ok: bool
    trace_dev: float
    self_dev: float
    cross_dev: float

    @property
    def max_dev(self) -> float:
        return max(self.trace_dev, self.self_dev, self.cross_dev)

    def passes(self, tol: float = 1e-10) -> bool:
        return self.element_count_ok and self.max_dev <= tol


def check_sic(povm: DensePOVM) -> SICReport:
    """Deviations from the defining symmetry: trace(A_k) = 1/dim,
    <A_k, A_k> = 1/dim^2 and <A_k, A_j> = 1/(dim^2 (dim+1)) for k != j.

    A wrong element count (!= dim^2) is flagged in the report, not fatal.
    """
    dim, k = povm.dim, povm.k_total
    els = povm.elements
    traces = np.array([np.trace(e) for e in els])
    gram = np.array([[np.vdot(a, b) for b in els] for a in els])
    trace_dev = float(np.abs(traces - 1.0 / dim).max())
    self_dev = float(np.abs(np.diag(gram) - 1.0 / dim ** 2).max())
    if k > 1:
        off = gram[~np.eye(k, dtype=bool)]
        cross_dev = float(np.abs(off - 1.0 / (dim ** 2 * (dim + 1))).max())
    else:
        cross_dev = 0.0
    return SICReport(dim=dim, n_elements=k, element_count_ok=(k == dim ** 2),
                     trace_dev=trace_dev, self_dev=self_dev,
                     cross_dev=cross_dev)


def check_povm(povm, tol: float = 1e-10) -> bool:
    """PSD and completeness check; accepts LocalPOVM, DensePOVM, or a raw
    list of matrices."""
    if isinstance(povm, LocalPOVM):
        els, dim = povm.elements, povm.d
    elif isinstance(povm, DensePOVM):
        els, dim = povm.elements, povm.dim
    elif isinstance(povm, ProductPOVM):
        return all(check_povm(s, tol) for s in povm.sites)
    else:
        els = [np.asarray(e, dtype=complex) for e in povm]
        dim = els[0].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for e in els:
        if np.abs(e - e.conj().T).max() > tol:
            return False
        if np.linalg.eigvalsh(e).min() < -tol:
            return False
        total = total + e
    return bool(np.abs(total - np.eye(dim)).max() <= tol)


def dual_basis_sic(povm: DensePOVM, tol: float = 1e-8) -> list:
    """Dual operators dim(dim+1) A_k - I, biorthogonal to a SIC:
    <A_k, dual_j> = delta_{kj}.  Requires the SIC symmetry to hold to tol.
    """
    report = check_sic(povm)
    if not report.element_count_ok or report.max_dev > tol:
        raise ValueError(
            f"input is not a SIC (max deviation {report.max_dev:.3e})")
    dim = povm.dim
    eye = np.eye(dim)
    return [dim * (dim + 1) * a - eye for a in povm.elements]


# ---------------------------------------------------------------------------
# spherical designs


def sym_projector(dim: int, s: int) -> np.ndarray:
    """Orthogonal projector onto the symmetric subspace of (C^dim)^{x s}:
    the average of all s! tensor-factor permutation operators.  Idempotent,
    Hermitian, trace = C(dim+s-1, s)."""
    big = dim ** s
    if big * big > MAX_SYM_ENTRIES:
        raise ValueError(
            f"projector would need {big * big} entries (cap {MAX_SYM_ENTRIES})")
    eye = np.eye(big).reshape((dim,) * s + (dim,) * s)
    proj = np.zeros((big, big))
    for perm in permutations(range(s)):
        proj += eye.transpose(tuple(perm) + tuple(range(s, 2 * s))).reshape(big, big)
    return (proj / factorial(s)).astype(complex)


@dataclass(frozen=True)
class DesignReport:
    """Defect of a vector set against the uniform s-th moment.

    delta_upper certifies the two-sided moment sandwich on the symmetric
    subspace (spectral norm of the deviation, rescaled by the subspace
    dimension); delta_lower comes from the extreme eigenvalues of the
    deviation restricted to the symmetric subspace.  Both coincide up to
    floating point since the deviation is supported there.
    """

    s: int
    dim: int
    n_vectors: int
    delta_lower: float
    delta_upper: float
    method: str = "symmetric-moment-spectral-norm"


def check_t_design(vectors, s: int) -> DesignReport:
    """Compare the empirical s-th moment (1/K) sum (w w^dag)^{x s} of unit
    vectors against the uniform-measure moment P_sym / C(dim+s-1, s)."""
    if s < 1:
        raise ValueError(f"moment order s must be >= 1, got {s}")
    w = np.ascontiguousarray(vectors, dtype=complex)
    if w.ndim != 2:
        raise ValueError("vectors must be a (K, dim) array-like")
    k, dim = w.shape
    norms = np.linalg.norm(w, axis=1)
    if np.abs(norms - 1.0).max() > 1e-10:
        raise ValueError("all vectors must be unit norm")
    big = dim ** s
    if big * big > MAX_SYM_ENTRIES:
        raise ValueError(
            f"moment operator would need {big * big} entries "
            f"(cap {MAX_SYM_ENTRIES})")
    cols = np.empty((big, k), dtype=complex)
    for idx in range(k):
        v = w[idx]
        acc = v
        for _ in range(s - 1):
            acc = np.kron(acc, v)
        cols[:, idx] = acc
    moment = cols @ cols.conj().T / k
    c_sym = comb(dim + s - 1, s)
    proj = sym_projector(dim, s)
    delta_op = moment - proj / c_sym
    upper = c_sym * float(np.linalg.norm(delta_op, 2))
    evals = np.linalg.eigvalsh(proj @ delta_op @ proj)
    lower = c_sym * float(np.abs(evals).max())
    return DesignReport(s=s, dim=dim, n_vectors=k,
                        delta_lower=lower, delta_upper=upper)


# ---------------------------------------------------------------------------
# measurement maps


def clamp_probabilities(p: np.ndarray, tol: float = PROB_CLAMP_TOL):
    """Apply the negative-probability clamp rule.

    Values in [-tol, 0) are set to 0 and counted; anything more negative
    raises :class:`NonPhysicalStateError`.  Returns (clamped, n_clamped).
    """
    p = np.asarray(p, dtype=float)
    worst = p.min() if p.size else 0.0
    if worst < -tol:
        raise NonPhysicalStateError(
            f"probability {worst:.3e} below clamp tolerance -{tol:.0e}; "
            "the state is not PSD")
    neg = p < 0
    n_clamped = int(neg.sum())
    if n_clamped:
        p = p.copy()
        p[neg] = 0.0
    return p, n_clamped


def _real_with_residue_check(values: np.ndarray, tol: float = 1e-10):
    """The real part of computed probabilities; NumericalError when one is
    not finite or has an imaginary part above tol."""
    if not np.isfinite(values).all():
        raise NumericalError(
            "non-finite probability; the state's cores overflow")
    worst = float(np.abs(np.asarray(values).imag).max()) if np.size(values) else 0.0
    if worst > tol:
        raise NumericalError(
            f"imaginary residue {worst:.3e} exceeds {tol:.0e}; "
            "input is not Hermitian")
    return np.asarray(values).real


def _check_shapes(povm: ProductPOVM, state) -> None:
    """ValueError when the POVM and the state differ in n or d."""
    if povm.n != state.n or povm.d != state.d:
        raise ValueError("POVM and state shapes do not match")


def measure_map_dense(povm, state: DenseOperator) -> np.ndarray:
    """Born probabilities p_k = <A_k, state> for every outcome, as a flat
    vector in lexicographic outcome order.  Product POVMs are contracted
    site by site against the fused state tensor (n <= N_DENSE_MAX)."""
    if isinstance(povm, DensePOVM):
        vals = np.array([np.vdot(a, state.matrix) for a in povm.elements])
        return _real_with_residue_check(vals)
    if not isinstance(povm, ProductPOVM):
        raise TypeError("povm must be a DensePOVM or ProductPOVM")
    _check_shapes(povm, state)
    acc = fuse_dense_to_tensor(state.matrix, state.n, state.d)
    for site in povm.sites:
        bmat = site.fused().conj()  # (k_loc, d*d)
        acc = np.tensordot(acc, bmat, axes=[[0], [1]])
    return _real_with_residue_check(acc.reshape(-1))


def _site_transfers(povm: ProductPOVM, state: TTTensor) -> list:
    """Per site, the stack of outcome transfer matrices
    E_i = sum_s conj(b_i(s)) core[:, s, :], shape (k_loc, r_l-1, r_l),
    for the fused() element rows b_i.  ValueError when the POVM and the
    state differ in n or d."""
    _check_shapes(povm, state)
    return [np.tensordot(rows.conj(), core, axes=[[1], [1]])
            for rows, core in zip(povm.fused(), state.cores)]


def _right_environments(transfers: list) -> list:
    """right_env[l] closes sites l+1..n with identity elements; the last
    entry is the scalar [1]."""
    n = len(transfers)
    envs = [None] * (n + 1)
    envs[n] = np.ones(1, dtype=complex)
    for l in range(n - 1, -1, -1):
        trace_transfer = transfers[l].sum(axis=0)  # sum_i E_i = trace map
        envs[l] = trace_transfer @ envs[l + 1]
    return envs


def probability_tensor(povm: ProductPOVM, state: TTTensor) -> np.ndarray:
    """All K outcome probabilities of a TT state, as a (k_1, ..., k_n)
    real tensor; requires n <= N_DENSE_MAX sites of enumeration."""
    _check_dense_cap(povm.n)
    acc = np.ones((1, 1), dtype=complex)  # (outcomes-so-far, bond)
    for trans in _site_transfers(povm, state):
        acc = np.einsum("pr,krs->pks", acc, trans)
        acc = acc.reshape(-1, trans.shape[2])
    k_shape = povm.k_locs
    return _real_with_residue_check(acc.reshape(k_shape))


def _outcome_indices(povm: ProductPOVM, outcomes, length=None) -> np.ndarray:
    """(B, length) 0-based site indices of B 1-based outcomes of the first
    ``length`` sites (default n), as a matrix or a list of tuples;
    ValueError on a wrong length, a non-integer index or one out of range."""
    length = povm.n if length is None else length
    try:
        rows = np.asarray(outcomes)
    except ValueError:  # numpy's message for ragged outcomes
        raise ValueError("outcomes must have equal lengths") from None
    if rows.shape[:1] == (0,):
        rows = rows.reshape(0, length)
    if rows.ndim != 2 or rows.shape[1] != length:
        got = rows.shape[-1] if rows.ndim else 0
        raise ValueError(f"outcome length {got} != n={length}")
    if rows.size and not np.issubdtype(rows.dtype, np.integer):
        raise ValueError(f"outcome indices must be integers, got {rows.dtype}")
    bad = (rows < 1) | (rows > np.array(povm.k_locs[:length]))
    if bad.any():
        b, l = np.argwhere(bad)[0]
        raise ValueError(
            f"outcome index {rows[b, l]} out of range at site {l + 1}")
    return rows.astype(np.intp) - 1


@dataclass(frozen=True)
class _Trie:
    """The nonzero entries of the cores of an outcome list's exact MPO
    E = sum_k w_k A_k (see _trie_tt): entry e of core l joins left bond
    index lefts[l][e] to right bond index rights[l][e] through row
    labels[l][e] of local[l].  At core ``bridge`` an entry is an outcome,
    of weight weights[e].  _outcome_trie shares entries as a prefix tree:
    left of the bridge a bond index is a distinct prefix, numbered in
    sorted order, and an entry a prefix with its parent; right of it a
    bond index is a distinct suffix and an entry a suffix with its child;
    the outcomes are in lexicographic order.  _row_trie shares none: bond
    index b carries row b alone.  local[l] holds site l's (k_loc, d*d)
    element rows, fused() or hermitian_coordinates(), that every reader
    contracts."""

    weights: np.ndarray
    bridge: int
    lefts: list
    labels: list
    rights: list
    local: list


def _outcome_trie(outcomes, weights, povm: ProductPOVM, local: list) -> _Trie:
    """The entries of E's cores (see _Trie) for a list of outcomes and
    their (U,) weights, in the element rows ``local``; ValueError unless
    there is one weight per outcome.  A prefix id is the number of prefix
    changes down the lexicographically sorted rows; a suffix id ranks
    the suffix's (label, child id) pair, from the right."""
    n = povm.n
    rows = _outcome_indices(povm, outcomes)
    weights = np.asarray(weights)
    if weights.shape != (len(rows),):
        raise ValueError(
            f"weights of shape {weights.shape} for {len(rows)} outcomes")
    order = np.lexsort(rows.T[::-1])
    rows, u, bridge = rows[order], len(rows), (n - 1) // 2
    lefts, labels, rights = [None] * n, [None] * n, [None] * n
    ids, changed = np.zeros(u, dtype=np.intp), np.arange(u) == 0
    for l in range(bridge):  # ids: each row's prefix up to site l
        changed[1:] |= rows[1:, l] != rows[:-1, l]
        take = np.flatnonzero(changed)  # the first row of each prefix
        lefts[l], labels[l] = ids[take], rows[take, l]
        rights[l], ids = np.arange(len(take)), np.cumsum(changed) - 1
    lefts[bridge], labels[bridge] = ids, rows[:, bridge]
    ids = np.zeros(u, dtype=np.intp)
    for l in range(n - 1, bridge, -1):  # ids: each row's suffix from site l
        _, take, parent = np.unique(rows[:, l] * u + ids, return_index=True,
                                    return_inverse=True)
        lefts[l], labels[l], rights[l] = parent[take], rows[take, l], ids[take]
        ids = parent
    rights[bridge] = ids
    return _Trie(weights[order], bridge, lefts, labels, rights, local)


def _row_trie(rows: np.ndarray, weights, local: list) -> _Trie:
    """The entries of the diagonal-core TT (Oseledets, SIAM J. Sci.
    Comput. 33(5), 2011) of (B, n) 0-based outcome rows and their (B,)
    weights, in the element rows ``local``, in row order with no sort:
    the weights sit at the bridge, core 0, and bond b carries row b."""
    diag, zero = np.arange(len(rows)), np.zeros(len(rows), dtype=np.intp)
    n = rows.shape[1]
    return _Trie(weights, 0, [zero] + [diag] * (n - 1),
                 list(rows.T), [diag] * (n - 1) + [zero], local)


def _trie_amplitudes(trie: _Trie, state: TTTensor) -> np.ndarray:
    """Raw <A_k, state> for every outcome k of the trie, in its order,
    with the element rows b_i = trie.local[l] in the basis of the state's
    legs.  One left vector per right bond index left of the bridge, its
    left index's times one transfer matrix E_i = sum_s conj(b_i(s))
    core[:, s, :], and one right vector per left bond index right of it,
    E_i times its right index's, meet at the bridge in one dot product
    per outcome.  Each core extends all its vectors by all k_loc
    transfers in one matrix product and keeps row left * k_loc + label
    (right * k_loc + label) of each entry: O(k d^2 r^2) per site, O(k r^2)
    per entry, O(r) per outcome.  A prefix tree has one vector per
    distinct prefix or suffix; a _row_trie one per row at every bond."""
    bridge, local = trie.bridge, trie.local
    left = np.ones((1, 1))  # one row per bond index
    for l in range(bridge + 1):
        v, core = local[l], state.cores[l]
        # row p * k + i: left index p extended by outcome i
        ext = (left @ (v.conj() @ core).reshape(len(core), -1)).reshape(
            -1, core.shape[2])
        left = np.take(ext, trie.lefts[l] * len(v) + trie.labels[l], axis=0)
    right = np.ones((1, 1))  # one row per bond index
    for l in range(state.n - 1, bridge, -1):
        v, core = local[l], state.cores[l]
        # row s * k + i: right index s extended by outcome i
        ext = (right @ (v.conj() @ core).transpose(2, 1, 0).reshape(
            core.shape[2], -1)).reshape(-1, len(core))
        right = np.take(ext, trie.rights[l] * len(v) + trie.labels[l],
                        axis=0)
    return np.einsum("ur,ur->u", left,
                     np.take(right, trie.rights[bridge], axis=0))


def _trie_tt(trie: _Trie) -> TTTensor:
    """The exact MPO sum_k w_k v_{i_1(k)} x ... x v_{i_n(k)} of the
    trie's outcomes and weights, of the dtype of its rows trie.local.
    Each core is one scatter of its entries' rows v[label] to
    (left, :, right), weighted and summed at the bridge, where outcomes
    may share bond indices.  A bond has one index per entry of the core
    beside it away from the bridge: for a prefix tree the distinct
    prefixes left of the bridge and distinct suffixes right of it, which
    never grow with the number of terms beyond the enumeration caps; for
    a _row_trie of B rows, B.  ValueError for a trie with no outcomes."""
    local, weights, bridge = trie.local, trie.weights, trie.bridge
    if not len(weights):
        raise ValueError("need at least one outcome")
    dd, dtype = local[0].shape[1], local[0].dtype
    # a prefix core has one entry per right index, a suffix core one per left
    bonds = [1, *map(len, trie.labels[:bridge]),
             *map(len, trie.labels[bridge + 1:]), 1]
    cores = []
    for l, (v, left, label, right) in enumerate(
            zip(local, trie.lefts, trie.labels, trie.rights)):
        core = np.zeros((bonds[l], dd, bonds[l + 1]), dtype=dtype)
        if l == bridge:
            np.add.at(core, (left, slice(None), right),
                      weights[:, None] * v[label])
        else:
            core[left, :, right] = v[label]
        cores.append(core)
    return TTTensor(tuple(cores), d=isqrt(dd))


def _trie_grams(trie: _Trie) -> list:
    """The right Gram matrices of E = _trie_tt(trie), as
    tt._right_grams(E, E) forms them (core 0 is never read), but read off
    the core entries with no product over those mostly-zero cores.  With
    Gv = V V^H for site l's rows V = trie.local[l], G the Gram right of a
    core and c its entries' labels:
    - right of the bridge entry i is left index i, and the Gram is the
      gather Gv[c][:, c] * G[r][:, r] by the right indices r, O(R^2);
    - left of it entry j is right index j, and the Gram is Gv[c][:, c] * G
      summed over the sorted segments of equal left index on both axes;
    - the bridge core holds one row w_k V[c_k] per outcome k, with right
      index s_k, and the outcomes of each prefix are contiguous.  Per
      prefix p, A_p = (w V[c])_p^T G[s_p], and entry (p, q) sums
      A_p[:, s_k] . conj(w_k V[c_k]) over the outcomes k of prefix q;
      only q >= p is formed, the rest is the Hermitian mirror.
      O(d^2 U (R + P)) for U outcomes and P prefixes, and nothing larger
      than a (U, d*d) block beside the Grams.
    A _row_trie has its bridge at core 0, which is never read, so each
    of its Grams is the first case: Gv[c][:, c] times the Gram right of
    it, a Hadamard product of row Grams, O(B^2) per core for B rows.
    """
    bridge, local = trie.bridge, trie.local
    gv = [v @ v.conj().T for v in local]
    grams = [np.ones((1, 1))]
    for l in range(len(local) - 1, 0, -1):  # core l gives the Gram left of it
        g, c, right = grams[-1], trie.labels[l], trie.rights[l]
        if l > bridge:
            grams.append(np.take(gv[l][c], c, axis=1)
                         * np.take(g[right], right, axis=1))
            continue
        seg = np.flatnonzero(np.diff(trie.lefts[l], prepend=-1))
        if l < bridge:
            h = np.take(gv[l][c], c, axis=1) * g
            grams.append(np.add.reduceat(np.add.reduceat(h, seg, axis=0),
                                         seg, axis=1))
        else:
            wv = trie.weights[:, None] * local[l][c]  # (U, dd)
            wv_h = np.ascontiguousarray(wv.conj().T)
            ends = np.append(seg[1:], len(c))
            out = np.zeros((len(seg), len(seg)), dtype=np.result_type(wv, g))
            # row p from its prefix's outcomes on: the rest is its mirror
            for p, (lo, hi) in enumerate(zip(seg, ends)):
                a_p = wv[lo:hi].T @ g[right[lo:hi]]  # (dd, S)
                t = np.take(a_p, right[lo:], axis=1) * wv_h[:, lo:]
                out[p, p:] = np.add.reduceat(t.sum(axis=0), seg[p:] - lo)
            out += np.triu(out, 1).conj().T
            grams.append(out)
    return grams[::-1]


def outcome_amplitudes(povm: ProductPOVM, state: TTTensor,
                       outcomes) -> np.ndarray:
    """Raw <A_k, state> for a (B, n) batch of 1-based outcomes, as a (B,)
    vector (no clamping; may be negative or complex-residued for
    non-Hermitian iterates): _trie_amplitudes of their _row_trie with the
    fused() rows."""
    _check_shapes(povm, state)
    rows = _outcome_indices(povm, outcomes)
    return _trie_amplitudes(_row_trie(rows, np.ones(len(rows)), povm.fused()),
                            state)


def outcome_amplitude(povm: ProductPOVM, state: TTTensor, outcome) -> complex:
    """Raw <A_k, state> for one outcome: a one-row outcome_amplitudes."""
    return complex(outcome_amplitudes(povm, state, [outcome])[0])


def prob_of_outcome(povm: ProductPOVM, state: TTTensor, outcome,
                    clamp: bool = True) -> float:
    """Probability of one outcome via site-by-site contraction,
    O(n d^2 r^2) per call."""
    amps = outcome_amplitudes(povm, state, [outcome])
    val = float(_real_with_residue_check(amps)[0])
    if clamp:
        arr, _ = clamp_probabilities(np.array([val]))
        return float(arr[0])
    return val


def marginal_prefix_prob(povm: ProductPOVM, state: TTTensor, prefix) -> float:
    """Probability that the first len(prefix) sites produce the given
    indices, with the remaining sites summed out (POVM completeness makes
    the suffix close to the per-site trace map).  An empty prefix returns
    trace(state)."""
    ell = len(prefix)
    if ell > povm.n:
        raise ValueError(f"prefix longer than n={povm.n}")
    idx = _outcome_indices(povm, [prefix], ell)[0]
    transfers = _site_transfers(povm, state)
    envs = _right_environments(transfers)
    v = np.ones(1, dtype=complex)
    for l, i in enumerate(idx):
        v = v @ transfers[l][i]
    val = complex(v @ envs[ell])
    return float(_real_with_residue_check(np.array([val]))[0])


# ---------------------------------------------------------------------------
# max-probability statistic


@dataclass(frozen=True)
class GammaReport:
    """K times the largest outcome probability; `exact` marks exhaustive
    enumeration (beam search yields a certified lower bound)."""

    gamma: float
    argmax_outcome: tuple
    exact: bool
    p_max: float
    k_total: int


def gamma(povm: ProductPOVM, state: TTTensor, method: str = "exhaustive",
          beam_width: int = 64) -> GammaReport:
    """Uniformity statistic gamma = K * max_k p_k.

    ``exhaustive`` enumerates all K outcomes (n <= N_DENSE_MAX);
    ``beam`` sweeps left to right keeping the ``beam_width`` >= 1 highest-
    marginal prefixes, ties broken by the lexicographically smaller
    prefix, and reports a lower bound (exact=False).
    """
    k_total = povm.k_total
    if method == "exhaustive":
        probs = probability_tensor(povm, state)
        flat = int(np.argmax(probs))
        idx = np.unravel_index(flat, probs.shape)
        p_max = float(probs[idx])
        outcome = tuple(int(i) + 1 for i in idx)
        return GammaReport(gamma=k_total * p_max, argmax_outcome=outcome,
                           exact=True, p_max=p_max, k_total=k_total)
    if method != "beam":
        raise ValueError(f"unknown method {method!r}")
    if beam_width < 1:
        raise ValueError(f"beam width must be >= 1, got {beam_width}")
    transfers = _site_transfers(povm, state)
    envs = _right_environments(transfers)
    # the beam: (B, l) 1-based prefixes, their (B, r_l) left bond vectors
    # and (B,) marginals
    prefixes = np.zeros((1, 0), dtype=np.intp)
    lefts = np.ones((1, 1), dtype=complex)
    for trans, env in zip(transfers, envs[1:]):
        k_loc, _, r = trans.shape
        # score the expanded vectors themselves: lefts @ (trans env)^T
        # would round the marginals differently
        vecs = np.einsum("br,krs->bks", lefts, trans)
        margs = (vecs @ env).real.reshape(-1)
        if not np.isfinite(margs).all():
            raise NumericalError(
                "non-finite prefix marginal; the state's cores overflow")
        prefixes = np.column_stack([
            np.repeat(prefixes, k_loc, axis=0),
            np.tile(np.arange(1, k_loc + 1), len(lefts))])
        keep = np.lexsort((*prefixes.T[::-1], -margs))[:beam_width]
        prefixes, lefts, margs = (prefixes[keep],
                                  vecs.reshape(-1, r)[keep], margs[keep])
    p_max = max(float(margs[0]), 0.0)
    outcome = tuple(prefixes[0].tolist())
    return GammaReport(gamma=k_total * p_max, argmax_outcome=outcome,
                       exact=False, p_max=p_max, k_total=k_total)


# ---------------------------------------------------------------------------
# measurement-and-adjoint channel


def sum_channel(povm: ProductPOVM, state: TTTensor, local=None) -> TTTensor:
    """The operator sum_k <A_k, rho> A_k, computed without enumerating
    outcomes: the sum factorizes into per-site superoperators
    S[s', s] = sum_i b_i(s') conj(b_i(s)) applied to each physical index.
    ``local`` as in _site_transfers.  Output ranks equal input ranks."""
    _check_shapes(povm, state)
    if local is None:
        local = povm.fused()
    cores = []
    for bmat, core in zip(local, state.cores):  # bmat: (k_loc, d*d)
        smat = bmat.T @ bmat.conj()  # (d*d, d*d)
        cores.append(np.einsum("ts,rsq->rtq", smat, core))
    return TTTensor(tuple(cores), d=state.d)


# ---------------------------------------------------------------------------
# serialization


def _matrix_from_json(raw, shape: tuple) -> np.ndarray:
    """Complex array of the given shape from nested [re, im] pairs of
    finite JSON numbers; ValueError on any other shape or entry."""
    matrix = _complex_from_json(raw, "POVM element")
    if matrix.shape != shape:
        raise ValueError(
            f"expected a {shape} array of [re, im] number pairs")
    return matrix


def local_povm_to_json_dict(povm: LocalPOVM) -> dict:
    return {"d": povm.d,
            "elements": [_complex_to_json(e) for e in povm.elements]}


def local_povm_from_json_dict(data: dict) -> LocalPOVM:
    if not isinstance(data, dict):
        raise ValueError("a local POVM must be a JSON object")
    d = _json_int(data["d"], "d")
    els = tuple(_matrix_from_json(e, (d, d))
                for e in _json_list(data["elements"], "elements"))
    return LocalPOVM(elements=els, d=d)


def product_povm_to_json_dict(povm: ProductPOVM) -> dict:
    first = povm.sites[0]
    if all(s is first or s == first for s in povm.sites):
        return {"local": local_povm_to_json_dict(first), "repeat": povm.n}
    return {"sites": [local_povm_to_json_dict(s) for s in povm.sites]}


def product_povm_from_json_dict(data: dict) -> ProductPOVM:
    if "local" in data:
        local = local_povm_from_json_dict(data["local"])
        repeat = _json_int(data["repeat"], "repeat")
        if not 1 <= repeat <= MAX_REPEAT:
            raise ValueError(f"repeat must be in 1..{MAX_REPEAT}, got {repeat}")
        return ProductPOVM(sites=(local,) * repeat)
    sites = tuple(local_povm_from_json_dict(s)
                  for s in _json_list(data["sites"], "sites"))
    return ProductPOVM(sites=sites)


def dense_povm_to_json_dict(povm: DensePOVM) -> dict:
    out = {"dim": povm.dim,
           "elements": [_complex_to_json(e) for e in povm.elements]}
    if povm.vectors is not None:
        out["vectors"] = [_complex_to_json(v) for v in povm.vectors]
    return out


def dense_povm_from_json_dict(data: dict) -> DensePOVM:
    dim = _json_int(data["dim"], "dim")
    els = tuple(_matrix_from_json(e, (dim, dim))
                for e in _json_list(data["elements"], "elements"))
    vecs = None
    if "vectors" in data:
        vecs = tuple(_matrix_from_json(v, (dim,))
                     for v in _json_list(data["vectors"], "vectors"))
    return DensePOVM(elements=els, dim=dim, vectors=vecs)


def povm_to_json_dict(povm) -> dict:
    if isinstance(povm, LocalPOVM):
        return {"kind": "local", **local_povm_to_json_dict(povm)}
    if isinstance(povm, ProductPOVM):
        return {"kind": "product", **product_povm_to_json_dict(povm)}
    if isinstance(povm, DensePOVM):
        return {"kind": "dense", **dense_povm_to_json_dict(povm)}
    raise TypeError(f"not a POVM: {type(povm)}")


def povm_from_json_dict(data: dict):
    """POVM from its JSON form; ValueError on a malformed one."""
    if not isinstance(data, dict):
        raise ValueError("POVM must be a JSON object")
    kind = data.get("kind")
    if kind == "local":
        return local_povm_from_json_dict(data)
    if kind == "product":
        return product_povm_from_json_dict(data)
    if kind == "dense":
        return dense_povm_from_json_dict(data)
    raise ValueError(f"unknown POVM kind {kind!r}")


def povm_id(povm) -> str:
    """Stable short identifier derived from the serialized form."""
    digest = _json_sha256(povm_to_json_dict(povm))[:12]
    if isinstance(povm, ProductPOVM):
        return f"product-n{povm.n}-d{povm.d}-{digest}"
    if isinstance(povm, DensePOVM):
        return f"dense-dim{povm.dim}-{digest}"
    return f"local-d{povm.d}-{digest}"
