"""TT / MPO arithmetic against dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpoqst.tt import (
    DenseOperator,
    TTTensor,
    _orthogonalize_left,
    _orthogonalize_right,
    _right_grams,
    cap_ranks,
    fuse_dense_to_tensor,
    fuse_local_operator,
    hermitian_basis,
    is_hermitian,
    load_tt,
    max_tt_ranks,
    random_tt,
    save_tt,
    smallest_tt_singular_value,
    tt_add,
    tt_adjoint,
    tt_element,
    tt_from_dense,
    tt_from_hermitian_coordinates,
    tt_from_json_dict,
    tt_inner,
    tt_norm,
    tt_round,
    tt_round_sum,
    tt_scale,
    tt_sub,
    tt_to_dense,
    tt_to_hermitian_coordinates,
    tt_to_json_dict,
    tt_trace,
    tt_zeros,
)
from mpoqst.states import maximally_mixed, pure_product


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def dense(tt):
    return tt_to_dense(tt).matrix


# ---------------------------------------------------------------------------
# conversions and the fused-index convention


def test_single_site_fusion_convention():
    # core entries (a, b, c, e) at fused s = 1..4 give [[a, c], [b, e]]
    core = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex).reshape(1, 4, 1)
    m = dense(TTTensor((core,), d=2))
    assert np.allclose(m, [[1.0, 3.0], [2.0, 4.0]])


@pytest.mark.parametrize("shapes, message", [
    ([(1, 4)], "core 0 has shape"),
    ([(1, 3, 1)], "core 0 has shape"),
    ([(2, 4, 1)], "boundary ranks must be 1"),
    ([(1, 4, 2), (3, 4, 1)], "rank mismatch between cores 0 and 1"),
])
def test_tt_rejects_malformed_cores(shapes, message):
    with pytest.raises(ValueError, match=message):
        TTTensor(tuple(np.zeros(s) for s in shapes), d=2)


def test_identity_product_round_trip():
    tt = maximally_mixed(3)
    assert np.abs(dense(tt) - np.eye(8) / 8).max() < 1e-15


def test_from_dense_lossless_round_trip():
    rng = np.random.default_rng(0)
    rho = random_hermitian(8, rng)
    tt = tt_from_dense(rho, truncation_tol=1e-12)
    assert np.abs(dense(tt) - rho).max() < 1e-10


def test_from_dense_requires_exactly_one_mode():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError):
        tt_from_dense(rho)
    with pytest.raises(ValueError):
        tt_from_dense(rho, target_ranks=(1,), truncation_tol=1e-6)


@pytest.mark.parametrize("tol", [-0.5, float("nan"), float("inf")])
def test_rounding_rejects_a_negative_or_non_finite_tolerance(tol):
    # -0.5 used to round as +0.5: the budget is squared
    with pytest.raises(ValueError, match="truncation_tol"):
        tt_from_dense(np.eye(4) / 4, truncation_tol=tol)
    with pytest.raises(ValueError, match="truncation_tol"):
        tt_round(maximally_mixed(2), truncation_tol=tol)


def test_from_dense_rank_cap_validation():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError):
        tt_from_dense(rho, target_ranks=(5,))  # cap at n=2 cut is 4


def test_from_dense_dense_cap():
    with pytest.raises(ValueError, match="dense cap"):
        tt_to_dense(maximally_mixed(11))


def test_dense_operator_holds_the_dense_cap():
    # the cap is checked where a dense operator is made, so every dense
    # path refuses n > N_DENSE_MAX with the same message
    DenseOperator(np.eye(1024), n=10)
    with pytest.raises(ValueError, match="n=11 exceeds dense cap 10"):
        DenseOperator(np.eye(2048), n=11)
    with pytest.raises(ValueError, match="dense cap"):
        DenseOperator.from_matrix(np.eye(2048))
    with pytest.raises(ValueError, match="dense cap"):
        tt_from_dense(np.eye(2048), target_ranks=(1,) * 10)


def test_in_class_input_exact_recovery():
    # a random rank-(4, 4) MPO at n=3 is reproduced exactly
    truth = random_tt(3, 2, (4, 4), seed=3)
    rho = dense(truth)
    back = tt_from_dense(rho, target_ranks=(4, 4))
    assert np.abs(dense(back) - rho).max() < 1e-10


def test_element_evaluation_matches_dense():
    rng = np.random.default_rng(7)
    for seed in range(5):
        n = int(rng.integers(1, 5))
        ranks = tuple(int(r) for r in
                      np.minimum(rng.integers(1, 4, size=max(n - 1, 0)),
                                 max_tt_ranks(n, 2))) if n > 1 else ()
        tt = random_tt(n, 2, ranks, seed=seed)
        m = dense(tt)
        for _ in range(10):
            rows = tuple(int(i) for i in rng.integers(0, 2, size=n))
            cols = tuple(int(j) for j in rng.integers(0, 2, size=n))
            flat_r = int("".join(map(str, rows)), 2)
            flat_c = int("".join(map(str, cols)), 2)
            assert abs(tt_element(tt, rows, cols) - m[flat_r, flat_c]) < 1e-12


# ---------------------------------------------------------------------------
# inner products, norms, traces


def test_inner_matches_dense_trace():
    a = random_tt(3, 2, (3, 2), seed=1)
    b = random_tt(3, 2, (2, 4), seed=2)
    want = np.trace(dense(a).conj().T @ dense(b))
    assert abs(tt_inner(a, b) - want) < 1e-10 * abs(want)


def test_inner_maximally_mixed():
    for n in (1, 2, 4):
        mm = maximally_mixed(n)
        assert abs(tt_inner(mm, mm) - 2.0 ** (-n)) < 1e-14


def _left_walk_inner(a, b):
    """Frozen copy of tt_inner's former left-to-right tensordot walk."""
    env = np.ones((1, 1))
    for ca, cb in zip(a.cores, b.cores):
        tmp = np.tensordot(env, ca.conj(), axes=[[0], [0]])
        env = np.tensordot(tmp, cb, axes=[[0, 1], [0, 1]])
    return complex(env[0, 0])


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_inner_matches_the_left_walk(n, d):
    # the Gram walk reorders the sums only: real and complex cores, and
    # unequal ranks on the two sides
    a = random_tt(n, d, cap_ranks(3, n, d), seed=n)
    b = random_tt(n, d, cap_ranks(([5, 2] * n)[:n - 1], n, d), seed=10 + n)
    real = [TTTensor(tuple(c.real for c in x.cores), d=d) for x in (a, b)]
    for x, y in [(a, b), (real[0], b), (a, real[1]), tuple(real), (b, a)]:
        got, want = tt_inner(x, y), _left_walk_inner(x, y)
        assert abs(got - want) <= 1e-14 * tt_norm(x) * tt_norm(y)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_gram_positivity(seed):
    tt = random_tt(3, 2, (2, 2), seed=seed)
    val = tt_inner(tt, tt)
    assert val.real >= 0
    assert abs(val.imag) <= 1e-10 * max(val.real, 1e-12)


def test_norm_values():
    assert abs(tt_norm(maximally_mixed(4)) - 0.25) < 1e-14
    assert abs(tt_norm(pure_product("000")) - 1.0) < 1e-14
    a = random_tt(3, 2, (3, 3), seed=5)
    want = np.linalg.norm(dense(a))
    assert abs(tt_norm(a) - want) < 1e-10 * want


def test_trace_matches_dense():
    assert abs(tt_trace(maximally_mixed(5)) - 1.0) < 1e-14
    a = random_tt(3, 2, (4, 4), seed=6)
    assert abs(tt_trace(a) - np.trace(dense(a))) < 1e-12


# ---------------------------------------------------------------------------
# linear structure


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_add_scale_linearity(seed_a, seed_b):
    a = random_tt(3, 2, (2, 3), seed=seed_a)
    b = random_tt(3, 2, (3, 2), seed=seed_b)
    s = tt_add(a, tt_scale(b, 2.0 - 1.0j))
    assert np.abs(dense(s) - (dense(a) + (2.0 - 1.0j) * dense(b))).max() < 1e-10
    assert abs(tt_trace(s) - (tt_trace(a) + (2.0 - 1.0j) * tt_trace(b))) < 1e-12


def test_scale_scales_trace_exactly():
    a = random_tt(2, 2, (3,), seed=9)
    assert abs(tt_trace(tt_scale(a, 3.5)) - 3.5 * tt_trace(a)) < 1e-12


def test_add_ranks_are_sums():
    a = random_tt(4, 2, (2, 3, 2), seed=1)
    b = random_tt(4, 2, (1, 2, 1), seed=2)
    assert tt_add(a, b).ranks == (1, 3, 5, 3, 1)


def test_self_cancellation_rounds_to_zero():
    a = random_tt(3, 2, (3, 3), seed=11)
    z = tt_round(tt_sub(a, a), truncation_tol=1e-12)
    assert tt_norm(z) <= 1e-12 * tt_norm(a)


# ---------------------------------------------------------------------------
# rounding


def test_round_identity_on_exact_rank():
    a = random_tt(3, 2, (3, 3), seed=13)
    r = tt_round(a, target_ranks=(3, 3))
    assert tt_norm(tt_sub(r, a)) <= 1e-12 * tt_norm(a)


def test_round_duplicate_sum():
    a = random_tt(3, 2, (2, 2), seed=14)
    doubled = tt_round(tt_add(a, tt_scale(a, 1.0)), target_ranks=(2, 2))
    assert np.abs(dense(doubled) - 2 * dense(a)).max() < 1e-10


def test_round_matches_fresh_decomposition():
    a = random_tt(3, 2, (4, 4), seed=15)
    rounded = tt_round(a, target_ranks=(2, 2))
    fresh = tt_from_dense(dense(a), target_ranks=(2, 2))
    err_round = np.linalg.norm(dense(rounded) - dense(a))
    err_fresh = np.linalg.norm(dense(fresh) - dense(a))
    assert abs(err_round - err_fresh) < 1e-8


def test_round_tolerance_contract():
    a = random_tt(4, 2, (4, 4, 4), seed=16)
    for tol in (1e-1, 1e-3, 1e-8):
        r = tt_round(a, truncation_tol=tol)
        assert tt_norm(tt_sub(a, r)) <= tol * tt_norm(a) * (1 + 1e-10)


def test_round_zero_tensor():
    z = tt_scale(random_tt(3, 2, (2, 2), seed=1), 0.0)
    r = tt_round(z, truncation_tol=1e-10)
    assert r.ranks == (1, 1, 1, 1)
    assert tt_norm(r) == 0.0


# ---------------------------------------------------------------------------
# rounding a sum through the right Gram matrices of one summand


def _rel_dist(x, ref):
    return tt_norm(tt_sub(x, ref)) / tt_norm(ref)


def test_right_orthogonalize_rows_orthonormal():
    a = random_tt(5, 2, (4, 9, 9, 4), seed=17)
    cores = list(a.cores)
    _orthogonalize_right(cores, 4)
    b = TTTensor(tuple(cores), d=2)
    assert _rel_dist(b, a) <= 1e-13
    assert b.cores[0].shape[0] == 1
    for core in b.cores[1:]:
        q = core.reshape(core.shape[0], -1)
        assert q.flags.c_contiguous
        assert np.abs(q @ q.conj().T - np.eye(q.shape[0])).max() <= 1e-13


def _random_chain(n, d, ranks, seed):
    """Complex TT with random cores and the given internal ranks, which
    may pass the structural caps (random_tt rejects that)."""
    rng = np.random.default_rng(seed)
    full = (1,) + tuple(ranks) + (1,)
    return TTTensor(tuple(rng.standard_normal((full[l], d * d, full[l + 1]))
                          + 1j * rng.standard_normal((full[l], d * d,
                                                      full[l + 1]))
                          for l in range(n)), d=d)


@pytest.mark.parametrize("n, d, ranks_a, ranks_b", [
    (1, 2, (), ()),
    (2, 2, (2,), (3,)),
    (2, 2, (4,), (4,)),           # both at the structural cap
    (3, 2, (4, 4), (2, 3)),       # residual cut to the free directions
    (3, 3, (5, 5), (4, 8)),
    (6, 2, (4, 4, 4, 4, 4), (4, 16, 64, 16, 4)),
    (6, 2, (2, 3, 4, 3, 2), (4, 13, 40, 11, 4)),
    (4, 2, (2, 3, 2), (6, 20, 7)),  # b's bonds over the caps (4, 16, 4)
])
def test_round_sum_matches_round_of_sum(n, d, ranks_a, ranks_b):
    a = random_tt(n, d, ranks_a, seed=18)
    b = tt_scale(_random_chain(n, d, ranks_b, seed=19), 0.3)
    grams = _right_grams(b, b)
    caps = max_tt_ranks(n, d)
    for target in (caps, tuple(min(2, c) for c in caps)):
        for left in (a, tt_zeros(n, d)):
            want = tt_round(tt_add(left, b), target_ranks=target)
            got = tt_round_sum(left, b, grams, target)
            assert got.ranks == want.ranks
            assert _rel_dist(got, want) <= 1e-12


@pytest.mark.parametrize("n, d, ranks", [
    (1, 2, ()), (2, 3, (5,)), (3, 2, (3, 6)), (4, 2, (2, 5, 3))])
def test_right_grams_match_brute_force(n, d, ranks):
    # G_l[i, j] is the inner product of the right parts that start from
    # bond indices i and j, each a TT of the cores right of bond l
    b = _random_chain(n, d, ranks, seed=23)
    grams = _right_grams(b, b)
    assert len(grams) == n
    assert np.array_equal(grams[-1], np.ones((1, 1)))
    # tt_scale changes only core 0, which no Gram reads on either side
    s = tt_scale(b, -2.5)
    assert all(np.array_equal(x, y) for x, y in
               zip(_right_grams(s, s), grams))
    for l in range(n - 1):
        rest = b.cores[l + 2:]
        parts = [TTTensor((b.cores[l + 1][i:i + 1],) + rest, d=d)
                 for i in range(b.ranks[l + 1])]
        want = np.array([[tt_inner(pj, pi) for pj in parts] for pi in parts])
        assert np.abs(grams[l] - want).max() <= 1e-12 * np.abs(want).max()


def test_round_sum_of_one_site_is_the_sum():
    a, b = random_tt(1, 2, (), seed=30), random_tt(1, 2, (), seed=31)
    got = tt_round_sum(a, b, _right_grams(b, b), ())
    assert np.array_equal(got.cores[0], a.cores[0] + b.cores[0])


def test_round_sum_validates_like_round():
    a = random_tt(3, 2, (2, 2), seed=20)
    b = random_tt(3, 2, (3, 3), seed=21)
    grams = _right_grams(b, b)
    with pytest.raises(ValueError):
        tt_round_sum(a, b, grams, (5, 5))
    c = random_tt(4, 2, (2, 2, 2), seed=22)
    with pytest.raises(ValueError):
        tt_round_sum(a, c, _right_grams(c, c), (2, 2))
    # a sum that cancels rounds to the exact zero, as in tt_round
    b = tt_scale(b, 1.0 / tt_norm(b))
    z = tt_round_sum(tt_scale(b, -1.0), b, _right_grams(b, b), (2, 2))
    assert z.ranks == (1, 1, 1, 1) and tt_norm(z) == 0.0


# ---------------------------------------------------------------------------
# real coordinates of Hermitian operators


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hermitian_basis_is_real_orthonormal(d):
    u = hermitian_basis(d)
    assert np.abs(u @ u.conj().T - np.eye(d * d)).max() <= 1e-15
    for row in u:  # each row is the fused form of a Hermitian matrix
        m = row.reshape(d, d, order="F")
        assert np.array_equal(m, m.conj().T)
    h = fuse_local_operator(random_hermitian(d, np.random.default_rng(d)))
    coords = h @ u.conj().T
    assert np.abs(coords.imag).max() <= 1e-15
    assert np.abs(coords.real @ u - h).max() <= 1e-14


def test_tt_from_hermitian_coordinates_maps_the_physical_leg():
    rng = np.random.default_rng(24)
    cores = [rng.standard_normal(s) for s in [(1, 9, 3), (3, 9, 2), (2, 9, 1)]]
    got = tt_from_hermitian_coordinates(TTTensor(tuple(cores), d=3))
    u = hermitian_basis(3)
    want = TTTensor(tuple(np.einsum("ras,at->rts", c, u) for c in cores),
                    d=3)
    assert _rel_dist(got, want) <= 1e-15
    assert is_hermitian(got, 1e-14)


@pytest.mark.parametrize("n, ranks", [(1, ()), (3, (3, 2))])
def test_tt_to_hermitian_coordinates_gives_the_hermitian_part(n, ranks):
    a = random_tt(n, 3, ranks, seed=26)  # not Hermitian
    x = tt_to_hermitian_coordinates(a)
    assert all(core.dtype == np.float64 for core in x.cores)
    assert x.ranks == tuple(2 * r if 0 < l < n else 1
                            for l, r in enumerate(a.ranks))
    m = dense(a)
    back = tt_from_hermitian_coordinates(x)
    assert np.abs(dense(back) - (m + m.conj().T) / 2).max() \
        <= 1e-13 * np.abs(m).max()


def test_orthogonalize_left_then_right_cuts_bonds_to_the_caps():
    # bonds 6 and 7 exceed the n=3, d=2 caps (4, 4)
    rng = np.random.default_rng(25)
    cores = [rng.standard_normal(s) for s in [(1, 4, 6), (6, 4, 7), (7, 4, 1)]]
    a = TTTensor(tuple(cores), d=2)
    _orthogonalize_left(cores, 4)
    for core in cores[:-1]:
        q = core.reshape(-1, core.shape[2])
        assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-13
    _orthogonalize_right(cores, 4)
    b = TTTensor(tuple(cores), d=2)
    assert b.ranks == (1, 4, 4, 1)
    assert _rel_dist(b, a) <= 1e-13


# ---------------------------------------------------------------------------
# decomposition optimality


def test_single_cut_truncation_is_optimal():
    # with one cut, the sequential decomposition equals the best rank-r
    # truncation of the sole unfolding
    rng = np.random.default_rng(17)
    rho = random_hermitian(4, rng)
    tt = tt_from_dense(rho, target_ranks=(2,))
    err = np.linalg.norm(dense(tt) - rho)
    sv = np.linalg.svd(fuse_dense_to_tensor(rho, 2, 2).reshape(4, 4),
                       compute_uv=False)
    best = np.sqrt((sv[2:] ** 2).sum())
    assert abs(err - best) < 1e-10


def test_multi_cut_quasi_optimality():
    # error^2 <= (n-1) * max over cuts of the optimal per-cut truncation,
    # the per-cut optima being lower bounds on the best rank-constrained
    # approximation
    rng = np.random.default_rng(18)
    for trial in range(10):
        rho = random_hermitian(8, rng)
        ranks = (2, 2)
        tt = tt_from_dense(rho, target_ranks=ranks)
        err_sq = np.linalg.norm(dense(tt) - rho) ** 2
        tensor = fuse_dense_to_tensor(rho, 3, 2)
        cut_best_sq = []
        for l, r in enumerate(ranks, start=1):
            sv = np.linalg.svd(tensor.reshape(4 ** l, -1), compute_uv=False)
            cut_best_sq.append((sv[r:] ** 2).sum())
        assert err_sq <= 2 * max(cut_best_sq) + 1e-12


def test_perturbation_stability_bound():
    # decomposing an exactly low-rank operator plus a small perturbation E
    # stays within ||E||^2 + 600 n ||E||^3 / sigma_min of the original
    rng = np.random.default_rng(19)
    trials = 0
    for seed in range(60):
        n = int(rng.integers(2, 5))
        rank = int(rng.integers(1, 4))
        ranks = tuple(min(rank, c) for c in max_tt_ranks(n, 2))
        dim = 2 ** n
        base = random_hermitian(dim, rng)
        truth = tt_from_dense(base, target_ranks=ranks)
        sigma = smallest_tt_singular_value(truth, ranks)
        if sigma < 1e-8:
            continue
        e = random_hermitian(dim, rng)
        e *= 0.9 * sigma / (500 * n * np.linalg.norm(e))
        e_norm = np.linalg.norm(e)
        approx = tt_from_dense(dense(truth) + e, target_ranks=ranks)
        err_sq = np.linalg.norm(dense(approx) - dense(truth)) ** 2
        bound = e_norm ** 2 + 600 * n * e_norm ** 3 / sigma
        assert err_sq <= bound * (1 + 1e-9)
        trials += 1
    assert trials >= 50


# ---------------------------------------------------------------------------
# adjoint / hermiticity


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_adjoint_involution(seed):
    a = random_tt(3, 2, (2, 3), seed=seed)
    twice = tt_adjoint(tt_adjoint(a))
    for c1, c2 in zip(a.cores, twice.cores):
        assert np.array_equal(c1, c2)


def test_adjoint_matches_dense():
    a = random_tt(2, 2, (4,), seed=21)
    assert np.abs(dense(tt_adjoint(a)) - dense(a).conj().T).max() < 1e-12


def test_is_hermitian():
    a = random_tt(3, 2, (2, 2), seed=22)
    h = tt_scale(tt_add(a, tt_adjoint(a)), 0.5)
    assert is_hermitian(h, 1e-10)
    assert not is_hermitian(tt_scale(a, 1.0), 1e-10)


def test_random_hermitian_tt_of_one_site_is_the_hermitian_part():
    # one site has no bond to round
    a = random_tt(1, 2, (), seed=33)
    h = random_tt(1, 2, (), seed=33, hermitian=True)
    assert np.abs(dense(h) - (dense(a) + dense(a).conj().T) / 2).max() < 1e-15


# ---------------------------------------------------------------------------
# TT singular values


def test_smallest_singular_value_product_state():
    # single unfolding of a product operator has one nonzero singular
    # value, equal to its Frobenius norm
    mm = maximally_mixed(2)
    assert abs(smallest_tt_singular_value(mm, (1,)) - 0.5) < 1e-12
    assert abs(smallest_tt_singular_value(mm, (1,))
               - tt_norm(mm)) < 1e-12


def test_smallest_singular_value_of_one_site_is_inf():
    # one site has no internal cut
    a = random_tt(1, 2, (), seed=32)
    assert smallest_tt_singular_value(a, ()) == np.inf


def test_smallest_singular_value_rank_deficiency():
    mm = maximally_mixed(2)  # true ranks (1,)
    assert smallest_tt_singular_value(mm, (2,)) < 1e-12


def test_smallest_singular_value_matches_dense_svd():
    a = random_tt(3, 2, (3, 3), seed=23)
    tensor = fuse_dense_to_tensor(dense(a), 3, 2)
    vals = []
    for l, r in enumerate((3, 3), start=1):
        sv = np.linalg.svd(tensor.reshape(4 ** l, -1), compute_uv=False)
        vals.append(sv[r - 1])
    assert abs(smallest_tt_singular_value(a, (3, 3)) - min(vals)) < 1e-10


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip(tmp_path):
    a = random_tt(3, 2, (2, 4), seed=24)
    back = tt_from_json_dict(tt_to_json_dict(a))
    for c1, c2 in zip(a.cores, back.cores):
        assert np.array_equal(c1, c2)
    path = tmp_path / "state.json"
    save_tt(a, path)
    loaded = load_tt(path)
    for c1, c2 in zip(a.cores, loaded.cores):
        assert np.array_equal(c1, c2)


# ---------------------------------------------------------------------------
# elementwise fidelity sweep


def test_core_product_fidelity_sweep():
    rng = np.random.default_rng(25)
    for trial in range(100):
        n = int(rng.integers(1, 5))
        caps = max_tt_ranks(n, 2)
        ranks = tuple(int(rng.integers(1, c + 1)) for c in caps)
        tt = random_tt(n, 2, ranks, seed=trial)
        m = dense(tt)
        rows = tuple(int(i) for i in rng.integers(0, 2, size=n))
        cols = tuple(int(j) for j in rng.integers(0, 2, size=n))
        flat_r = sum(b << (n - 1 - i) for i, b in enumerate(rows))
        flat_c = sum(b << (n - 1 - i) for i, b in enumerate(cols))
        assert abs(tt_element(tt, rows, cols) - m[flat_r, flat_c]) < 1e-12
