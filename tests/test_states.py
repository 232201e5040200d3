"""Random MPDO generator and reference states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpoqst.states import (
    MAX_PURITY,
    MAX_SITE_ENTRIES,
    MPDOGenConfig,
    _draw_mpdo,
    ghz_density,
    kappa_for_rank,
    maximally_mixed,
    pure_product,
    purity,
    random_mpdo,
)
from mpoqst.tt import (
    fuse_index,
    is_hermitian,
    tt_norm,
    tt_to_dense,
    tt_trace,
)


def _draw_mpdo_loop(config, seed):
    """The per-(i, j) np.kron core draw that _draw_mpdo replaced, frozen as
    a reference."""
    n, d, kappa, kl = config.n, config.d, config.kappa, config.purity
    rng = np.random.default_rng(seed)
    cores = []
    for l in range(n):
        kl_left = 1 if l == 0 else kappa
        kl_right = 1 if l == n - 1 else kappa
        a_cores = (rng.uniform(-1.0, 1.0, size=(d, kl, kl_left, kl_right))
                   + 1j * rng.uniform(-1.0, 1.0,
                                      size=(d, kl, kl_left, kl_right)))
        core = np.zeros((kl_left ** 2, d * d, kl_right ** 2), dtype=complex)
        for i in range(d):
            for j in range(d):
                x = np.zeros((kl_left ** 2, kl_right ** 2), dtype=complex)
                for a in range(kl):
                    x += np.kron(a_cores[i, a], a_cores[j, a].conj())
                core[:, fuse_index(i, j, d), :] = x
        cores.append(core)
    return cores


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kappa", [1, 2, 3])
@pytest.mark.parametrize("purity_", [1, 5, 10])
def test_draw_matches_the_kron_loop(d, kappa, purity_):
    # bit for bit, so every seeded truth stays where it was
    config = MPDOGenConfig(n=4, kappa=kappa, purity=purity_, d=d)
    seed = 1000 * d + 10 * kappa + purity_
    got = _draw_mpdo(config, seed).cores
    want = _draw_mpdo_loop(config, seed)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_config_validation():
    with pytest.raises(ValueError):
        MPDOGenConfig(n=0)
    with pytest.raises(ValueError):
        MPDOGenConfig(n=2, kappa=0)
    with pytest.raises(ValueError):
        MPDOGenConfig(n=2, purity=0)


@pytest.mark.parametrize("kappa, purity_, d, limit", [
    (1, MAX_PURITY + 1, 2, str(MAX_PURITY)),
    (1, 10 ** 15, 2, str(MAX_PURITY)),
    (3000, 10, 2, str(MAX_SITE_ENTRIES)),  # the core
    (15, MAX_PURITY, 2, str(MAX_SITE_ENTRIES)),  # the Kraus draw
])
def test_config_rejects_draws_beyond_the_caps(kappa, purity_, d, limit):
    # both used to end in numpy's _ArrayMemoryError
    with pytest.raises(ValueError, match=limit):
        MPDOGenConfig(n=2, kappa=kappa, purity=purity_, d=d)


def test_config_accepts_the_sizes_in_use():
    for kappa in (1, 2, 3):
        for purity_ in (1, 10, MAX_PURITY):
            MPDOGenConfig(n=16, kappa=kappa, purity=purity_, d=3)


def test_kappa_for_rank_matches_the_float_rules():
    # the rule of the random start, ceil(sqrt(max rank)), and of the
    # experiment truths, round(sqrt) when exact and ceil(sqrt) otherwise
    for rank in range(1, 20001):
        root = np.sqrt(rank)
        truth = int(round(root))
        if truth * truth != rank:
            truth = int(np.ceil(root))
        assert kappa_for_rank(rank) == int(np.ceil(root)) == truth


def test_pure_draw_has_unit_norm():
    state = random_mpdo(MPDOGenConfig(n=3, kappa=1, purity=1, seed=0))
    assert abs(tt_norm(state) - 1.0) < 1e-10
    assert state.ranks == (1, 1, 1, 1)


def test_bond_dimension_is_kappa_squared():
    for kappa in (1, 2):
        state = random_mpdo(MPDOGenConfig(n=4, kappa=kappa, purity=10, seed=1))
        assert all(r == kappa ** 2 for r in state.ranks[1:-1])


def test_generated_states_are_physical():
    for seed in range(50):
        n = 2 + seed % 3
        state = random_mpdo(MPDOGenConfig(n=n, kappa=2, purity=10, seed=seed))
        assert abs(tt_trace(state) - 1.0) < 1e-10
        assert is_hermitian(state, 1e-10)
        evals = np.linalg.eigvalsh(tt_to_dense(state).matrix)
        assert evals.min() >= -1e-10


def test_trace_chain_matches_dense_before_normalization():
    from mpoqst.states import _draw_mpdo

    for seed in range(10):
        config = MPDOGenConfig(n=3, kappa=2, purity=4, seed=seed)
        raw = _draw_mpdo(config, seed)
        chain = tt_trace(raw)
        dense = np.trace(tt_to_dense(raw).matrix)
        assert abs(chain - dense) <= 1e-10 * abs(dense)


def test_determinism_per_seed():
    a = random_mpdo(MPDOGenConfig(n=3, kappa=2, purity=10, seed=5))
    b = random_mpdo(MPDOGenConfig(n=3, kappa=2, purity=10, seed=5))
    for c1, c2 in zip(a.cores, b.cores):
        assert np.array_equal(c1, c2)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_purity_in_physical_range(seed):
    state = random_mpdo(MPDOGenConfig(n=3, kappa=2, purity=10, seed=seed))
    val = purity(state)
    assert 0.0 < val <= 1.0 + 1e-10


def test_more_kraus_terms_is_more_mixed():
    wins = 0
    for seed in range(20):
        mixed = purity(random_mpdo(MPDOGenConfig(n=3, kappa=2, purity=10,
                                                 seed=seed)))
        purer = purity(random_mpdo(MPDOGenConfig(n=3, kappa=2, purity=1,
                                                 seed=seed)))
        if mixed < purer:
            wins += 1
    assert wins == 20


# ---------------------------------------------------------------------------
# reference states


def test_maximally_mixed_properties():
    mm = maximally_mixed(3)
    assert mm.ranks == (1, 1, 1, 1)
    assert abs(tt_trace(mm) - 1.0) < 1e-14
    assert abs(purity(mm) - 1 / 8) < 1e-14


def test_pure_product_pattern():
    state = pure_product("01")
    want = np.zeros((4, 4))
    want[1, 1] = 1.0
    assert np.abs(tt_to_dense(state).matrix - want).max() < 1e-15
    assert state.ranks == (1, 1, 1)


def test_pure_product_rejects_bad_digit():
    with pytest.raises(ValueError):
        pure_product("02")


def _ghz_kron_loop(n):
    """The hand-built chain and per-(i, j) np.kron cores that ghz_density
    replaced, frozen as a reference."""
    cores = []
    for l in range(n):
        m = np.zeros((2, 1 if l == 0 else 2, 1 if l == n - 1 else 2),
                     dtype=complex)
        if l == 0:
            m[0, 0, 0] = m[1, 0, 1] = 1.0
        elif l == n - 1:
            m[0, 0, 0] = m[1, 1, 0] = 1.0
        else:
            m[0, 0, 0] = m[1, 1, 1] = 1.0
        rl, rr = m.shape[1], m.shape[2]
        core = np.zeros((rl * rl, 4, rr * rr), dtype=complex)
        for i in range(2):
            for j in range(2):
                core[:, fuse_index(i, j, 2), :] = np.kron(m[i], m[j].conj())
        cores.append(core / 2.0 if l == 0 else core)
    return cores


@pytest.mark.parametrize("n", range(2, 8))
def test_ghz_matches_the_kron_loop(n):
    got = ghz_density(n).cores
    want = _ghz_kron_loop(n)
    assert all(g.dtype == w.dtype and np.array_equal(g, w)
               for g, w in zip(got, want))


def test_ghz_density_matrix():
    dense = tt_to_dense(ghz_density(2)).matrix
    want = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            want[i, j] = 0.5
    assert np.abs(dense - want).max() < 1e-14


def test_ghz_is_pure_and_physical():
    g = ghz_density(3)
    assert abs(tt_trace(g) - 1.0) < 1e-12
    assert abs(purity(g) - 1.0) < 1e-12
    assert is_hermitian(g, 1e-12)
    psi = np.zeros(8)
    psi[0] = psi[7] = 1 / np.sqrt(2)
    assert np.abs(tt_to_dense(g).matrix - np.outer(psi, psi)).max() < 1e-14
