"""POVM constructions, design checks, and measurement maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpoqst.povm import (
    PROB_CLAMP_TOL,
    DensePOVM,
    GammaReport,
    LocalPOVM,
    NonPhysicalStateError,
    ProductPOVM,
    check_povm,
    check_sic,
    check_t_design,
    clamp_probabilities,
    dense_from_local,
    dense_from_product,
    dual_basis_sic,
    gamma,
    iter_outcomes,
    marginal_prefix_prob,
    measure_map_dense,
    outcome_amplitude,
    outcome_amplitudes,
    povm_from_json_dict,
    povm_id,
    povm_to_json_dict,
    prob_of_outcome,
    probability_tensor,
    sic_qubit,
    sic_qubit_vectors,
    sum_channel,
    sym_projector,
    wh_sic_from_fiducial,
    _outcome_trie,
    _right_environments,
    _row_trie,
    _site_transfers,
    _trie_amplitudes,
    _trie_grams,
    _trie_tt,
)
from mpoqst.states import (
    MPDOGenConfig,
    ghz_density,
    maximally_mixed,
    pure_product,
    random_mpdo,
)
from mpoqst.tt import (
    DenseOperator,
    _right_grams,
    hermitian_basis,
    random_tt,
    tt_from_hermitian_coordinates,
    tt_to_dense,
    tt_to_hermitian_coordinates,
)


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def random_psd(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m @ m.conj().T


def hs(a, b):
    return np.vdot(a, b)


# ---------------------------------------------------------------------------
# qubit SIC


def test_sic_qubit_first_element():
    b = sic_qubit().elements[0]
    assert np.allclose(b, [[0.5, 0.0], [0.0, 0.0]])


def test_sic_qubit_completeness_exact():
    total = sum(sic_qubit().elements)
    assert np.abs(total - np.eye(2)).max() <= 1e-15


def test_sic_qubit_inner_products():
    els = sic_qubit().elements
    assert abs(hs(els[0], els[1]) - 1 / 12) < 1e-15
    assert abs(hs(els[1], els[1]) - 1 / 4) < 1e-15


def test_sic_qubit_is_valid_povm():
    assert check_povm(sic_qubit())


def test_sic_qubit_symmetry_report():
    report = check_sic(dense_from_local(sic_qubit()))
    assert report.element_count_ok
    assert report.trace_dev <= 1e-12  # target 1/2
    assert report.self_dev <= 1e-12  # target 1/4
    assert report.cross_dev <= 1e-12  # target 1/12
    assert report.passes(1e-12)


def test_sic_vectors_generate_elements():
    vecs = sic_qubit_vectors()
    for v, b in zip(vecs, sic_qubit().elements):
        assert np.abs(np.outer(v, v.conj()) / 2 - b).max() < 1e-14


def test_scaled_elements_fail_check():
    bad = LocalPOVM(elements=tuple(0.9 * e for e in sic_qubit().elements), d=2)
    assert not check_povm(bad)


def test_negated_element_fails_check():
    els = list(sic_qubit().elements)
    els[1] = -els[1]
    assert not check_povm(LocalPOVM(elements=tuple(els), d=2))


def test_check_povm_accepts_a_list_of_matrices():
    assert check_povm([np.diag([1.0, 0.0]), [[0, 0], [0, 1]]])
    # the two sum to the identity, but neither is Hermitian
    assert not check_povm([[[0.5, 1.0], [0.0, 0.5]],
                           [[0.5, -1.0], [0.0, 0.5]]])


def test_povm_needs_an_element():
    with pytest.raises(ValueError, match="need at least one element"):
        LocalPOVM(elements=(), d=2)
    with pytest.raises(ValueError, match="need at least one element"):
        DensePOVM(elements=(), dim=2)


# ---------------------------------------------------------------------------
# Weyl-Heisenberg orbits


def test_wh_sic_d2_bundled_fiducial():
    povm = wh_sic_from_fiducial(2)
    assert check_sic(povm).max_dev <= 1e-10
    assert check_povm(povm)


def test_wh_sic_d3_bundled_fiducial():
    povm = wh_sic_from_fiducial(3)
    assert check_sic(povm).max_dev <= 1e-10


def test_wh_orbit_sums_to_identity_even_for_bad_fiducial():
    povm = wh_sic_from_fiducial(2, np.array([1.0, 0.0]))
    total = sum(povm.elements)
    assert np.abs(total - np.eye(2)).max() <= 1e-10
    # the degenerate orbit is not symmetric
    assert check_sic(povm).cross_dev > 0.01


def test_wh_rejects_bad_fiducial():
    with pytest.raises(ValueError):
        wh_sic_from_fiducial(2, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        wh_sic_from_fiducial(17)


# ---------------------------------------------------------------------------
# SIC reports on non-SIC inputs


def test_dense_from_product_caps_the_element_entries():
    # K d^(2n) = 16^n entries for the local SIC: n = 5 builds, n = 6 is
    # refused before any element is built
    povm = dense_from_product(ProductPOVM.local_sic(5))
    assert (povm.k_total, povm.dim) == (4 ** 5, 32)
    with pytest.raises(ValueError, match="16777216 entries"):
        dense_from_product(ProductPOVM.local_sic(6))


def test_iter_outcomes_is_lexicographic():
    two = LocalPOVM(elements=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), d=2)
    povm = ProductPOVM(sites=(sic_qubit(), two, sic_qubit()))
    want = [tuple(int(i) + 1 for i in idx) for idx in np.ndindex(4, 2, 4)]
    got = list(iter_outcomes(povm))
    assert got == want
    assert all(type(i) is int for outcome in got for i in outcome)


def test_product_of_sics_is_not_a_sic():
    # off-diagonal inner products take values {1/144, 1/48, 1/16}, so the
    # worst deviation from the dim-4 symmetric target 1/80 is exactly
    # 1/48 - 1/80 = 1/120
    povm = dense_from_product(ProductPOVM.local_sic(2))
    report = check_sic(povm)
    assert report.element_count_ok
    assert abs(report.cross_dev - 1 / 120) < 1e-12
    assert report.cross_dev > 5e-3


def test_wrong_element_count_flagged():
    ket0 = np.array([[1.0, 0], [0, 0]], dtype=complex)
    ket1 = np.array([[0, 0], [0, 1.0]], dtype=complex)
    basis = DensePOVM(elements=(ket0, ket1), dim=2)
    report = check_sic(basis)
    assert not report.element_count_ok
    assert report.n_elements == 2


# ---------------------------------------------------------------------------
# dual basis


def test_dual_basis_form_d2():
    povm = dense_from_local(sic_qubit())
    duals = dual_basis_sic(povm)
    for a, dual in zip(povm.elements, duals):
        assert np.abs(dual - (6 * a - np.eye(2))).max() < 1e-12


def test_dual_basis_biorthogonality():
    povm = dense_from_local(sic_qubit())
    duals = dual_basis_sic(povm)
    for i, a in enumerate(povm.elements):
        for j, dual in enumerate(duals):
            want = 1.0 if i == j else 0.0
            assert abs(hs(a, dual) - want) < 1e-8


def test_dual_basis_reconstruction():
    povm = dense_from_local(sic_qubit())
    duals = dual_basis_sic(povm)
    rng = np.random.default_rng(1)
    for _ in range(20):
        rho = random_hermitian(2, rng)
        rec = sum(hs(a, rho) * dual for a, dual in zip(povm.elements, duals))
        assert np.abs(rec - rho).max() < 1e-10


def test_dual_basis_rejects_non_sic():
    basis = dense_from_product(ProductPOVM.local_sic(2))
    with pytest.raises(ValueError):
        dual_basis_sic(basis)


def test_dual_reconstruction_maximally_mixed():
    povm = dense_from_local(sic_qubit())
    duals = dual_basis_sic(povm)
    rho = np.eye(2) / 2
    weights = [hs(a, rho) for a in povm.elements]
    assert np.allclose(weights, 0.25)
    rec = sum(w * dual for w, dual in zip(weights, duals))
    assert np.abs(rec - rho).max() < 1e-12


# ---------------------------------------------------------------------------
# symmetric projector and designs


def test_sym_projector_traces():
    assert abs(np.trace(sym_projector(2, 2)) - 3) < 1e-12
    assert abs(np.trace(sym_projector(2, 3)) - 4) < 1e-12


def test_sym_projector_idempotent_hermitian():
    p = sym_projector(4, 2)
    assert np.abs(p @ p - p).max() < 1e-12
    assert np.abs(p - p.conj().T).max() < 1e-12


def test_sym_projector_size_cap():
    with pytest.raises(ValueError):
        sym_projector(32, 3)


def test_qubit_sic_is_2_design():
    vecs = sic_qubit_vectors()
    assert check_t_design(vecs, 1).delta_upper <= 1e-10
    assert check_t_design(vecs, 2).delta_upper <= 1e-10


def test_qubit_sic_not_3_design():
    report = check_t_design(sic_qubit_vectors(), 3)
    assert report.delta_lower >= 0.01
    # the defect of the tetrahedral orbit at third moments is exactly 1/3
    assert abs(report.delta_lower - 1 / 3) < 1e-10
    assert abs(report.delta_upper - 1 / 3) < 1e-10


def test_product_sic_second_moment_defect_is_one():
    # reordering tensor factors shows the deviation operator has
    # eigenvalues 1/90 (nine-fold) and -1/10 on the symmetric subspace,
    # so delta = C(5,2) * 1/10 = 1 exactly
    vecs = sic_qubit_vectors()
    prod = np.stack([np.kron(a, b) for a in vecs for b in vecs])
    report = check_t_design(prod, 2)
    assert abs(report.delta_upper - 1.0) < 1e-9
    assert abs(report.delta_lower - 1.0) < 1e-9


def test_design_lower_bounded_by_upper():
    for s in (1, 2, 3):
        report = check_t_design(sic_qubit_vectors(), s)
        assert report.delta_lower <= report.delta_upper + 1e-12


def test_design_rejects_non_unit_vectors():
    with pytest.raises(ValueError):
        check_t_design(np.array([[1.0, 1.0], [1.0, 0.0]]), 2)


# ---------------------------------------------------------------------------
# moment identities of the measurement map


def test_sic_squared_norm_identity():
    # sum_k <B_k, rho>^2 = (||rho||_F^2 + trace(rho)^2) / 6 for qubits
    povm = dense_from_local(sic_qubit())
    rng = np.random.default_rng(2)
    for _ in range(200):
        rho = random_hermitian(2, rng)
        p = measure_map_dense(povm, DenseOperator.from_matrix(rho))
        want = (np.linalg.norm(rho) ** 2 + np.trace(rho).real ** 2) / 6
        assert abs((p ** 2).sum() - want) < 1e-10


def test_sic_distance_preservation():
    povm = dense_from_local(sic_qubit())
    rng = np.random.default_rng(3)
    for _ in range(50):
        r1 = random_psd(2, rng)
        r1 /= np.trace(r1).real
        r2 = random_psd(2, rng)
        r2 /= np.trace(r2).real
        p = measure_map_dense(povm, DenseOperator.from_matrix(r1 - r2))
        want = np.linalg.norm(r1 - r2) ** 2 / 6
        assert abs((p ** 2).sum() - want) < 1e-10


def _sandwich_holds(vectors, rng, trials=100):
    k, dim = vectors.shape
    delta = check_t_design(vectors, 2).delta_upper
    elements = tuple(dim / k * np.outer(v, v.conj()) for v in vectors)
    povm = DensePOVM(elements=elements, dim=dim)
    for _ in range(trials):
        rho = random_hermitian(dim, rng)
        p = measure_map_dense(povm, DenseOperator.from_matrix(rho))
        val = (p ** 2).sum()
        base = dim * (np.linalg.norm(rho) ** 2 + np.trace(rho).real ** 2) / (
            k * (dim + 1))
        assert val <= (1 + delta) * base + 1e-10
        assert val >= (1 - delta) * base - 1e-10


def test_second_moment_sandwich_dim2():
    _sandwich_holds(sic_qubit_vectors(), np.random.default_rng(4))


def test_second_moment_sandwich_dim4_product_vectors():
    vecs = sic_qubit_vectors()
    prod = np.stack([np.kron(a, b) for a in vecs for b in vecs])
    _sandwich_holds(prod, np.random.default_rng(5))


def test_two_state_correlation_bound():
    # sum_k <A_k, r1><A_k, r2> <= (1+delta) dim (tr tr + tr(r1 r2)) / (K (dim+1))
    povm = dense_from_local(sic_qubit())
    rng = np.random.default_rng(6)
    for _ in range(100):
        r1, r2 = random_psd(2, rng), random_psd(2, rng)
        p1 = measure_map_dense(povm, DenseOperator.from_matrix(r1))
        p2 = measure_map_dense(povm, DenseOperator.from_matrix(r2))
        lhs = (p1 * p2).sum()
        rhs = 2 * (np.trace(r1).real * np.trace(r2).real
                   + np.trace(r1 @ r2).real) / (4 * 3)
        assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# measurement maps on product POVMs


def test_measure_map_identity_state():
    povm = dense_from_local(sic_qubit())
    p = measure_map_dense(povm, DenseOperator.from_matrix(np.eye(2) / 2))
    assert np.allclose(p, 0.25)


def test_measure_map_product_basis_state():
    povm = ProductPOVM.local_sic(2)
    state = tt_to_dense(pure_product("00"))
    p = measure_map_dense(povm, state).reshape(4, 4)
    assert abs(p[0, 0] - 0.25) < 1e-12
    # per-site factors: <B_1, |0><0|> = 1/2, <B_i, |0><0|> = 1/6 otherwise
    assert abs(p[0, 1] - 0.5 / 6) < 1e-12
    assert abs(p[1, 1] - 1 / 36) < 1e-12


def test_measure_map_matches_kron_oracle():
    povm = ProductPOVM.local_sic(2)
    rng = np.random.default_rng(7)
    rho = random_hermitian(4, rng)
    p = measure_map_dense(povm, DenseOperator.from_matrix(rho))
    dense_els = dense_from_product(povm).elements
    want = np.array([hs(a, rho).real for a in dense_els])
    assert np.abs(p - want).max() < 1e-12


def test_prob_of_outcome_matches_dense_enumeration():
    povm = ProductPOVM.local_sic(3)
    rho = random_mpdo(MPDOGenConfig(n=3, kappa=2, purity=10, seed=8))
    p = measure_map_dense(povm, tt_to_dense(rho)).reshape(4, 4, 4)
    for outcome in [(1, 1, 1), (2, 3, 4), (4, 4, 4), (3, 1, 2)]:
        want = p[tuple(i - 1 for i in outcome)]
        assert abs(prob_of_outcome(povm, rho, outcome) - want) < 1e-10


def test_probabilities_sum_to_one():
    povm = ProductPOVM.local_sic(3)
    rho = random_mpdo(MPDOGenConfig(n=3, kappa=2, purity=10, seed=9))
    total = probability_tensor(povm, rho).sum()
    assert abs(total - 1.0) < 1e-8


def test_mixed_state_outcome_probability():
    povm = ProductPOVM.local_sic(4)
    mm = maximally_mixed(4)
    assert abs(prob_of_outcome(povm, mm, (1, 2, 3, 4)) - 4.0 ** -4) < 1e-14


def test_outcome_index_validation():
    povm = ProductPOVM.local_sic(2)
    mm = maximally_mixed(2)
    with pytest.raises(ValueError):
        prob_of_outcome(povm, mm, (0, 1))
    with pytest.raises(ValueError):
        prob_of_outcome(povm, mm, (1, 5))


def _amplitude_loop(povm, state, outcome):
    """Per-outcome reference contraction: one transfer matrix per site."""
    v = np.ones(1, dtype=complex)
    for site, core, i in zip(povm.sites, state.cores, outcome):
        element = site.elements[i - 1].reshape(-1, order="F").conj()
        v = v @ np.tensordot(element, core, axes=[[0], [1]])
    return v[0]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_outcome_amplitudes_match_loop_and_dense(n):
    povm = ProductPOVM.local_sic(n)
    rho = random_mpdo(MPDOGenConfig(n=n, kappa=2, purity=10, seed=20 + n))
    outcomes = list(iter_outcomes(povm))
    amps = outcome_amplitudes(povm, rho, outcomes)
    assert amps.shape == (povm.k_total,)
    assert np.abs(amps - measure_map_dense(povm, tt_to_dense(rho))).max() < 1e-12
    loop = np.array([_amplitude_loop(povm, rho, o) for o in outcomes])
    assert np.abs(amps - loop).max() < 1e-12


def test_outcome_amplitudes_complex_for_non_hermitian_input():
    povm = ProductPOVM.local_sic(3)
    state = random_tt(3, 2, (3, 3), seed=5)
    outcomes = np.array(list(iter_outcomes(povm)))
    amps = outcome_amplitudes(povm, state, outcomes)
    matrix = tt_to_dense(state).matrix
    want = np.array([hs(a, matrix) for a in dense_from_product(povm).elements])
    assert np.abs(want.imag).max() > 1e-2 * np.abs(want).max()
    scale = np.abs(want).max()
    assert np.abs(amps - want).max() < 1e-12 * scale
    loop = np.array([_amplitude_loop(povm, state, o) for o in outcomes])
    assert np.abs(amps - loop).max() < 1e-12 * scale


def test_outcome_amplitude_is_one_row_of_the_batch():
    povm = ProductPOVM.local_sic(3)
    state = random_tt(3, 2, (2, 3), seed=40)  # complex, not Hermitian
    matrix = tt_to_dense(state).matrix
    for outcome, element in zip(iter_outcomes(povm),
                                dense_from_product(povm).elements):
        got = outcome_amplitude(povm, state, outcome)
        assert type(got) is complex
        assert abs(got - hs(element, matrix)) < 1e-12


def test_prob_of_outcome_without_clamp_keeps_a_negative_probability():
    povm = ProductPOVM.local_sic(2)
    state = random_tt(2, 2, (3,), seed=41, hermitian=True)  # not PSD
    probs = probability_tensor(povm, state)
    assert probs.min() < -PROB_CLAMP_TOL
    outcome = tuple(int(i) + 1 for i in
                    np.unravel_index(np.argmin(probs), probs.shape))
    assert abs(prob_of_outcome(povm, state, outcome, clamp=False)
               - probs.min()) < 1e-12
    with pytest.raises(NonPhysicalStateError):
        prob_of_outcome(povm, state, outcome)


def test_outcome_amplitudes_empty_batch_and_validation():
    povm = ProductPOVM.local_sic(2)
    mm = maximally_mixed(2)
    assert outcome_amplitudes(povm, mm, []).shape == (0,)
    assert outcome_amplitudes(povm, mm, np.zeros((0, 2), int)).shape == (0,)
    for bad in ([(0, 1)], [(1, 5)], [(1, 2), (1, -1)], [(1, 2, 3)], [(1,)],
                [(1, 2), (1,)], [(1, 2 ** 70)]):
        with pytest.raises(ValueError):
            outcome_amplitudes(povm, mm, bad)
    with pytest.raises(ValueError):
        outcome_amplitudes(ProductPOVM.local_sic(3), mm, [(1, 1, 1)])


def test_outcome_indices_must_be_integers():
    # float and bool indices were truncated: (1.7, 2, 3) read as (1, 2, 3)
    # and (True, True, True) as (1, 1, 1)
    povm = ProductPOVM.local_sic(3)
    mm = maximally_mixed(3)
    for bad in ([[1.7, 2, 3]], [[True, True, True]], [[1.0, 2.0, 3.0]]):
        with pytest.raises(ValueError, match="integers"):
            outcome_amplitudes(povm, mm, bad)
    for bad in ([1.9], (True,), np.array([1.0, 2.0])):
        with pytest.raises(ValueError, match="integers"):
            marginal_prefix_prob(povm, mm, bad)
    for bad in ((0,), (1, 5)):
        with pytest.raises(ValueError, match="out of range"):
            marginal_prefix_prob(povm, mm, bad)
    assert marginal_prefix_prob(povm, mm, np.array([1, 2])) == \
        marginal_prefix_prob(povm, mm, (1, 2))


def _amplitude_case(kind):
    """(povm, state, 1-based outcome rows, in no sorted order) of the
    prefix-tree edge cases."""
    rng = np.random.default_rng(len(kind))
    sic = sic_qubit()
    if kind == "pauli6-sic-n7":  # k_loc 6 on every other site
        povm = ProductPOVM(sites=tuple(_pauli6() if l % 2 else sic
                                       for l in range(7)))
    elif kind == "qutrit-n4":
        povm = ProductPOVM(sites=(LocalPOVM(wh_sic_from_fiducial(3).elements,
                                            d=3),) * 4)
    else:
        povm = ProductPOVM.local_sic({"sic-n1": 1, "sic-n2": 2,
                                      "one-outcome": 5, "long-prefix": 6,
                                      "complex-n5": 5}[kind])
    n, d = povm.n, povm.d
    if kind == "complex-n5":
        state = random_tt(n, d, (3,) * (n - 1), seed=7)
    else:
        state = random_mpdo(MPDOGenConfig(n=n, kappa=2, purity=10, seed=n,
                                          d=d))
    if kind == "one-outcome":
        return povm, state, np.array([(2, 3, 1, 4, 1)])
    if kind == "long-prefix":  # one prefix per bond
        return povm, state, np.array([(1, 2, 3, 4, i, j)
                                      for j in (4, 2) for i in (3, 1, 4)])
    # repeated rows included
    return povm, state, rng.integers(1, np.array(povm.k_locs) + 1,
                                     size=(300, n))


@pytest.mark.parametrize("kind", [
    "sic-n1", "sic-n2", "one-outcome", "long-prefix", "pauli6-sic-n7",
    "qutrit-n4", "complex-n5"])
def test_trie_amplitudes_match_the_per_outcome_loop(kind):
    povm, state, outcomes = _amplitude_case(kind)
    loop = np.array([_amplitude_loop(povm, state, o) for o in outcomes])
    scale = np.abs(loop).max()
    amps = outcome_amplitudes(povm, state, outcomes)
    assert np.abs(amps - loop).max() <= 1e-14 * scale
    if kind != "complex-n5":
        # the estimator's form: real coordinates, rows in the tree's order
        trie = _outcome_trie(outcomes, np.ones(len(outcomes)), povm,
                             povm.hermitian_coordinates())
        coords = _trie_amplitudes(trie, tt_to_hermitian_coordinates(state))
        assert coords.dtype == np.float64
        order = np.lexsort(outcomes.T[::-1])
        assert np.abs(coords - loop[order]).max() <= 1e-14 * scale


# ---------------------------------------------------------------------------
# per-row kernels of short outcome lists, against dense oracles


def _row_povm(kind, n) -> ProductPOVM:
    if kind == "pauli6":  # k_loc 6 > d^2 on every other site
        return ProductPOVM(sites=tuple(_pauli6() if l % 2 == 0 else sic_qubit()
                                       for l in range(n)))
    if kind == "qutrit":
        return ProductPOVM(sites=(LocalPOVM(wh_sic_from_fiducial(3).elements,
                                            d=3),) * n)
    return ProductPOVM.local_sic(n)


@st.composite
def _row_cases(draw):
    """(povm, local, (B, n) 0-based rows, weights): SIC, pauli6 or qutrit
    sites at n = 1..5, fused or coordinate rows, up to 12 distinct rows
    drawn with repetition from 2 values per site, so that rows share
    prefixes and suffixes, and weights that may be zero or negative."""
    kind = draw(st.sampled_from(["sic", "pauli6", "qutrit"]))
    povm = _row_povm(kind, draw(st.integers(1, 5)))
    local = draw(st.sampled_from([povm.fused(), povm.hermitian_coordinates()]))
    values = [sorted(draw(st.sets(st.integers(0, k - 1), min_size=2,
                                  max_size=2))) for k in povm.k_locs]
    row = st.tuples(*(st.sampled_from(v) for v in values))
    pool = draw(st.lists(row, min_size=1, max_size=12, unique=True))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    weight = st.one_of(st.just(0.0), st.floats(-2, 2, allow_nan=False))
    weights = draw(st.lists(weight, min_size=len(picks),
                            max_size=len(picks)))
    return povm, local, np.array(picks, dtype=np.intp), np.array(weights)


def _tree_tt(povm, rows, weights, local):
    """(E, its Grams) of the rows' outcome prefix tree."""
    trie = _outcome_trie(rows + 1, weights, povm, local)
    return _trie_tt(trie), _trie_grams(trie)


def _tree_amplitudes(povm, rows, local, state):
    """The amplitudes of the rows' outcome prefix tree and the rows in
    its (sorted) order."""
    trie = _outcome_trie(rows + 1, np.ones(len(rows)), povm, local)
    return (_trie_amplitudes(trie, state),
            rows[np.lexsort(rows.T[::-1])])


def _diagonal_tt(povm, rows, weights, local):
    """(G, its Grams) of the rows' diagonal-core TT."""
    trie = _row_trie(rows, weights, local)
    return _trie_tt(trie), _trie_grams(trie)


# the two constructors of an outcome list's entries: its own rows,
# unshared, or its prefix tree
SUM_KERNELS = {"rows": _diagonal_tt, "tree": _tree_tt}
AMPLITUDE_KERNELS = {
    "rows": lambda povm, rows, local, state: (_trie_amplitudes(
        _row_trie(rows, np.ones(len(rows)), local), state), rows),
    "tree": _tree_amplitudes}


def _dense_element(povm, row) -> np.ndarray:
    m = np.ones((1, 1))
    for site, i in zip(povm.sites, row):
        m = np.kron(m, site.elements[i])
    return m


@pytest.mark.parametrize("kernel", SUM_KERNELS.values(),
                         ids=SUM_KERNELS.keys())
@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_row_cases())
def test_rows_tt_is_the_dense_sum_and_its_grams_the_walk(kernel, case):
    povm, local, rows, weights = case
    grad, grams = kernel(povm, rows, weights, local)
    assert grad.n == povm.n and grad.cores[0].dtype == local[0].dtype
    walk = _right_grams(grad, grad)
    assert len(grams) == len(walk)
    for g, w in zip(grams, walk):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()
    if local[0].dtype == np.float64:  # coordinate rows
        grad = tt_from_hermitian_coordinates(grad)
    want = sum(w * _dense_element(povm, r) for w, r in zip(weights, rows))
    got = tt_to_dense(grad).matrix
    assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)


@pytest.mark.parametrize("kernel", AMPLITUDE_KERNELS.values(),
                         ids=AMPLITUDE_KERNELS.keys())
@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_row_cases(), seed=st.integers(0, 10 ** 6))
def test_row_amplitudes_match_the_dense_map(kernel, case, seed):
    povm, local, rows, _ = case
    state = random_mpdo(MPDOGenConfig(n=povm.n, kappa=2, purity=3,
                                      seed=seed, d=povm.d))
    probs = measure_map_dense(povm, tt_to_dense(state))
    coords = local[0].dtype == np.float64
    state = tt_to_hermitian_coordinates(state) if coords else state
    got, rows = kernel(povm, rows, local, state)
    want = probs[np.ravel_multi_index(rows.T, povm.k_locs)]
    assert got.shape == (len(rows),)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(probs).max()
    # an empty outcome list has no amplitudes
    assert kernel(povm, rows[:0], local, state)[0].shape == (0,)


def test_fused_is_built_once_and_read_only():
    local = sic_qubit()
    fused = local.fused()
    assert fused is local.fused()
    assert not fused.flags.writeable
    want = np.stack([e.reshape(-1, order="F") for e in local.elements])
    assert np.array_equal(fused, want)
    assert "_fused" not in repr(local)
    assert set(povm_to_json_dict(local)) == {"kind", "d", "elements"}


# ---------------------------------------------------------------------------
# marginals


def test_marginal_empty_prefix_is_trace():
    povm = ProductPOVM.local_sic(3)
    rho = random_mpdo(MPDOGenConfig(n=3, kappa=2, purity=10, seed=10))
    assert abs(marginal_prefix_prob(povm, rho, ()) - 1.0) < 1e-10


def test_marginal_mixed_state():
    povm = ProductPOVM.local_sic(4)
    mm = maximally_mixed(4)
    for ell in range(5):
        want = 4.0 ** -ell
        assert abs(marginal_prefix_prob(povm, mm, (1,) * ell) - want) < 1e-12


def test_marginal_equals_suffix_sum():
    povm = ProductPOVM.local_sic(3)
    rho = random_mpdo(MPDOGenConfig(n=3, kappa=2, purity=10, seed=11))
    for prefix in [(1, 2), (3, 4), (2, 2)]:
        want = sum(prob_of_outcome(povm, rho, prefix + (i,))
                   for i in range(1, 5))
        assert abs(marginal_prefix_prob(povm, rho, prefix) - want) < 1e-10


def test_full_prefix_equals_outcome_probability():
    povm = ProductPOVM.local_sic(3)
    rho = random_mpdo(MPDOGenConfig(n=3, kappa=2, purity=10, seed=12))
    out = (2, 4, 1)
    assert abs(marginal_prefix_prob(povm, rho, out)
               - prob_of_outcome(povm, rho, out)) < 1e-12


# ---------------------------------------------------------------------------
# gamma statistic


def test_gamma_maximally_mixed_is_exactly_one():
    for n in (2, 3, 4):
        report = gamma(ProductPOVM.local_sic(n), maximally_mixed(n))
        assert report.exact
        assert report.gamma == 1.0


def test_gamma_basis_state_is_2_to_n():
    for n in (2, 3, 4):
        report = gamma(ProductPOVM.local_sic(n), pure_product("0" * n))
        assert report.gamma == 2.0 ** n
        assert report.argmax_outcome == (1,) * n


def test_gamma_exact_consistency():
    povm = ProductPOVM.local_sic(3)
    rho = random_mpdo(MPDOGenConfig(n=3, kappa=2, purity=10, seed=13))
    report = gamma(povm, rho)
    probs = probability_tensor(povm, rho)
    assert report.gamma == report.k_total * probs.max()
    assert report.gamma >= 1.0


def test_gamma_beam_lower_bound_and_match_rate():
    hits = 0
    for seed in range(50):
        rho = random_mpdo(MPDOGenConfig(n=4, kappa=2, purity=10,
                                        seed=100 + seed))
        povm = ProductPOVM.local_sic(4)
        exact = gamma(povm, rho, method="exhaustive")
        beam = gamma(povm, rho, method="beam", beam_width=16)
        assert beam.gamma <= exact.gamma + 1e-12
        assert not beam.exact
        if abs(beam.gamma - exact.gamma) < 1e-12:
            hits += 1
    assert hits >= 45  # beam finds the argmax in >= 90% of draws


def test_gamma_exhaustive_size_guard():
    povm = ProductPOVM.local_sic(11)
    with pytest.raises(ValueError):
        gamma(povm, maximally_mixed(11), method="exhaustive")


def _gamma_beam_loop(povm, state, beam_width):
    """The per-prefix beam that gamma(method="beam") replaced, frozen as a
    reference: a Python list of (marginal, prefix, vector) candidates,
    sorted at every site."""
    transfers = _site_transfers(povm, state)
    envs = _right_environments(transfers)
    beam = [(1.0, (), np.ones(1, dtype=complex))]
    for l in range(povm.n):
        candidates = []
        for _, prefix, left in beam:
            vecs = np.einsum("r,krs->ks", left, transfers[l])
            margs = (vecs @ envs[l + 1]).real
            for i in range(povm.sites[l].k_loc):
                candidates.append((float(margs[i]), prefix + (i + 1,),
                                   vecs[i]))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        beam = candidates[:beam_width]
    p_max, outcome, _ = beam[0]
    p_max = max(p_max, 0.0)
    return GammaReport(gamma=povm.k_total * p_max, argmax_outcome=outcome,
                       exact=False, p_max=p_max, k_total=povm.k_total)


def _pauli6() -> LocalPOVM:
    vecs = np.array([[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j]])
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    return LocalPOVM(tuple(np.outer(v, v.conj()) / 3 for v in vecs), d=2)


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_gamma_beam_matches_the_prefix_loop(n):
    # identical reports, ties included: the maximally mixed state and
    # the GHZ state tie many prefixes, broken by the smaller prefix
    sic, pauli6 = sic_qubit(), _pauli6()
    povms = [ProductPOVM.local_sic(n),
             ProductPOVM(sites=tuple(pauli6 if l % 2 else sic
                                     for l in range(n)))]
    states = [maximally_mixed(n), pure_product(("01" * n)[:n])]
    states += [ghz_density(n)] if n > 1 else []
    states += [random_mpdo(MPDOGenConfig(n=n, kappa=kappa, purity=purity,
                                         seed=300 + seed))
               for seed in range(3) for kappa, purity in ((1, 10), (2, 1))]
    for povm in povms:
        for state in states:
            for width in (1, 3, 16, 64):
                got = gamma(povm, state, method="beam", beam_width=width)
                want = _gamma_beam_loop(povm, state, width)
                assert got == want
                assert all(type(i) is int for i in got.argmax_outcome)


@pytest.mark.parametrize("width", [0, -3])
def test_gamma_beam_rejects_width_below_one(width):
    # width 0 ended in an IndexError, and -3 silently dropped candidates
    with pytest.raises(ValueError, match="beam width"):
        gamma(ProductPOVM.local_sic(3), maximally_mixed(3), method="beam",
              beam_width=width)


# ---------------------------------------------------------------------------
# channel


def test_sum_channel_matches_brute_force():
    povm = ProductPOVM.local_sic(2)
    rho = random_tt(2, 2, (3,), seed=14)
    got = tt_to_dense(sum_channel(povm, rho)).matrix
    dense_els = dense_from_product(povm).elements
    dm = tt_to_dense(rho).matrix
    want = sum(hs(a, dm) * a for a in dense_els)
    assert np.abs(got - want).max() < 1e-10


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_sum_channel_preserves_ranks(seed):
    povm = ProductPOVM.local_sic(3)
    rho = random_tt(3, 2, (2, 3), seed=seed)
    assert sum_channel(povm, rho).ranks == rho.ranks


def test_sum_channel_gram_positive():
    from mpoqst.tt import tt_adjoint, tt_add, tt_scale, tt_inner

    povm = ProductPOVM.local_sic(3)
    raw = random_tt(3, 2, (2, 2), seed=15)
    rho = tt_scale(tt_add(raw, tt_adjoint(raw)), 0.5)
    val = tt_inner(rho, sum_channel(povm, rho))
    assert val.real >= -1e-12
    assert abs(val.imag) < 1e-10


# ---------------------------------------------------------------------------
# clamp rule


def test_clamp_rule():
    p, n_clamped = clamp_probabilities(np.array([0.5, -5e-11, 0.5]))
    assert n_clamped == 1
    assert p[1] == 0.0
    with pytest.raises(NonPhysicalStateError):
        clamp_probabilities(np.array([0.5, -1e-8, 0.5]))


# ---------------------------------------------------------------------------
# serialization


def test_povm_json_round_trips():
    for povm in (sic_qubit(), ProductPOVM.local_sic(3),
                  wh_sic_from_fiducial(2)):
        back = povm_from_json_dict(povm_to_json_dict(povm))
        assert povm_id(back) == povm_id(povm)


def test_product_povm_shared_local_serialization():
    povm = ProductPOVM.local_sic(4)
    data = povm_to_json_dict(povm)
    assert data["repeat"] == 4  # one shared local POVM, not four copies


def test_local_povm_equality_by_value():
    a, b = sic_qubit(), sic_qubit()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != LocalPOVM(tuple(0.5 * e for e in a.elements), d=2)
    assert a != "local-sic"
    # equal distinct sites serialize to the shared form, with one id
    povm = ProductPOVM(sites=(a, b))
    assert povm == ProductPOVM.local_sic(2)
    assert povm_to_json_dict(povm)["repeat"] == 2
    assert povm_id(povm) == povm_id(ProductPOVM.local_sic(2))


@pytest.mark.parametrize("local", [sic_qubit(),
                                   LocalPOVM(wh_sic_from_fiducial(3).elements,
                                             d=3)])
def test_hermitian_coordinates_reconstruct_fused(local):
    coords = local.hermitian_coordinates()
    assert coords.dtype == float and not coords.flags.writeable
    assert coords is local.hermitian_coordinates()  # built once
    assert np.abs(coords @ hermitian_basis(local.d) - local.fused()).max() \
        <= 1e-15


def test_hermitian_coordinates_reject_non_hermitian_element():
    els = list(sic_qubit().elements)
    els[1] = els[1] + np.array([[0, 1e-9], [0, 0]])
    local = LocalPOVM(tuple(els), d=2)  # constructing still succeeds
    with pytest.raises(ValueError, match="not Hermitian"):
        local.hermitian_coordinates()


def test_outcome_enumeration_is_lexicographic():
    povm = ProductPOVM.local_sic(2)
    outcomes = list(iter_outcomes(povm))
    assert outcomes[0] == (1, 1)
    assert outcomes[1] == (1, 2)
    assert outcomes[-1] == (4, 4)
    assert outcomes == sorted(outcomes)
