"""Least-squares estimator: loss, gradient, projections, descent loops."""

import dataclasses
import math

import numpy as np
import pytest

from mpoqst import estimator, tt
from mpoqst.estimator import (
    STEP_PRESETS,
    EstimatorConfig,
    _zero_outcome_filler,
    empirical_operator,
    loss,
    loss_dense,
    outcome_sum_tt,
    pgd,
    preset_schedule,
    project_mpo,
    project_to_simplex,
    psd_project,
    psgd,
    random_init,
    recovery_error,
    spectral_init,
)
from mpoqst.povm import (
    LocalPOVM,
    ProductPOVM,
    _outcome_trie,
    _trie_grams,
    _trie_tt,
    dense_from_product,
    iter_outcomes,
    outcome_amplitudes,
    sic_qubit,
    sum_channel,
    wh_sic_from_fiducial,
)
from mpoqst.sampling import (
    OutcomeRecord,
    population_record,
    sample_enumerate,
    sample_sequential,
)
from mpoqst.states import MPDOGenConfig, maximally_mixed, random_mpdo
from mpoqst.tt import (
    DenseOperator,
    NumericalError,
    TTTensor,
    _check_compatible,
    _orthogonalize_right,
    _right_grams,
    _rounding_mode,
    _truncate_left_to_right,
    cap_ranks,
    hermitian_basis,
    is_hermitian,
    max_tt_ranks,
    random_tt,
    tt_add,
    tt_adjoint,
    tt_from_hermitian_coordinates,
    tt_inner,
    tt_norm,
    tt_round,
    tt_scale,
    tt_sub,
    tt_to_dense,
    tt_to_hermitian_coordinates,
    tt_trace,
    tt_zeros,
)

# Frozen from the dense reference run (n=3, rank 1, M=1e5, random init,
# diminishing schedule, seeds below): final recovery error of the descent.
PGD_N3_REFERENCE_ERROR = 0.009651

# Frozen from the per-outcome implementation of PSGD (one amplitude
# contraction per outcome, the filler pool listed as tuples): the final
# recovery error of test_psgd_final_error_pinned_n5's run.
PSGD_N5_REFERENCE_ERROR = 0.06111405041165265


def _mpdo(n, seed, kappa=2, purity=10):
    return random_mpdo(MPDOGenConfig(n=n, kappa=kappa, purity=purity,
                                     seed=seed))


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


# ---------------------------------------------------------------------------
# outcome sums / empirical operator


def test_outcome_sum_matches_kron_sum():
    povm = ProductPOVM.local_sic(2)
    dense_els = dense_from_product(povm).elements
    outcomes = [(1, 1), (2, 3), (4, 4), (3, 1)]
    weights = [0.5, -0.25, 1.5, 0.1]
    got = tt_to_dense(outcome_sum_tt(outcomes, weights, povm)).matrix
    flat = {o: i for i, o in enumerate(iter_outcomes(povm))}
    want = sum(w * dense_els[flat[o]] for o, w in zip(outcomes, weights))
    assert np.abs(got - want).max() < 1e-12


def _trie_cores_by_tuple_sets(outcomes, weights, povm, local):
    """_trie_tt's cores as they were built from Python sets of outcome-tuple
    slices, one outcome at a time."""
    n, dd = povm.n, povm.d * povm.d
    pairs = sorted(zip((tuple(o) for o in outcomes), weights))
    bridge = (n + 1) // 2
    dtype = local[0].dtype

    def prefix_basis(l):
        return sorted({o[:l] for o, _ in pairs})

    def suffix_basis(l):
        return sorted({o[l:] for o, _ in pairs})

    cores = []
    for l in range(1, n + 1):
        if l < bridge:
            left, right = prefix_basis(l - 1), prefix_basis(l)
            idx_l = {q: i for i, q in enumerate(left)}
            core = np.zeros((len(left), dd, len(right)), dtype=dtype)
            for ridx, q in enumerate(right):
                core[idx_l[q[:-1]], :, ridx] = local[l - 1][q[-1] - 1]
        elif l == bridge:
            left, right = prefix_basis(l - 1), suffix_basis(l)
            idx_l = {q: i for i, q in enumerate(left)}
            idx_r = {c: i for i, c in enumerate(right)}
            core = np.zeros((len(left), dd, len(right)), dtype=dtype)
            for o, w in pairs:
                core[idx_l[o[:l - 1]], :, idx_r[o[l:]]] += (
                    w * local[l - 1][o[l - 1] - 1])
        else:
            left, right = suffix_basis(l - 1), suffix_basis(l)
            idx_r = {c: i for i, c in enumerate(right)}
            core = np.zeros((len(left), dd, len(right)), dtype=dtype)
            for lidx, c in enumerate(left):
                core[lidx, :, idx_r[c[1:]]] = local[l - 1][c[0] - 1]
        cores.append(core)
    return cores


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_trie_cores_match_tuple_set_builder(n):
    povm = ProductPOVM.local_sic(n)
    rec = sample_sequential(povm, _mpdo(n, seed=80 + n), 3000, seed=81)
    for local in ([site.hermitian_coordinates() for site in povm.sites],
                  [site.fused() for site in povm.sites]):
        got = _trie_tt(_outcome_trie(rec.outcomes, rec.p_hat, povm,
                                     local)).cores
        want = _trie_cores_by_tuple_sets(
            list(map(tuple, rec.outcomes.tolist())), list(rec.p_hat), povm,
            local)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("n, batch", [(5, 32), (8, 32), (8, 7)])
def test_trie_cores_match_tuple_set_builder_on_batches(n, batch):
    # PSGD's batches: unsorted outcomes, partly unobserved, real
    # coefficients on the complex fused vectors
    povm = ProductPOVM.local_sic(n)
    rng = np.random.default_rng(n + batch)
    outcomes = rng.integers(1, 5, size=(4 * batch, n))
    outcomes = np.unique(outcomes, axis=0)[:batch]
    outcomes = outcomes[rng.permutation(len(outcomes))]
    coeffs = rng.standard_normal(len(outcomes))
    local = [site.fused() for site in povm.sites]
    got = _trie_tt(_outcome_trie(outcomes, coeffs, povm, local)).cores
    want = _trie_cores_by_tuple_sets(outcomes.tolist(), coeffs, povm, local)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_outcome_sum_single_site():
    povm = ProductPOVM.local_sic(1)
    got = tt_to_dense(outcome_sum_tt([(1,), (3,)], [2.0, 1.0], povm)).matrix
    want = 2.0 * povm.sites[0].elements[0] + povm.sites[0].elements[2]
    assert np.abs(got - want).max() < 1e-13


def test_outcome_sum_rejects_an_extra_weight():
    # the third weight has no outcome: it must not drop out silently
    with pytest.raises(ValueError, match="weights"):
        outcome_sum_tt([(1, 1), (2, 3)], [0.5, 0.25, 9.0],
                       ProductPOVM.local_sic(2))


def test_outcome_sum_rejects_a_missing_weight():
    with pytest.raises(ValueError, match="weights"):
        outcome_sum_tt([(1, 1), (2, 3)], [0.5], ProductPOVM.local_sic(2))


def test_empirical_operator_matches_brute_force():
    povm = ProductPOVM.local_sic(3)
    rho = _mpdo(3, seed=1)
    rec = sample_enumerate(povm, rho, 700, seed=2)
    got = tt_to_dense(empirical_operator(rec, povm)).matrix
    dense_els = dense_from_product(povm).elements
    flat = {o: i for i, o in enumerate(iter_outcomes(povm))}
    want = sum(w * dense_els[flat[o]] for o, w in rec.weights().items())
    assert np.abs(got - want).max() < 1e-12


def test_empirical_operator_rank_caps():
    povm = ProductPOVM.local_sic(6)
    rho = _mpdo(6, seed=3, kappa=1)
    rec = sample_sequential(povm, rho, 3000, seed=4)
    emp = empirical_operator(rec, povm)
    caps = (4, 16, 64, 16, 4)
    assert all(r <= c for r, c in zip(emp.ranks[1:-1], caps))


def _pauli6():
    """The six Pauli eigenprojectors / 3: a qubit POVM with k_loc > d^2."""
    vecs = np.array([[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j]])
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    return LocalPOVM(tuple(np.outer(v, v.conj()) / 3 for v in vecs), d=2)


def _povm_and_record(kind, n):
    local = {"sic": sic_qubit,
             "qutrit": lambda: LocalPOVM(wh_sic_from_fiducial(3).elements,
                                         d=3),
             "pauli6": _pauli6}[kind]()
    povm = ProductPOVM(sites=(local,) * n)
    rho = random_mpdo(MPDOGenConfig(n=n, kappa=2, purity=10, seed=90 + n,
                                    d=local.d))
    return povm, sample_sequential(povm, rho, 3000, seed=91 + n)


def _complex_outcome_sum(outcomes, weights, povm):
    """outcome_sum_tt as the fused complex path used it: complex
    prefix-tree cores, bonds over the structural caps rounded away."""
    out = outcome_sum_tt(outcomes, weights, povm)
    if any(r > c for r, c in zip(out.ranks[1:-1],
                                 max_tt_ranks(povm.n, povm.d))):
        out = tt_round(out, truncation_tol=1e-15)
    return out


def _complex_empirical_operator(record, povm):
    """E as it was built before the real-coordinate path: complex
    prefix-tree cores, then a right-to-left QR sweep."""
    weights = record.weights()
    outcomes = sorted(weights)
    cores = list(_complex_outcome_sum(
        outcomes, [weights[o] for o in outcomes], povm).cores)
    _orthogonalize_right(cores, povm.d * povm.d)
    return TTTensor(tuple(cores), d=povm.d)


@pytest.mark.parametrize("kind, n", [
    ("sic", 1), ("sic", 2), ("sic", 5), ("sic", 8), ("qutrit", 4),
    ("pauli6", 6),  # prefix bonds over the caps: the left sweep cuts them
])
def test_empirical_operator_matches_complex_construction(kind, n):
    povm, rec = _povm_and_record(kind, n)
    want = _complex_empirical_operator(rec, povm)
    got = empirical_operator(rec, povm)
    assert tt_norm(tt_sub(got, want)) <= 1e-12 * tt_norm(want)
    assert all(r <= w for r, w in zip(got.ranks, want.ranks))
    for core in got.cores[1:]:  # right-orthonormal rows
        q = core.reshape(core.shape[0], -1)
        assert np.abs(q @ q.conj().T - np.eye(q.shape[0])).max() <= 1e-12


@pytest.mark.parametrize("kind, n", [("sic", 5), ("qutrit", 3)])
def test_empirical_operator_real_in_hermitian_coordinates(kind, n):
    povm, rec = _povm_and_record(kind, n)
    u = hermitian_basis(povm.d)
    for core in empirical_operator(rec, povm).cores:
        coords = np.einsum("rsq,as->raq", core, u.conj())
        assert np.abs(coords.imag).max() <= 1e-14 * np.abs(coords).max()


def test_empirical_operator_rejects_non_hermitian_element():
    els = list(sic_qubit().elements)
    els[2] = els[2] + np.array([[1e-9j, 0], [0, 0]])
    povm = ProductPOVM(sites=(LocalPOVM(tuple(els), d=2),) * 2)
    rec = OutcomeRecord(counts={(1, 2): 3, (3, 4): 1}, m_shots=4,
                        povm_id="", seed=0)
    with pytest.raises(ValueError, match="not Hermitian"):
        empirical_operator(rec, povm)


@pytest.mark.parametrize("init", ["random", "spectral"])
def test_dense_pgd_rejects_non_hermitian_element(init):
    # every path reads the record's tree in Hermitian coordinates, the
    # dense backend too
    els = list(sic_qubit().elements)
    els[2] = els[2] + np.array([[1e-9j, 0], [0, 0]])
    povm = ProductPOVM(sites=(LocalPOVM(tuple(els), d=2),) * 2)
    rec = OutcomeRecord(counts={(1, 2): 3, (3, 4): 1}, m_shots=4,
                        povm_id="", seed=0)
    config = EstimatorConfig(ranks=2, init=init, max_iters=2,
                             backend="dense")
    with pytest.raises(ValueError, match="not Hermitian"):
        pgd(rec, povm, config)


def _mixed_povm_and_record(n):
    # Pauli-6 on every other site: bonds pass their structural caps
    povm = ProductPOVM(sites=tuple(_pauli6() if l % 2 else sic_qubit()
                                   for l in range(n)))
    return povm, sample_sequential(povm, _mpdo(n, seed=94), 3000, seed=95)


def _counts_record(povm, counts):
    return OutcomeRecord(counts=counts, m_shots=sum(counts.values()),
                         povm_id=povm.identifier(), seed=0)


def _one_outcome_case():
    povm = ProductPOVM.local_sic(5)
    return povm, _counts_record(povm, {(2, 3, 1, 4, 1): 7})


def _long_prefix_case():
    # every outcome shares the prefix (1, 2, 3, 4): one prefix per bond
    povm = ProductPOVM.local_sic(6)
    counts = {(1, 2, 3, 4, i, j): i + 2 * j for i in (1, 3, 4) for j in (2, 4)}
    return povm, _counts_record(povm, counts)


GRAM_CASES = {
    "sic-n1": lambda: _povm_and_record("sic", 1),
    "sic-n2": lambda: _povm_and_record("sic", 2),  # no prefix core
    "sic-n3": lambda: _povm_and_record("sic", 3),
    "sic-n5": lambda: _povm_and_record("sic", 5),
    "sic-n8": lambda: _povm_and_record("sic", 8),
    "sic-n10": lambda: _povm_and_record("sic", 10),
    "pauli6-n4": lambda: _povm_and_record("pauli6", 4),
    "pauli6-n6": lambda: _povm_and_record("pauli6", 6),
    "qutrit-n3": lambda: _povm_and_record("qutrit", 3),
    "pauli6-sic-n7": lambda: _mixed_povm_and_record(7),
    "one-outcome": _one_outcome_case,
    "long-prefix": _long_prefix_case,
}


def _assert_grams_match(got, want):
    # entrywise, relative to each Gram's largest entry
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()


@pytest.mark.parametrize("case", GRAM_CASES.values(), ids=GRAM_CASES.keys())
def test_trie_grams_match_dense_oracle(case):
    # the Grams of E read off the trie against tt._right_grams(E, E),
    # which multiplies E's dense cores
    povm, rec = case()
    trie = _outcome_trie(rec.outcomes, rec.p_hat, povm,
                         povm.hermitian_coordinates())
    emp = _trie_tt(trie)
    _assert_grams_match(_trie_grams(trie), _right_grams(emp, emp))


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_trie_grams_of_complex_cores_match_dense_oracle(n):
    # the fused (complex) rows of a PSGD batch, weights of both signs
    povm = ProductPOVM.local_sic(n)
    rng = np.random.default_rng(n)
    outcomes = rng.integers(1, 5, size=(40, n))
    coeffs = rng.standard_normal(len(outcomes))
    trie = _outcome_trie(outcomes, coeffs, povm, povm.fused())
    _assert_grams_match(_trie_grams(trie), _dense_core_grams(trie))


def _dense_core_grams(trie):
    """E's Grams as formed before the trie rule: two matrix products per
    bond over E's dense cores."""
    e = _trie_tt(trie)
    return _right_grams(e, e)


@pytest.mark.parametrize("case, tol", [
    ("sic-n1", 1e-10), ("sic-n2", 1e-10), ("one-outcome", 1e-10),
    ("pauli6-sic-n7", 1e-10), ("qutrit-n3", 1e-10),
    # E has rank 2 here and the fit rank 4, so the kept directions carry
    # tiny singular values, which eigenvectors of Y G Y^T resolve only to
    # eps sigma_1^2 / sigma_4: Grams that agree to 1e-16 give iterates
    # 1e-10 apart, each within 7e-11 of the QR path (the 1e-10 test below)
    ("long-prefix", 1e-9),
])
def test_pgd_iterates_match_dense_core_grams(case, tol, monkeypatch):
    povm, rec = GRAM_CASES[case]()
    config = EstimatorConfig(ranks=4, init="spectral", max_iters=4,
                             plateau_window=5,
                             **STEP_PRESETS["pgd-spectral-rank4"])
    got, _ = _run_iterates(pgd, rec, povm, config, monkeypatch)
    monkeypatch.setattr(estimator, "_trie_grams", _dense_core_grams)
    want, _ = _run_iterates(pgd, rec, povm, config, monkeypatch)
    assert len(got) == len(want) == 5
    for k, (g, w) in enumerate(zip(got, want)):
        assert tt_norm(tt_sub(g, w)) <= tol * tt_norm(w), f"iterate {k}"


@pytest.mark.parametrize("case", [
    "sic-n1", "sic-n2", "one-outcome", "long-prefix", "pauli6-sic-n7"])
def test_pgd_iterates_on_edge_records_match_qr_path(case, monkeypatch):
    # against E's QR sweep and the frozen _qr_round_sum, at the 1e-10 of
    # the other parity tests; long-prefix is the ill-conditioned one
    povm, rec = GRAM_CASES[case]()
    config = EstimatorConfig(ranks=4, init="spectral", max_iters=4,
                             plateau_window=5,
                             **STEP_PRESETS["pgd-spectral-rank4"])
    got, _ = _run_iterates(pgd, rec, povm, config, monkeypatch)
    _assert_iterates_match(got, _complex_pgd_iterates(rec, povm, config),
                           case)


def test_no_gram_product_over_e_on_pgd_and_spectral_paths(monkeypatch):
    # E's Grams come from the trie: the only Gram walk left is
    # tt_round_sum's, over the rank-<=2r iterate (and against E)
    assert not hasattr(tt, "tt_right_grams")
    walk = tt._right_grams

    def guarded(a, b):
        if max(a.ranks) > 8:
            raise AssertionError(f"Gram walk over a TT of ranks {a.ranks}")
        return walk(a, b)

    monkeypatch.setattr(tt, "_right_grams", guarded)
    povm, rec = _povm_and_record("sic", 8)
    config = EstimatorConfig(ranks=4, init="spectral", max_iters=2)
    pgd(rec, povm, config)
    spectral_init(rec, povm, 4)
    psgd(rec, povm, dataclasses.replace(config, max_epochs=0))
    povm, rec = _povm_and_record("sic", 5)  # E's middle bonds are 16
    pgd(rec, povm, dataclasses.replace(config, backend="dense"))


@pytest.mark.parametrize("init", ["random", "spectral"])
def test_psgd_steps_call_no_tt_add_or_tt_round(init, monkeypatch):
    # each batch step rounds rho - mu grad from the batch's prefix-tree
    # Grams: once the start is built, nothing adds TTs or QR-rounds them
    start = estimator._initial_state

    def refuse(*args, **kwargs):
        raise AssertionError("tt_add or tt_round called after the start")

    def guarded_start(*args, **kwargs):
        state = start(*args, **kwargs)
        for module in (estimator, tt):
            monkeypatch.setattr(module, "tt_add", refuse)
            monkeypatch.setattr(module, "tt_round", refuse)
        return state

    monkeypatch.setattr(estimator, "_initial_state", guarded_start)
    povm, rec = _povm_and_record("sic", 5)
    config = EstimatorConfig(ranks=2, init=init, init_seed=3, max_epochs=2,
                             **STEP_PRESETS[f"psgd-{init}"])
    assert config.tt_round_tol is None
    assert psgd(rec, povm, config).iterations_run > 0


@pytest.mark.parametrize("init", ["random", "spectral"])
def test_psgd_batches_build_no_prefix_tree(init, monkeypatch):
    # each batch gradient is the diagonal-core TT of its own rows: once the
    # start is built, no batch is sorted into a prefix tree and every Gram
    # walk is over unshared entries, one per row at each core
    start, walk = estimator._initial_state, estimator._trie_grams

    def refuse(*args, **kwargs):
        raise AssertionError("a prefix tree used after the start")

    def unshared_walk(trie):
        if any(len(c) != len(trie.weights) for c in trie.labels):
            raise AssertionError("a prefix tree's Grams walked after the start")
        return walk(trie)

    def guarded_start(*args, **kwargs):
        state = start(*args, **kwargs)
        monkeypatch.setattr(estimator, "_outcome_trie", refuse)
        monkeypatch.setattr(estimator, "_trie_grams", unshared_walk)
        return state

    monkeypatch.setattr(estimator, "_initial_state", guarded_start)
    povm, rec = _povm_and_record("sic", 5)
    config = EstimatorConfig(ranks=2, init=init, init_seed=3, max_epochs=2,
                             **STEP_PRESETS[f"psgd-{init}"])
    assert psgd(rec, povm, config).iterations_run > 0


def test_no_inner_product_against_e_on_the_pgd_path(monkeypatch):
    # the loss's cross term comes from the record's prefix tree: the only
    # tt_inner left is <rho, Phi(rho)>, over rank-r iterates
    inner = tt.tt_inner

    def guarded(a, b):
        if max(a.ranks + b.ranks) > 8:
            raise AssertionError(f"tt_inner against ranks {b.ranks}")
        return inner(a, b)

    monkeypatch.setattr(estimator, "tt_inner", guarded)
    povm, rec = _povm_and_record("sic", 8)
    out = pgd(rec, povm, EstimatorConfig(ranks=4, init="spectral",
                                         max_iters=2))
    assert out.iterations_run == 2


# ---------------------------------------------------------------------------
# loss


def test_loss_zero_on_population_record():
    povm = ProductPOVM.local_sic(3)
    rho = _mpdo(3, seed=5)
    rec = population_record(povm, rho)
    assert loss(rho, rec, povm) <= 1e-12


def test_loss_matches_dense_enumeration():
    povm = ProductPOVM.local_sic(2)
    rho = _mpdo(2, seed=6)
    rec = sample_enumerate(povm, rho, 2000, seed=7)
    state = _mpdo(2, seed=8)
    tt_val = loss(state, rec, povm)
    dense_val = loss_dense(tt_to_dense(state), rec, povm)
    assert abs(tt_val - dense_val) < 1e-10


def test_loss_on_empty_record_is_the_channel_term():
    povm = ProductPOVM.local_sic(3)
    rec = sample_sequential(povm, _mpdo(3, seed=5), 0, seed=6)
    state = _mpdo(3, seed=8)
    want = loss_dense(tt_to_dense(state), rec, povm)  # ||A(rho)||^2
    assert abs(loss(state, rec, povm) - want) <= 1e-14 * want
    quad = tt_inner(state, sum_channel(povm, state))
    assert abs(quad - want) <= 1e-14 * want


@pytest.mark.parametrize("runner, backend", [
    (pgd, "tt"), (pgd, "dense"), (psgd, "tt")])
def test_empty_record_is_rejected_before_descent(runner, backend):
    # PSGD ended in numpy's concatenate error, PGD in the trie's own check
    povm = ProductPOVM.local_sic(3)
    rec = sample_sequential(povm, _mpdo(3, seed=5), 0, seed=6)
    config = EstimatorConfig(backend=backend, max_iters=1, max_epochs=1)
    with pytest.raises(ValueError, match="record is empty"):
        runner(rec, povm, config)


def test_loss_nonnegative():
    povm = ProductPOVM.local_sic(2)
    rho = _mpdo(2, seed=9)
    rec = sample_enumerate(povm, rho, 100, seed=10)
    for seed in range(10):
        state = _mpdo(2, seed=100 + seed)
        assert loss(state, rec, povm) >= 0.0


# ---------------------------------------------------------------------------
# gradient


def _gradient_parts(state, rec, povm):
    """The two terms of the gradient a PGD step follows: Phi(rho) and E."""
    return sum_channel(povm, state), empirical_operator(rec, povm)


def test_gradient_zero_at_truth_with_population_record():
    povm = ProductPOVM.local_sic(3)
    rho = _mpdo(3, seed=11)
    channel, emp = _gradient_parts(rho, population_record(povm, rho), povm)
    assert tt_norm(tt_sub(channel, emp)) <= 1e-10


def test_gradient_zero_for_mixed_state_uniform_record():
    povm = ProductPOVM.local_sic(2)
    mm = maximally_mixed(2)
    channel, emp = _gradient_parts(mm, population_record(povm, mm), povm)
    assert tt_norm(tt_sub(channel, emp)) <= 1e-10


def test_gradient_finite_differences():
    povm = ProductPOVM.local_sic(2)
    rho = _mpdo(2, seed=12)
    rec = sample_enumerate(povm, rho, 3000, seed=13)
    state = _mpdo(2, seed=14)
    channel, emp = _gradient_parts(state, rec, povm)
    grad = tt_to_dense(channel).matrix - tt_to_dense(emp).matrix
    dm = tt_to_dense(state).matrix
    rng = np.random.default_rng(15)
    eps = 1e-5
    for _ in range(20):
        h = random_hermitian(4, rng)
        lp = loss_dense(DenseOperator.from_matrix(dm + eps * h), rec, povm)
        lm = loss_dense(DenseOperator.from_matrix(dm - eps * h), rec, povm)
        fd = (lp - lm) / (2 * eps)
        analytic = 2 * np.vdot(h, grad).real
        assert abs(fd - analytic) <= 1e-6 * max(abs(fd), 1e-6)


def test_gradient_structured_terms():
    # the channel term keeps the iterate's ranks
    povm = ProductPOVM.local_sic(2)
    state = _mpdo(2, seed=18)
    assert sum_channel(povm, state).ranks == state.ranks


# ---------------------------------------------------------------------------
# projection


def test_project_fixed_point():
    rho = _mpdo(3, seed=19)
    out = project_mpo(rho, (4, 4))
    diff = np.abs(tt_to_dense(out).matrix - tt_to_dense(rho).matrix).max()
    assert diff < 1e-10


def test_project_removes_scale():
    rho = _mpdo(3, seed=20)
    out = project_mpo(tt_scale(rho, 2.0), (4, 4))
    diff = np.abs(tt_to_dense(out).matrix - tt_to_dense(rho).matrix).max()
    assert diff < 1e-10


def test_project_accepts_dense_and_array():
    rho = _mpdo(2, seed=21)
    dm = tt_to_dense(rho)
    for raw in (dm, dm.matrix):
        out = project_mpo(raw, (4,))
        assert np.abs(tt_to_dense(out).matrix - dm.matrix).max() < 1e-10


def test_project_near_truth_error_controlled():
    rng = np.random.default_rng(22)
    rho = _mpdo(3, seed=23)
    e = random_hermitian(8, rng)
    e *= 1e-3 / np.linalg.norm(e)
    perturbed = DenseOperator.from_matrix(tt_to_dense(rho).matrix + e)
    out = project_mpo(perturbed, (4, 4))
    err = np.linalg.norm(tt_to_dense(out).matrix - tt_to_dense(rho).matrix)
    # rounding plus trace renormalization at most doubles the perturbation
    assert err <= 2.5 * np.linalg.norm(e)


def test_project_degenerate_trace_errors():
    rng = np.random.default_rng(24)
    traceless = random_hermitian(4, rng)
    traceless -= np.trace(traceless) / 4 * np.eye(4)
    with pytest.raises(NumericalError):
        project_mpo(DenseOperator.from_matrix(traceless), (4,))


def test_output_is_hermitian_unit_trace():
    raw = random_tt(3, 2, (3, 3), seed=25)
    out = project_mpo(raw, (2, 2))
    assert abs(tt_trace(out) - 1.0) < 1e-10
    assert is_hermitian(out, 1e-8)


# ---------------------------------------------------------------------------
# initializations


def test_spectral_init_preprojection_identity_single_qubit():
    # with exact probabilities, 6 sum p_k B_k = rho + I
    povm = ProductPOVM.local_sic(1)
    rho = _mpdo(1, seed=26, kappa=1, purity=3)
    rec = population_record(povm, rho)
    emp = tt_to_dense(tt_scale(empirical_operator(rec, povm), 6.0)).matrix
    want = tt_to_dense(rho).matrix + np.eye(2)
    assert np.abs(emp - want).max() < 1e-10


def test_spectral_init_recovers_maximally_mixed():
    povm = ProductPOVM.local_sic(2)
    mm = maximally_mixed(2)
    rec = sample_enumerate(povm, mm, 10 ** 5, seed=27)
    init = spectral_init(rec, povm, (1,))
    assert recovery_error(init, mm) <= 0.05


def test_spectral_init_respects_rank_cap():
    povm = ProductPOVM.local_sic(3)
    rho = _mpdo(3, seed=28)
    rec = sample_sequential(povm, rho, 2000, seed=29)
    init = spectral_init(rec, povm, (2, 2))
    assert all(r <= c for r, c in zip(init.ranks[1:-1], (2, 2)))


def test_random_start_on_one_site():
    # the empty rank vector of n = 1 reached np.max
    assert random_init((), 1, 2, 0).n == 1
    povm = ProductPOVM.local_sic(1)
    rec = sample_sequential(povm, _mpdo(1, seed=70), 500, seed=71)
    for runner in (pgd, psgd):
        out = runner(rec, povm, EstimatorConfig(init="random", max_iters=3,
                                                max_epochs=1))
        assert out.state.n == 1 and math.isfinite(out.metadata["final_loss"])


def test_random_init_properties():
    init = random_init((4, 4), n=3, d=2, seed=30)
    assert abs(tt_trace(init) - 1.0) < 1e-10
    assert is_hermitian(init, 1e-10)
    diffs = 0
    for seed in range(20):
        a = random_init((2, 2), 3, 2, seed=seed)
        b = random_init((2, 2), 3, 2, seed=seed + 1000)
        if recovery_error(a, b) > 0.01:
            diffs += 1
    assert diffs == 20


# ---------------------------------------------------------------------------
# physical projection


def test_psd_project_fixed_point():
    rho = tt_to_dense(_mpdo(2, seed=31))
    out = psd_project(rho)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-10


def test_psd_project_simple_diag():
    out = psd_project(np.diag([1.2, -0.2]).astype(complex))
    assert np.abs(out.matrix - np.diag([1.0, 0.0])).max() < 1e-12


def test_psd_project_nonexpansive():
    rng = np.random.default_rng(32)
    for _ in range(100):
        w = rng.dirichlet(np.ones(4))
        u = np.linalg.qr(rng.standard_normal((4, 4))
                         + 1j * rng.standard_normal((4, 4)))[0]
        truth = (u * w) @ u.conj().T
        rho_hat = truth + 0.3 * random_hermitian(4, rng)
        projected = psd_project(rho_hat)
        before = np.linalg.norm(rho_hat - truth)
        after = np.linalg.norm(projected.matrix - truth)
        assert after <= before + 1e-12


def test_psd_project_rejects_non_hermitian():
    rng = np.random.default_rng(33)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(ValueError):
        psd_project(m)


def test_simplex_projection_properties():
    rng = np.random.default_rng(34)
    for _ in range(50):
        v = rng.standard_normal(8) * 2
        p = project_to_simplex(v)
        assert abs(p.sum() - 1.0) < 1e-10
        assert p.min() >= 0
        # projecting a point already on the simplex is the identity
        q = project_to_simplex(p)
        assert np.abs(p - q).max() < 1e-10


# ---------------------------------------------------------------------------
# recovery error


def test_recovery_error_identical_states():
    rho = _mpdo(3, seed=35)
    assert recovery_error(rho, rho) <= 1e-7


def test_recovery_error_matches_dense():
    a, b = _mpdo(3, seed=36), _mpdo(3, seed=37)
    want = np.linalg.norm(tt_to_dense(a).matrix - tt_to_dense(b).matrix)
    assert abs(recovery_error(a, b) - want) < 1e-10


@pytest.mark.parametrize("distance", [1e-9, 1e-11])
def test_recovery_error_accurate_near_zero(distance):
    # Gram terms <a,a> + <b,b> - 2<a,b> cancel here: they read 2.6e-9 at
    # a true distance of 1e-9 and 0.0 at 1e-11
    a = _mpdo(6, seed=70)
    p = random_tt(6, 2, (2, 2, 2, 2, 2), seed=71, hermitian=True)
    b = tt_add(a, tt_scale(p, distance / tt_norm(p)))
    assert abs(recovery_error(a, b) - distance) <= 1e-3 * distance
    gram = (tt_inner(a, a).real + tt_inner(b, b).real
            - 2.0 * tt_inner(a, b).real)
    assert abs(np.sqrt(max(gram, 0.0)) - distance) > 0.5 * distance


def test_recovery_error_triangle_inequality():
    for seed in range(5):
        a, b, c = (_mpdo(2, seed=40 + seed), _mpdo(2, seed=50 + seed),
                   _mpdo(2, seed=60 + seed))
        assert recovery_error(a, c) <= (recovery_error(a, b)
                                        + recovery_error(b, c) + 1e-10)


# ---------------------------------------------------------------------------
# descent loops


def test_pgd_fixed_point_at_truth():
    povm = ProductPOVM.local_sic(3)
    rho = _mpdo(3, seed=41)
    rec = population_record(povm, rho)
    config = EstimatorConfig(ranks=4, init="provided", init_state=rho,
                             max_iters=10, mu0=5 / 8, plateau_rel_tol=0,
                             check_iterates=True)
    out = pgd(rec, povm, config, truth=rho)
    diff = np.abs(tt_to_dense(out.state).matrix
                  - tt_to_dense(rho).matrix).max()
    assert diff < 1e-10
    assert out.iterations_run == 10


def test_pgd_regression_target_n3():
    povm = ProductPOVM.local_sic(3)
    rho = _mpdo(3, seed=21, kappa=1)
    rec = sample_sequential(povm, rho, 10 ** 5, seed=5)
    config = EstimatorConfig(ranks=1, init="random", init_seed=1,
                             **STEP_PRESETS["pgd-random-rank1"])
    out = pgd(rec, povm, config, truth=rho)
    init_error = out.trace_log[0].error
    final_error = out.trace_log[-1].error
    assert final_error < 0.1 * init_error
    assert abs(final_error - PGD_N3_REFERENCE_ERROR) <= \
        0.2 * PGD_N3_REFERENCE_ERROR


def test_pgd_smoothed_loss_monotone():
    povm = ProductPOVM.local_sic(3)
    rho = _mpdo(3, seed=21, kappa=1)
    rec = sample_sequential(povm, rho, 10 ** 5, seed=5)
    config = EstimatorConfig(ranks=1, init="random", init_seed=1,
                             **STEP_PRESETS["pgd-random-rank1"])
    out = pgd(rec, povm, config, truth=rho)
    losses = np.array([r.loss for r in out.trace_log])
    smooth = np.convolve(losses, np.ones(5) / 5, mode="valid")
    assert np.all(np.diff(smooth) <= 1e-12)


def test_backend_equivalence_over_20_steps():
    povm = ProductPOVM.local_sic(3)
    rho = _mpdo(3, seed=7)
    rec = sample_enumerate(povm, rho, 5000, seed=8)
    init = _mpdo(3, seed=9)
    base = dict(ranks=4, init="provided", init_state=init, max_iters=20,
                mu0=5 / 8, lam=0.9, plateau_rel_tol=0)
    out_tt = pgd(rec, povm, EstimatorConfig(backend="tt", **base))
    out_dn = pgd(rec, povm, EstimatorConfig(backend="dense", **base))
    diff = np.abs(tt_to_dense(out_tt.state).matrix
                  - tt_to_dense(out_dn.state).matrix).max()
    assert diff < 1e-8


def _reference_iterates(record, povm, config):
    """PGD iterates with every step rounded as tt_round(tt_add(...)) of
    the whole sum state - mu Phi(state) + mu E, the data operator E
    taken as built."""
    n, d = povm.n, povm.d
    ranks = config.rank_vector(n, d)
    emp = empirical_operator(record, povm)
    if config.init == "spectral":
        scale = povm.k_total * (d ** n + 1) / d ** n
        state = project_mpo(tt_scale(emp, scale), ranks)
    else:
        state = project_mpo(config.init_state, ranks)
    iterates = [state]
    for tau in range(config.max_iters):
        mu = config.mu0 * config.lam ** tau * 2.0 ** n
        acc = tt_add(state, tt_scale(sum_channel(povm, state), -mu))
        state = project_mpo(tt_add(acc, tt_scale(emp, mu)), ranks)
        iterates.append(state)
    return iterates


def _provided_case(n, truth_seed, record_seed, init_seed):
    povm = ProductPOVM.local_sic(n)
    rec = sample_enumerate(povm, _mpdo(n, seed=truth_seed), 5000,
                           seed=record_seed)
    config = EstimatorConfig(ranks=4, init="provided",
                             init_state=_mpdo(n, seed=init_seed),
                             max_iters=20, mu0=5 / 8, lam=0.9,
                             plateau_rel_tol=0)
    return rec, povm, config


def _spectral_n8_case():
    povm = ProductPOVM.local_sic(8)
    rec = sample_sequential(povm, _mpdo(8, seed=72), 3000, seed=73)
    config = EstimatorConfig(ranks=4, init="spectral", max_iters=4,
                             plateau_window=5,
                             **STEP_PRESETS["pgd-spectral-rank4"])
    return rec, povm, config


@pytest.mark.parametrize("case", [
    lambda: _provided_case(3, 109, 16, 110),  # criterion-6 fixture
    lambda: _provided_case(3, 7, 8, 9),  # backend-equivalence fixture
    _spectral_n8_case,
], ids=["criterion-6", "backend-equivalence", "spectral-n8"])
def test_pgd_iterates_match_whole_sum_rounding(case):
    rec, povm, config = case()
    want = _reference_iterates(rec, povm, config)
    for k in range(len(want)):
        config.max_iters = k
        got = pgd(rec, povm, config).state
        assert (tt_norm(tt_sub(got, want[k]))
                <= 1e-10 * tt_norm(want[k])), f"iterate {k}"


def _qr_round_sum(a: TTTensor, b: TTTensor, target_ranks=None,
                  truncation_tol=None) -> TTTensor:
    """Frozen copy of tt_round_sum as it was before the Gram path:
    tt_round(tt_add(a, b), ...) for a right-orthogonal ``b`` (see
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


def _complex_project(a, ranks, data=None):
    """The projection as the estimator ran it on fused complex MPOs:
    round to the ranks (against a right-orthogonal ``data`` when given),
    add the adjoint, round again, divide by the trace."""
    capped = cap_ranks(ranks, a.n, a.d)
    if data is None:
        a = tt_round(a, target_ranks=capped)
    else:
        a = _qr_round_sum(a, data, target_ranks=capped)
    sym = tt_scale(tt_add(a, tt_adjoint(a)), 0.5)
    if a.n > 1:
        sym = tt_round(sym, target_ranks=capped)
    return tt_scale(sym, 1.0 / tt_trace(sym))


def _complex_pgd_iterates(record, povm, config):
    """PGD's start and iterates as the fused complex path computed them,
    with E built from complex cores."""
    n, d = povm.n, povm.d
    ranks = config.rank_vector(n, d)
    emp = _complex_empirical_operator(record, povm)
    if config.init == "spectral":
        scale = povm.k_total * (d ** n + 1) / d ** n
        state = _complex_project(tt_zeros(n, d), ranks,
                                 tt_scale(emp, scale))
    else:
        state = _complex_project(config.init_state, ranks)
    iterates = [state]
    for tau in range(config.max_iters):
        mu = config.mu0 * config.lam ** tau * 2.0 ** n
        acc = tt_add(state, tt_scale(sum_channel(povm, state), -mu))
        state = _complex_project(acc, ranks, tt_scale(emp, mu))
        iterates.append(state)
    return iterates


def _complex_psgd_iterates(record, povm, config, n_epoch, batch):
    """PSGD's random start and per-batch iterates as the fused complex
    path computed them: fused batch amplitudes and batch gradients."""
    n, d = povm.n, povm.d
    ranks = config.rank_vector(n, d)
    kappa = int(np.ceil(np.sqrt(max(ranks, default=1))))
    start = random_mpdo(MPDOGenConfig(n=n, kappa=kappa, purity=10,
                                      seed=config.init_seed, d=d))
    state = _complex_project(start, ranks)
    iterates = [state]
    observed, p_obs = record.outcomes, record.p_hat
    for epoch in range(config.max_epochs):
        mu = config.mu0 * config.lam ** epoch * 2.0 ** n
        rng = np.random.Generator(np.random.Philox(
            key=((int(config.init_seed) << 64) + 0xE0C + epoch)))
        filler = _zero_outcome_filler(povm, observed, n_epoch - len(p_obs),
                                      rng)
        subset = np.concatenate([observed, filler])
        subset_p = np.concatenate([p_obs, np.zeros(len(filler))])
        order = rng.permutation(len(subset))
        for it in range(len(subset) // batch):
            pick = order[it * batch:(it + 1) * batch]
            coeffs = (outcome_amplitudes(povm, state, subset[pick]).real
                      - subset_p[pick])
            grad = _complex_outcome_sum(subset[pick], coeffs, povm)
            state = _complex_project(tt_add(state, tt_scale(grad, -mu)),
                                     ranks)
            iterates.append(state)
    return iterates


def _run_iterates(runner, record, povm, config, monkeypatch):
    """A run's start and every iterate that the iterate checks see, mapped
    back to fused form, and the run's metadata.  Asserts that every
    coordinate iterate has float64 cores."""
    seen = []

    def capture(x):
        assert all(core.dtype == np.float64 for core in x.cores)
        seen.append(tt_from_hermitian_coordinates(x))

    monkeypatch.setattr(estimator, "_check_iterate", capture)
    start = runner(record, povm, dataclasses.replace(
        config, max_iters=0, max_epochs=0)).state
    out = runner(record, povm, dataclasses.replace(config,
                                                   check_iterates=True))
    assert len(seen) == out.iterations_run
    return [start] + seen, out.metadata


def _assert_iterates_match(got, want, label):
    assert len(got) == len(want), label
    for k, (g, w) in enumerate(zip(got, want)):
        assert tt_norm(tt_sub(g, w)) <= 1e-10 * tt_norm(w), \
            f"{label}: iterate {k}"


def _spectral_record_case(kind, n):
    povm, rec = _povm_and_record(kind, n)
    config = EstimatorConfig(ranks=4, init="spectral", max_iters=4,
                             plateau_window=5,
                             **STEP_PRESETS["pgd-spectral-rank4"])
    return rec, povm, config


def test_pgd_iterates_match_complex_data_operator(monkeypatch):
    # the coordinate path against the fused complex one, iterate by
    # iterate, with float64 coordinate cores throughout
    cases = {"criterion-6": _provided_case(3, 109, 16, 110),
             "backend-equivalence": _provided_case(3, 7, 8, 9),
             "spectral-n8": _spectral_n8_case(),
             "pauli6-n6": _spectral_record_case("pauli6", 6),
             "qutrit-n3": _spectral_record_case("qutrit", 3)}
    for label, (rec, povm, config) in cases.items():
        got, _ = _run_iterates(pgd, rec, povm, config, monkeypatch)
        _assert_iterates_match(got, _complex_pgd_iterates(rec, povm, config),
                               label)


def test_pgd_iterates_match_qr_path_at_n10(monkeypatch):
    # recover-n10's setting: E's bond R is about 950, so every step rounds
    # through large Gram matrices; the reference rounds against the QR
    # sweep of E (_qr_round_sum)
    rec, povm, config = _spectral_record_case("sic", 10)
    got, _ = _run_iterates(pgd, rec, povm, config, monkeypatch)
    _assert_iterates_match(got, _complex_pgd_iterates(rec, povm, config),
                           "spectral-n10")


def _psgd_pinned_n5_case():
    povm = ProductPOVM.local_sic(5)
    rec = sample_sequential(povm, _mpdo(5, seed=61), 2000, seed=62)
    config = EstimatorConfig(ranks=2, init="random", init_seed=63,
                             max_epochs=3, **STEP_PRESETS["psgd-random"])
    return rec, povm, config


def _psgd_n8_epoch_case():
    povm = ProductPOVM.local_sic(8)
    rec = sample_sequential(povm, _mpdo(8, seed=74), 3000, seed=75)
    config = EstimatorConfig(ranks=4, init="random", init_seed=76,
                             max_epochs=1, **STEP_PRESETS["psgd-random"])
    return rec, povm, config


def _psgd_record_case(kind, n):
    # with k_loc > d^2 the batch gradient's first bond passes its cap
    povm, rec = _povm_and_record(kind, n)
    config = EstimatorConfig(ranks=2, init="random", init_seed=77,
                             max_epochs=1, batch_size=128,
                             **STEP_PRESETS["psgd-random"])
    return rec, povm, config


def _psgd_short_case(n):
    # at n <= 2 the bridge is core 0, which the batch step's tt_scale
    # multiplies and the batch's Grams never read
    povm, rec = _povm_and_record("sic", n)
    config = EstimatorConfig(ranks=2, init="random", init_seed=78,
                             max_epochs=3, batch_size=4,
                             **STEP_PRESETS["psgd-random"])
    return rec, povm, config


@pytest.mark.parametrize("case", [
    _psgd_pinned_n5_case, _psgd_n8_epoch_case,
    lambda: _psgd_record_case("pauli6", 6),
    lambda: _psgd_record_case("qutrit", 3),
    lambda: _psgd_short_case(1), lambda: _psgd_short_case(2),
], ids=["pinned-n5", "n8-epoch", "pauli6-n6", "qutrit-n3", "sic-n1",
        "sic-n2"])
def test_psgd_iterates_match_complex_reference(case, monkeypatch):
    rec, povm, config = case()
    got, meta = _run_iterates(psgd, rec, povm, config, monkeypatch)
    want = _complex_psgd_iterates(rec, povm, config, meta["epoch_size"],
                                  meta["batch_size"])
    _assert_iterates_match(got, want, "psgd")


def test_pgd_iterate_invariants_every_step():
    povm = ProductPOVM.local_sic(2)
    rho = _mpdo(2, seed=43)
    rec = sample_enumerate(povm, rho, 1000, seed=44)
    config = EstimatorConfig(ranks=4, init="random", init_seed=45,
                             max_iters=15, mu0=5 / 8, check_iterates=True)
    out = pgd(rec, povm, config, truth=rho)  # raises if any iterate drifts
    assert abs(tt_trace(out.state) - 1.0) < 1e-10
    assert is_hermitian(out.state, 1e-8)


def _coordinate_iterate(n=3):
    return estimator._project(tt_to_hermitian_coordinates(_mpdo(n, seed=49)),
                              4)


def test_check_iterate_passes_a_projected_iterate():
    estimator._check_iterate(_coordinate_iterate())


@pytest.mark.parametrize("fault, message", [
    ("trace", "trace"), ("nan", "not finite"), ("complex", "float64")])
def test_check_iterate_names_the_fault(fault, message):
    x = _coordinate_iterate()
    if fault == "trace":
        x = tt_scale(x, 1.0 + 1e-9)
    else:
        cores = [np.array(c) for c in x.cores]
        if fault == "nan":
            cores[1][0, 0, 0] = np.nan
        else:
            cores[1] = cores[1] * (1.0 + 0j)
        x = TTTensor(tuple(cores), d=x.d)
    with pytest.raises(NumericalError, match=message):
        estimator._check_iterate(x)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning")
def test_pgd_divergence_reports_iteration():
    # a catastrophically large step overflows the iterate scale; the loop
    # reports the offending iteration instead of looping on garbage
    povm = ProductPOVM.local_sic(2)
    rho = _mpdo(2, seed=46)
    rec = sample_enumerate(povm, rho, 1000, seed=47)
    config = EstimatorConfig(ranks=4, init="random", init_seed=48,
                             max_iters=50, mu0=1e300, lam=1.0)
    with pytest.raises(NumericalError, match="iteration"):
        pgd(rec, povm, config)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("runner,backend,unit", [
    (pgd, "tt", "iteration 1"), (pgd, "dense", "iteration 2"),
    (psgd, "tt", "epoch 1")])
def test_divergence_names_the_outer_step_on_every_path(runner, backend,
                                                        unit):
    # the failed decomposition of an overflowing step becomes a
    # NumericalError on every backend and algorithm
    povm = ProductPOVM.local_sic(2)
    rec = sample_enumerate(povm, _mpdo(2, seed=46), 1000, seed=47)
    config = EstimatorConfig(ranks=4, init="random", init_seed=48,
                             max_iters=50, max_epochs=50, mu0=1e300,
                             lam=1.0, backend=backend)
    with pytest.raises(NumericalError, match=f"at {unit} "):
        runner(rec, povm, config)


def test_psgd_degenerate_batching_equals_pgd():
    povm = ProductPOVM.local_sic(2)
    rho = _mpdo(2, seed=1)
    rec = sample_enumerate(povm, rho, 2000, seed=2)
    init = _mpdo(2, seed=3)
    k = povm.k_total
    base = dict(ranks=4, init="provided", init_state=init,
                plateau_rel_tol=0)
    out_pgd = pgd(rec, povm, EstimatorConfig(max_iters=1, **base))
    out_psgd = psgd(rec, povm, EstimatorConfig(epoch_size=k, batch_size=k,
                                               max_epochs=1, **base))
    diff = np.abs(tt_to_dense(out_pgd.state).matrix
                  - tt_to_dense(out_psgd.state).matrix).max()
    assert diff < 1e-10


def test_psgd_epoch_accounting_and_metadata():
    povm = ProductPOVM.local_sic(4)
    rho = _mpdo(4, seed=49)
    rec = sample_sequential(povm, rho, 500, seed=50)
    config = EstimatorConfig(ranks=4, init="random", init_seed=51,
                             batch_size=32, max_epochs=2)
    out = psgd(rec, povm, config, truth=rho)
    n_epoch = out.metadata["epoch_size"]
    # defaults follow 10 d^2 n rbar^2 clipped to the outcome space
    assert n_epoch == min(max(10 * 4 * 4 * 16, len(rec.counts)), 256)
    assert out.metadata["batch_size"] == 32
    assert out.iterations_run == 2 * (n_epoch // 32)


def test_psgd_requires_epoch_covering_nonzeros():
    povm = ProductPOVM.local_sic(3)
    rho = _mpdo(3, seed=52)
    rec = sample_sequential(povm, rho, 1000, seed=53)
    config = EstimatorConfig(ranks=1, epoch_size=2, batch_size=2)
    with pytest.raises(ValueError):
        psgd(rec, povm, config)


@pytest.mark.parametrize("n", [3, 11])
def test_psgd_rejects_an_epoch_above_the_outcome_count(n):
    # at n=3 an epoch of 1000 stepped only K=64 rows; beyond K=2^20 the
    # filler's rejection loop could not end.  Nothing is drawn first.
    povm = ProductPOVM.local_sic(n)
    rec = sample_sequential(povm, maximally_mixed(n), 3000, seed=57)
    config = EstimatorConfig(ranks=1, epoch_size=povm.k_total + 1,
                             max_epochs=1)
    with pytest.raises(ValueError, match=f"K={povm.k_total}"):
        psgd(rec, povm, config)
    if n == 3:
        assert len(rec.p_hat) == 64  # every outcome observed
        with pytest.raises(ValueError, match="K=64"):
            psgd(rec, povm, dataclasses.replace(config, epoch_size=1000))


def test_psgd_close_to_pgd_at_n5():
    povm = ProductPOVM.local_sic(5)
    rho = _mpdo(5, seed=42)
    rec = sample_sequential(povm, rho, 3000, seed=43)
    cfg_p = EstimatorConfig(ranks=4, init="random", init_seed=7,
                            max_iters=250,
                            **STEP_PRESETS["pgd-random-rank4"])
    cfg_s = EstimatorConfig(ranks=4, init="random", init_seed=7,
                            **STEP_PRESETS["psgd-random"])
    err_p = pgd(rec, povm, cfg_p, truth=rho).trace_log[-1].error
    err_s = psgd(rec, povm, cfg_s, truth=rho).trace_log[-1].error
    assert err_s <= 2.0 * err_p


def test_psgd_final_error_pinned_n5():
    povm = ProductPOVM.local_sic(5)
    rho = _mpdo(5, seed=61)
    rec = sample_sequential(povm, rho, 2000, seed=62)
    config = EstimatorConfig(ranks=2, init="random", init_seed=63,
                             max_epochs=3, **STEP_PRESETS["psgd-random"])
    out = psgd(rec, povm, config, truth=rho)
    assert abs(out.trace_log[-1].error - PSGD_N5_REFERENCE_ERROR) <= 1e-10


def test_psgd_loss_matches_data_operator_loss():
    # psgd takes the cross term <E, rho> from the record's amplitudes
    povm = ProductPOVM.local_sic(5)
    rec = sample_sequential(povm, _mpdo(5, seed=64), 2000, seed=65)
    config = EstimatorConfig(ranks=2, init="random", init_seed=66,
                             max_epochs=2, **STEP_PRESETS["psgd-random"])
    out = psgd(rec, povm, config)
    want = loss(out.state, rec, povm)
    assert abs(out.trace_log[-1].loss - want) <= 1e-12 * want


def _filler_by_enumeration(povm, nonzero, count, rng):
    """Reference for the K <= 2^20 branch of _zero_outcome_filler: every
    zero-count outcome listed as a tuple, in lexicographic order."""
    pool = []
    for flat in range(povm.k_total):
        idx = np.unravel_index(flat, povm.k_locs)
        outcome = tuple(int(i) + 1 for i in idx)
        if outcome not in nonzero:
            pool.append(outcome)
    chosen = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
    return [pool[i] for i in sorted(chosen)]


def _philox(seed):
    return np.random.Generator(np.random.Philox(key=seed))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("count", [1, 300, 5000])
def test_zero_outcome_filler_matches_enumeration(seed, count):
    povm = ProductPOVM.local_sic(5)
    rec = sample_sequential(povm, _mpdo(5, seed=70 + seed), 400,
                            seed=80 + seed)
    nonzero = sorted(rec.counts)
    rng_want, rng_got = _philox(seed), _philox(seed)
    want = _filler_by_enumeration(povm, set(nonzero), count, rng_want)
    got = _zero_outcome_filler(povm, rec.outcomes, count, rng_got)
    assert got.tolist() == [list(o) for o in want]
    assert got.shape == (min(count, povm.k_total - len(nonzero)), povm.n)
    assert got.dtype.kind == "i"
    assert rng_got.random() == rng_want.random()  # same draws consumed


def test_zero_outcome_filler_empty_pool():
    povm = ProductPOVM.local_sic(2)
    every = list(iter_outcomes(povm))
    want = _filler_by_enumeration(povm, set(every), 5, _philox(3))
    got = _zero_outcome_filler(povm, every, 5, _philox(3))
    assert want == [] and got.shape == (0, povm.n)


def _filler_by_row_calls(povm, nonzero, count, rng):
    """The K > 2^20 branch of _zero_outcome_filler as it drew before its
    block draws, one rng call per row, frozen as a reference."""
    chosen = []
    seen = set(map(tuple, np.asarray(nonzero).tolist()))
    while len(chosen) < count:
        draw = rng.integers(1, np.array(povm.k_locs) + 1)
        outcome = tuple(int(i) for i in draw)
        if outcome not in seen:
            seen.add(outcome)
            chosen.append(outcome)
    return chosen


@pytest.mark.parametrize("mixed", [False, True], ids=["sic", "pauli6-sic"])
@pytest.mark.parametrize("count", [1, 700, 5000])
def test_zero_outcome_filler_blocks_draw_as_row_calls(mixed, count):
    # K = 4^11 and 4^6 6^5 are both past the 2^20 enumeration limit
    local = [_pauli6() if mixed and l % 2 else sic_qubit() for l in range(11)]
    povm = ProductPOVM(sites=tuple(local))
    rec = sample_sequential(povm, _mpdo(11, seed=78), 3000, seed=79)
    rng_want, rng_got = _philox(count), _philox(count)
    want = _filler_by_row_calls(povm, rec.outcomes, count, rng_want)
    got = _zero_outcome_filler(povm, rec.outcomes, count, rng_got)
    assert got.tolist() == [list(o) for o in want]
    assert got.dtype.kind == "i"
    assert np.array_equal(rng_got.permutation(3000 + count),
                          rng_want.permutation(3000 + count))


# ---------------------------------------------------------------------------
# presets and diagnostics


def test_preset_lookup():
    assert preset_schedule("pgd", "random", 1)["mu0"] == 5 / 4
    assert preset_schedule("pgd", "spectral", 4)["mu0"] == 5 / 16
    assert preset_schedule("psgd", "random", 4)["mu0"] == 5 / 4
    assert preset_schedule("psgd", "spectral", 4)["scale_2n"] is False


def test_config_bounds_the_seed_as_the_streams_do():
    # PSGD draws its epochs from sampling._stream, which takes seeds below
    # 2**63; the bound now holds for every algorithm
    EstimatorConfig(init_seed=2 ** 63 - 1)
    with pytest.raises(ValueError, match=r"2\*\*63"):
        EstimatorConfig(init_seed=2 ** 63)


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(lam=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(init="other")
    with pytest.raises(ValueError):
        EstimatorConfig(backend="gpu")
    config = EstimatorConfig(ranks=7)
    assert config.rank_vector(3, 2) == (4, 4)


@pytest.mark.parametrize("field,value", [
    ("max_iters", 2.5), ("max_iters", -1), ("max_iters", True),
    ("max_epochs", 1.0), ("batch_size", 2.5), ("batch_size", 0),
    ("epoch_size", 0), ("epoch_size", "8"), ("plateau_window", 0),
    ("init_seed", -1), ("init_seed", None), ("mu0", "1"), ("lam", True),
    ("plateau_rel_tol", None), ("tt_round_tol", [1e-3]), ("ranks", 0),
    ("ranks", True), ("ranks", 2.5), ("ranks", [4, "4"]), ("mu0", -1.0),
    ("mu0", 0), ("mu0", float("inf")), ("mu0", float("nan")),
    ("scale_2n", 1), ("record_trace", None), ("check_iterates", "no")])
def test_config_rejects_malformed_fields(field, value):
    with pytest.raises(ValueError, match=field):
        EstimatorConfig(**{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
@pytest.mark.parametrize("field", ["plateau_rel_tol", "tt_round_tol"])
def test_config_rejects_negative_or_non_finite_tolerances(field, value):
    # a NaN plateau_rel_tol ended every run after plateau_window steps,
    # and tt_round_tol=-0.5 rounded as +0.5
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        EstimatorConfig(**{field: value})


def test_config_accepts_numpy_scalars_and_optional_none():
    config = EstimatorConfig(max_iters=np.int64(3), init_seed=np.uint64(5),
                             mu0=np.float64(0.5), ranks=(np.int32(2), 3),
                             epoch_size=None, tt_round_tol=None)
    assert config.rank_vector(3, 2) == (2, 3)


def test_tt_round_tol_same_on_both_backends():
    # the dense backend projects with the same tolerance compression
    povm = ProductPOVM.local_sic(3)
    rho = _mpdo(3, seed=54, kappa=1)
    rec = sample_sequential(povm, rho, 2000, seed=55)
    base = dict(ranks=4, init="random", init_seed=56, max_iters=10,
                mu0=5 / 8, tt_round_tol=0.5)
    out_tt = pgd(rec, povm, EstimatorConfig(backend="tt", **base))
    out_dn = pgd(rec, povm, EstimatorConfig(backend="dense", **base))
    assert out_tt.state.ranks == out_dn.state.ranks
    diff = np.abs(tt_to_dense(out_tt.state).matrix
                  - tt_to_dense(out_dn.state).matrix).max()
    assert diff < 1e-8


def test_tt_round_tol_compresses_iterates():
    povm = ProductPOVM.local_sic(3)
    rho = _mpdo(3, seed=54, kappa=1)
    rec = sample_sequential(povm, rho, 2000, seed=55)
    base = dict(ranks=4, init="random", init_seed=56, max_iters=10,
                mu0=5 / 8)
    loose = pgd(rec, povm, EstimatorConfig(tt_round_tol=0.5, **base),
                truth=rho)
    tight = pgd(rec, povm, EstimatorConfig(**base), truth=rho)
    # aggressive compression keeps the state valid but with smaller bonds
    assert abs(tt_trace(loose.state) - 1.0) < 1e-10
    assert max(loose.state.ranks) <= max(tight.state.ranks)
