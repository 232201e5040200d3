"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria mix exact identity checks (frozen tolerances) with property-style
scaling checks at desk scale; run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.  The heavy criteria (7-10) are also marked
`slow` so day-to-day runs can deselect them with `-m "not slow"`.
"""

import numpy as np
import pytest

from mpoqst.estimator import (
    STEP_PRESETS,
    EstimatorConfig,
    empirical_operator,
    loss_dense,
    pgd,
    psd_project,
)
from mpoqst.povm import (
    DensePOVM,
    ProductPOVM,
    check_sic,
    check_t_design,
    dense_from_local,
    dual_basis_sic,
    gamma,
    marginal_prefix_prob,
    measure_map_dense,
    prob_of_outcome,
    probability_tensor,
    sic_qubit,
    sic_qubit_vectors,
    sum_channel,
)
from mpoqst.sampling import population_record, sample_enumerate, sample_sequential
from mpoqst.states import MPDOGenConfig, maximally_mixed, pure_product, random_mpdo
from mpoqst.tt import (
    DenseOperator,
    max_tt_ranks,
    random_tt,
    smallest_tt_singular_value,
    tt_element,
    tt_from_dense,
    tt_to_dense,
    tt_trace,
)

slow = pytest.mark.slow


def _report(name, **values):
    detail = " ".join(f"{k}={v}" for k, v in values.items())
    print(f"PASS {name}: {detail}")


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def random_psd(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m @ m.conj().T


def _mpdo(n, seed, kappa=2, purity=10):
    return random_mpdo(MPDOGenConfig(n=n, kappa=kappa, purity=purity,
                                     seed=seed))


# ---------------------------------------------------------------------------
# 1. SIC identity suite


def test_criterion_1_sic_identities():
    povm = dense_from_local(sic_qubit())
    report = check_sic(povm)
    assert report.element_count_ok
    assert report.trace_dev <= 1e-12  # target 1/2
    assert report.self_dev <= 1e-12  # target 1/4
    assert report.cross_dev <= 1e-12  # target 1/12

    rng = np.random.default_rng(101)
    worst_moment = 0.0
    for _ in range(200):
        rho = random_hermitian(2, rng)
        p = measure_map_dense(povm, DenseOperator.from_matrix(rho))
        want = (np.linalg.norm(rho) ** 2 + np.trace(rho).real ** 2) / 6
        worst_moment = max(worst_moment, abs((p ** 2).sum() - want))
    assert worst_moment <= 1e-10

    duals = dual_basis_sic(povm)
    worst_recon = 0.0
    for _ in range(100):
        rho = random_hermitian(2, rng)
        rec = sum(np.vdot(a, rho) * dual
                  for a, dual in zip(povm.elements, duals))
        worst_recon = max(worst_recon, np.abs(rec - rho).max())
    assert worst_recon <= 1e-10
    _report("criterion-1 sic-identities", sic_max_dev=f"{report.max_dev:.2e}",
            moment_dev=f"{worst_moment:.2e}", dual_dev=f"{worst_recon:.2e}")


# ---------------------------------------------------------------------------
# 2. design checker


def _sandwich_max_violation(vectors, delta, rng, trials=100):
    k, dim = vectors.shape
    povm = DensePOVM(elements=tuple(dim / k * np.outer(v, v.conj())
                                    for v in vectors), dim=dim)
    worst = 0.0
    for _ in range(trials):
        rho = random_hermitian(dim, rng)
        p = measure_map_dense(povm, DenseOperator.from_matrix(rho))
        val = (p ** 2).sum()
        base = dim * (np.linalg.norm(rho) ** 2
                      + np.trace(rho).real ** 2) / (k * (dim + 1))
        worst = max(worst, val - (1 + delta) * base,
                    (1 - delta) * base - val)
    return worst


def test_criterion_2_design_checker():
    vecs = sic_qubit_vectors()
    d1 = check_t_design(vecs, 1)
    d2 = check_t_design(vecs, 2)
    d3 = check_t_design(vecs, 3)
    assert d1.delta_upper <= 1e-10
    assert d2.delta_upper <= 1e-10
    assert d3.delta_lower >= 0.01

    rng = np.random.default_rng(102)
    v2 = _sandwich_max_violation(vecs, d2.delta_upper, rng)
    assert v2 <= 1e-10

    prod = np.stack([np.kron(a, b) for a in vecs for b in vecs])
    dprod = check_t_design(prod, 2)
    v4 = _sandwich_max_violation(prod, dprod.delta_upper, rng)
    assert v4 <= 1e-10
    _report("criterion-2 design-checker",
            delta_s2=f"{d2.delta_upper:.2e}",
            delta_s3=f"{d3.delta_lower:.4f}",
            delta_dim4=f"{dprod.delta_upper:.4f}",
            sandwich_violation=f"{max(v2, v4):.2e}")


# ---------------------------------------------------------------------------
# 3. two-state correlation bound


def test_criterion_3_two_state_bound():
    povm = dense_from_local(sic_qubit())
    rng = np.random.default_rng(103)
    worst = -np.inf
    for _ in range(100):
        r1, r2 = random_psd(2, rng), random_psd(2, rng)
        p1 = measure_map_dense(povm, DenseOperator.from_matrix(r1))
        p2 = measure_map_dense(povm, DenseOperator.from_matrix(r2))
        lhs = (p1 * p2).sum()
        rhs = 2 * (np.trace(r1).real * np.trace(r2).real
                   + np.trace(r1 @ r2).real) / 12
        worst = max(worst, lhs - rhs)
    assert worst <= 1e-9
    _report("criterion-3 correlation-bound", max_violation=f"{worst:.2e}")


# ---------------------------------------------------------------------------
# 4. TT core suite


def test_criterion_4_tt_core():
    rng = np.random.default_rng(104)
    # dense-oracle agreement (entries and trace) at n <= 4
    worst_entry, worst_trace = 0.0, 0.0
    for trial in range(40):
        n = 2 + trial % 3
        caps = max_tt_ranks(n, 2)
        ranks = tuple(int(rng.integers(1, c + 1)) for c in caps)
        tt = random_tt(n, 2, ranks, seed=trial)
        dense = tt_to_dense(tt).matrix
        worst_trace = max(worst_trace,
                          abs(tt_trace(tt) - np.trace(dense)))
        for _ in range(5):
            rows = tuple(int(i) for i in rng.integers(0, 2, size=n))
            cols = tuple(int(j) for j in rng.integers(0, 2, size=n))
            fr = sum(b << (n - 1 - i) for i, b in enumerate(rows))
            fc = sum(b << (n - 1 - i) for i, b in enumerate(cols))
            worst_entry = max(worst_entry,
                              abs(tt_element(tt, rows, cols) - dense[fr, fc]))
    assert worst_entry <= 1e-10
    assert worst_trace <= 1e-10

    # exactness on in-class inputs
    worst_exact = 0.0
    for seed in range(10):
        truth = random_tt(3, 2, (4, 4), seed=200 + seed)
        dense = tt_to_dense(truth).matrix
        back = tt_from_dense(dense, target_ranks=(4, 4))
        worst_exact = max(worst_exact,
                          np.abs(tt_to_dense(back).matrix - dense).max())
    assert worst_exact <= 1e-10

    # perturbation stability on admissible trials
    trials = 0
    worst_margin = -np.inf
    for seed in range(70):
        n = 2 + seed % 3
        rank = 1 + seed % 3
        ranks = tuple(min(rank, c) for c in max_tt_ranks(n, 2))
        base = random_hermitian(2 ** n, rng)
        truth = tt_from_dense(base, target_ranks=ranks)
        sigma = smallest_tt_singular_value(truth, ranks)
        if sigma < 1e-8:
            continue
        e = random_hermitian(2 ** n, rng)
        e *= 0.9 * sigma / (500 * n * np.linalg.norm(e))
        e_norm = np.linalg.norm(e)
        approx = tt_from_dense(tt_to_dense(truth).matrix + e,
                               target_ranks=ranks)
        err_sq = np.linalg.norm(tt_to_dense(approx).matrix
                                - tt_to_dense(truth).matrix) ** 2
        bound = e_norm ** 2 + 600 * n * e_norm ** 3 / sigma
        worst_margin = max(worst_margin, err_sq / bound)
        assert err_sq <= bound * (1 + 1e-9)
        trials += 1
    assert trials >= 50
    _report("criterion-4 tt-core", entry_dev=f"{worst_entry:.2e}",
            exactness=f"{worst_exact:.2e}", perturbation_trials=trials,
            worst_bound_ratio=f"{worst_margin:.3f}")


# ---------------------------------------------------------------------------
# 5. sampler suite


def test_criterion_5_sampler():
    povm = ProductPOVM.local_sic(3)
    state = _mpdo(3, seed=105)

    # chain rule on sampled outcomes
    rec_small = sample_sequential(povm, state, 300, seed=11)
    worst_chain = 0.0
    for outcome in list(rec_small.counts)[:100]:
        chain = 1.0
        for ell in range(1, 4):
            chain *= (marginal_prefix_prob(povm, state, outcome[:ell])
                      / marginal_prefix_prob(povm, state, outcome[:ell - 1]))
        direct = prob_of_outcome(povm, state, outcome)
        worst_chain = max(worst_chain, abs(chain - direct) / direct)
    assert worst_chain <= 1e-10

    # total variation at M = 2e5
    m = 2 * 10 ** 5
    rec = sample_sequential(povm, state, m, seed=12)
    emp = np.zeros(povm.k_total)
    for outcome, count in rec.counts.items():
        emp[np.ravel_multi_index(tuple(i - 1 for i in outcome),
                                 povm.k_locs)] = count / m
    exact = probability_tensor(povm, state).reshape(-1)
    tv = 0.5 * np.abs(emp - exact).sum()
    assert tv <= 0.02

    # determinism of both samplers
    assert sample_sequential(povm, state, 2000, seed=13).counts == \
        sample_sequential(povm, state, 2000, seed=13).counts
    assert sample_enumerate(povm, state, 2000, seed=14).counts == \
        sample_enumerate(povm, state, 2000, seed=14).counts
    _report("criterion-5 sampler", chain_dev=f"{worst_chain:.2e}",
            tv=f"{tv:.4f}")


# ---------------------------------------------------------------------------
# 6. estimator correctness


def test_criterion_6_estimator():
    # finite-difference gradient match
    povm2 = ProductPOVM.local_sic(2)
    rho2 = _mpdo(2, seed=106)
    rec2 = sample_enumerate(povm2, rho2, 3000, seed=15)
    point = _mpdo(2, seed=107)
    grad = (tt_to_dense(sum_channel(povm2, point)).matrix
            - tt_to_dense(empirical_operator(rec2, povm2)).matrix)
    dm = tt_to_dense(point).matrix
    rng = np.random.default_rng(108)
    eps = 1e-5
    worst_fd = 0.0
    for _ in range(20):
        h = random_hermitian(4, rng)
        lp = loss_dense(DenseOperator.from_matrix(dm + eps * h), rec2, povm2)
        lm = loss_dense(DenseOperator.from_matrix(dm - eps * h), rec2, povm2)
        fd = (lp - lm) / (2 * eps)
        analytic = 2 * np.vdot(h, grad).real
        worst_fd = max(worst_fd, abs(fd - analytic) / max(abs(fd), 1e-9))
    assert worst_fd <= 1e-6

    # backend iterate agreement over 20 steps
    povm3 = ProductPOVM.local_sic(3)
    rho3 = _mpdo(3, seed=109)
    rec3 = sample_enumerate(povm3, rho3, 5000, seed=16)
    init3 = _mpdo(3, seed=110)
    base = dict(ranks=4, init="provided", init_state=init3, max_iters=20,
                mu0=5 / 8, lam=0.9, plateau_rel_tol=0)
    out_tt = pgd(rec3, povm3, EstimatorConfig(backend="tt", **base))
    out_dn = pgd(rec3, povm3, EstimatorConfig(backend="dense", **base))
    backend_dev = np.abs(tt_to_dense(out_tt.state).matrix
                         - tt_to_dense(out_dn.state).matrix).max()
    assert backend_dev <= 1e-8

    # fixed point on a noiseless record
    pop = population_record(povm3, rho3)
    config = EstimatorConfig(ranks=4, init="provided", init_state=rho3,
                             max_iters=10, mu0=5 / 8, plateau_rel_tol=0,
                             check_iterates=True)
    out_fix = pgd(pop, povm3, config, truth=rho3)
    fix_dev = np.linalg.norm(tt_to_dense(out_fix.state).matrix
                             - tt_to_dense(rho3).matrix)
    assert fix_dev <= 1e-10

    # physical-projection non-expansiveness on 100 pairs
    worst_gap = -np.inf
    for _ in range(100):
        w = rng.dirichlet(np.ones(4))
        u = np.linalg.qr(rng.standard_normal((4, 4))
                         + 1j * rng.standard_normal((4, 4)))[0]
        truth = (u * w) @ u.conj().T
        rho_hat = truth + 0.4 * random_hermitian(4, rng)
        before = np.linalg.norm(rho_hat - truth)
        after = np.linalg.norm(psd_project(rho_hat).matrix - truth)
        worst_gap = max(worst_gap, after - before)
    assert worst_gap <= 1e-12
    _report("criterion-6 estimator", fd_dev=f"{worst_fd:.2e}",
            backend_dev=f"{backend_dev:.2e}", fixed_point=f"{fix_dev:.2e}",
            nonexpansive_gap=f"{worst_gap:.2e}")


# ---------------------------------------------------------------------------
# 7. error-vs-M scaling


@slow
def test_criterion_7_error_scaling_in_m():
    n = 4
    povm = ProductPOVM.local_sic(n)
    m_values = (10 ** 3, 10 ** 4, 10 ** 5)
    medians = []
    for m in m_values:
        finals = []
        for seed in range(5):
            truth = _mpdo(n, seed=500 + seed, kappa=1)
            rec = sample_sequential(povm, truth, m, seed=600 + seed)
            config = EstimatorConfig(ranks=1, init="random",
                                     init_seed=700 + seed, max_iters=200,
                                     **STEP_PRESETS["pgd-fixed-random"])
            out = pgd(rec, povm, config, truth=truth)
            finals.append(out.trace_log[-1].error)
        medians.append(float(np.median(finals)))
    assert medians[0] > medians[1] > medians[2]
    slope = float(np.polyfit(np.log(m_values), np.log(medians), 1)[0])
    assert -0.65 <= slope <= -0.35
    _report("criterion-7 m-scaling",
            medians="/".join(f"{m:.4f}" for m in medians),
            slope=f"{slope:.3f}")


# ---------------------------------------------------------------------------
# 8. polynomial growth in n


@slow
def test_criterion_8_error_growth_in_n():
    m = 3000
    seeds = 3
    medians = {}
    converged = []
    for rank in (1, 4):
        for n in range(2, 9):
            povm = ProductPOVM.local_sic(n)
            finals = []
            for seed in range(seeds):
                truth = _mpdo(n, seed=1000 + seed,
                              kappa=int(np.sqrt(rank)))
                rec = sample_sequential(povm, truth, m, seed=2000 + seed)
                preset = STEP_PRESETS["pgd-random-rank1" if rank == 1
                                      else "pgd-random-rank4"]
                config = EstimatorConfig(ranks=rank, init="random",
                                         init_seed=3000 + seed,
                                         max_iters=300, **preset)
                out = pgd(rec, povm, config, truth=truth)
                finals.append(out.trace_log[-1].error)
                converged.append(out.converged_reason == "loss_plateau")
            medians[(rank, n)] = float(np.median(finals))
    assert all(converged), "every run must reach its loss plateau"
    assert medians[(1, 8)] <= 4.0 * medians[(1, 4)]
    assert medians[(4, 8)] <= 4.0 * medians[(4, 4)]
    _report("criterion-8 n-growth",
            r1=medians[(1, 4)], r1_n8=medians[(1, 8)],
            ratio_r1=f"{medians[(1, 8)] / medians[(1, 4)]:.2f}",
            ratio_r4=f"{medians[(4, 8)] / medians[(4, 4)]:.2f}",
            runs=len(converged))


# ---------------------------------------------------------------------------
# 9. convergence from spectral initialization


@slow
def test_criterion_9_spectral_convergence():
    # moderately mixed truths (purity parameter 3): with the deep-mixing
    # default the local-SIC spectral start already sits within 2x of the
    # statistical floor at M = 1e4, leaving no room to halve
    n, m = 4, 10 ** 4
    povm = ProductPOVM.local_sic(n)
    ratios, half_iters, contraction = [], [], []
    for seed in range(5):
        truth = _mpdo(n, seed=800 + seed, kappa=2, purity=3)
        rec = sample_sequential(povm, truth, m, seed=900 + seed)
        config = EstimatorConfig(ranks=4, init="spectral", max_iters=100,
                                 mu0=5 / 4, lam=0.9, scale_2n=True)
        out = pgd(rec, povm, config, truth=truth)
        errs = [r.error for r in out.trace_log]
        ratios.append(min(errs[:51]) / errs[0])
        half_at = next((i for i, e in enumerate(errs)
                        if e < 0.5 * errs[0]), None)
        half_iters.append(half_at)
        if half_at is not None:
            # per-iteration error ratio <= 1 (up to float noise at the
            # frozen tail) once the error has halved
            tail = [errs[i + 1] / errs[i]
                    for i in range(half_at, len(errs) - 1)]
            contraction.append(float(np.mean([r <= 1.0 + 1e-9
                                              for r in tail])))
    median_ratio = float(np.median(ratios))
    assert median_ratio < 0.5, f"median 50-iteration descent {median_ratio}"
    halved = [h for h in half_iters if h is not None and h <= 50]
    assert len(halved) >= 3  # majority of seeds halve within 50 iterations
    assert all(c >= 0.95 for c in contraction)
    _report("criterion-9 spectral-convergence",
            median_ratio=f"{median_ratio:.3f}",
            halved_runs=f"{len(halved)}/5",
            min_contraction=f"{min(contraction):.3f}")


# ---------------------------------------------------------------------------
# 10. gamma statistic


@slow
def test_criterion_10_gamma():
    # exact references
    for n in (2, 3, 4):
        povm = ProductPOVM.local_sic(n)
        assert gamma(povm, maximally_mixed(n)).gamma == 1.0
        assert gamma(povm, pure_product("0" * n)).gamma == 2.0 ** n

    # beam is a lower bound on 50 draws
    povm4 = ProductPOVM.local_sic(4)
    hits = 0
    for seed in range(50):
        truth = _mpdo(4, seed=7100 + seed)
        exact = gamma(povm4, truth, method="exhaustive")
        beam = gamma(povm4, truth, method="beam", beam_width=16)
        assert beam.gamma <= exact.gamma + 1e-12
        hits += abs(beam.gamma - exact.gamma) < 1e-12
    assert hits >= 45

    # polynomial growth of the median gamma over n = 2..8
    medians = []
    for n in range(2, 9):
        povm = ProductPOVM.local_sic(n)
        vals = [gamma(povm, _mpdo(n, seed=7000 + s), method="beam",
                      beam_width=64).gamma for s in range(20)]
        medians.append(float(np.median(vals)))
    assert all(m >= 1.0 for m in medians)
    assert medians[6] <= 4.0 * medians[2]  # vs 16x for exponential growth
    slope = float(np.polyfit(np.log(range(2, 9)), np.log(medians), 1)[0])
    assert slope <= 2.0
    _report("criterion-10 gamma", beam_hit_rate=f"{hits}/50",
            medians="/".join(f"{m:.2f}" for m in medians),
            growth_ratio=f"{medians[6] / medians[2]:.2f}",
            loglog_slope=f"{slope:.2f}")
