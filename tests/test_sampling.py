"""Measurement simulation: determinism, chain rule, distribution accuracy."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpoqst.povm import (
    ProductPOVM,
    dense_from_local,
    marginal_prefix_prob,
    prob_of_outcome,
    probability_tensor,
    sic_qubit,
)
from mpoqst.sampling import (
    OutcomeRecord,
    PopulationRecord,
    empirical_probability,
    nonzero_outcomes,
    population_record,
    record_from_json_dict,
    record_to_json_dict,
    sample_enumerate,
    sample_sequential,
)
from mpoqst.states import MPDOGenConfig, maximally_mixed, random_mpdo
from mpoqst.tt import DenseOperator


def _mpdo(n, seed, kappa=2):
    return random_mpdo(MPDOGenConfig(n=n, kappa=kappa, purity=10, seed=seed))


def _flat_empirical(record, povm):
    emp = np.zeros(povm.k_total)
    for outcome, count in record.counts.items():
        flat = np.ravel_multi_index(tuple(i - 1 for i in outcome),
                                    povm.k_locs)
        emp[flat] = count / record.m_shots
    return emp


# ---------------------------------------------------------------------------
# record container


def test_record_invariants():
    rec = OutcomeRecord(counts={(1, 2): 3, (2, 2): 1}, m_shots=4,
                        povm_id="x", seed=0)
    assert rec.weights() == {(1, 2): 0.75, (2, 2): 0.25}
    with pytest.raises(ValueError):
        OutcomeRecord(counts={(1,): 3}, m_shots=4, povm_id="x", seed=0)
    with pytest.raises(ValueError):
        OutcomeRecord(counts={(1,): 0}, m_shots=0, povm_id="x", seed=0)


def test_empirical_probability_accessors():
    rec = OutcomeRecord(counts={(1, 1): 3, (2, 1): 9}, m_shots=12,
                        povm_id="x", seed=0)
    assert empirical_probability(rec, (1, 1)) == 0.25
    assert empirical_probability(rec, (4, 4)) == 0.0
    assert nonzero_outcomes(rec) == [(1, 1), (2, 1)]
    assert sum(rec.weights().values()) == 1.0


# ---------------------------------------------------------------------------
# enumeration sampler


def test_deterministic_distribution():
    # basis projectors on |0><0| give p = (1, 0): every shot lands on
    # outcome 1
    from mpoqst.povm import DensePOVM

    projectors = DensePOVM(elements=(np.diag([1.0, 0.0]).astype(complex),
                                     np.diag([0.0, 1.0]).astype(complex)),
                           dim=2)
    state = DenseOperator.from_matrix(np.diag([1.0, 0.0]))
    rec = sample_enumerate(projectors, state, 4, seed=1)
    assert rec.counts == {(1,): 4}


def test_enumerate_qubit_sic_frequencies():
    povm = dense_from_local(sic_qubit())
    state = DenseOperator.from_matrix(np.eye(2) / 2)
    rec = sample_enumerate(povm, state, 10 ** 5, seed=7)
    for k in range(1, 5):
        assert abs(empirical_probability(rec, (k,)) - 0.25) <= 0.01


def test_enumerate_seed_determinism():
    povm = ProductPOVM.local_sic(3)
    state = _mpdo(3, seed=1)
    a = sample_enumerate(povm, state, 5000, seed=3)
    b = sample_enumerate(povm, state, 5000, seed=3)
    assert a.counts == b.counts
    c = sample_enumerate(povm, state, 5000, seed=4)
    assert c.counts != a.counts


def test_counts_sum_to_shots():
    povm = ProductPOVM.local_sic(2)
    state = _mpdo(2, seed=2)
    for m in (1, 17, 1000):
        rec = sample_enumerate(povm, state, m, seed=5)
        assert sum(rec.counts.values()) == m


# ---------------------------------------------------------------------------
# sequential sampler


def test_sequential_seed_determinism():
    povm = ProductPOVM.local_sic(3)
    state = _mpdo(3, seed=3)
    a = sample_sequential(povm, state, 3000, seed=11)
    b = sample_sequential(povm, state, 3000, seed=11)
    assert a.counts == b.counts


def test_sequential_mixed_state_conditionals_uniform():
    povm = ProductPOVM.local_sic(2)
    mm = maximally_mixed(2)
    rec = sample_sequential(povm, mm, 2 * 10 ** 5, seed=13)
    emp = _flat_empirical(rec, povm)
    assert np.abs(emp - 1 / 16).max() <= 0.01


def test_chain_rule_matches_direct_probability():
    povm = ProductPOVM.local_sic(3)
    state = _mpdo(3, seed=5)
    rec = sample_sequential(povm, state, 200, seed=17)
    checked = 0
    for outcome in list(rec.counts)[:100]:
        chain = 1.0
        for ell in range(1, 4):
            num = marginal_prefix_prob(povm, state, outcome[:ell])
            den = marginal_prefix_prob(povm, state, outcome[:ell - 1])
            chain *= num / den
        direct = prob_of_outcome(povm, state, outcome)
        assert abs(chain - direct) <= 1e-10 * direct
        checked += 1
    assert checked > 0


def test_sequential_total_variation():
    povm = ProductPOVM.local_sic(3)
    state = _mpdo(3, seed=6)
    m = 2 * 10 ** 5
    rec = sample_sequential(povm, state, m, seed=19)
    emp = _flat_empirical(rec, povm)
    exact = probability_tensor(povm, state).reshape(-1)
    tv = 0.5 * np.abs(emp - exact).sum()
    assert tv <= 0.02


def test_enumerate_and_sequential_agree():
    povm = ProductPOVM.local_sic(2)
    state = _mpdo(2, seed=7)
    m = 5 * 10 ** 5
    enum = sample_enumerate(povm, state, m, seed=23)
    seq = sample_sequential(povm, state, m, seed=29)
    diff = np.abs(_flat_empirical(enum, povm) - _flat_empirical(seq, povm))
    assert diff.max() <= 0.01


def test_sparsity_bound():
    povm = ProductPOVM.local_sic(4)
    state = _mpdo(4, seed=8)
    rec = sample_sequential(povm, state, 100, seed=31)
    assert len(rec.counts) <= min(100, povm.k_total)


@given(st.integers(0, 2 ** 31), st.integers(1, 500))
@settings(max_examples=15, deadline=None)
def test_sequential_shot_conservation(seed, m):
    povm = ProductPOVM.local_sic(2)
    state = _mpdo(2, seed=9)
    rec = sample_sequential(povm, state, m, seed=seed)
    assert sum(rec.counts.values()) == m


# ---------------------------------------------------------------------------
# population records


def test_population_record_mass_and_fetch():
    povm = ProductPOVM.local_sic(3)
    state = _mpdo(3, seed=10)
    rec = population_record(povm, state)
    assert abs(sum(rec.weights().values()) - 1.0) < 1e-8
    probs = probability_tensor(povm, state)
    assert abs(empirical_probability(rec, (1, 1, 1)) - probs[0, 0, 0]) < 1e-12


# ---------------------------------------------------------------------------
# serialization


def test_record_json_round_trip():
    povm = ProductPOVM.local_sic(3)
    state = _mpdo(3, seed=11)
    rec = sample_sequential(povm, state, 500, seed=37)
    blob = json.dumps(record_to_json_dict(rec))
    back = record_from_json_dict(json.loads(blob))
    assert isinstance(back, OutcomeRecord)
    assert back.counts == rec.counts
    assert back.m_shots == rec.m_shots
    assert back.seed == rec.seed
    assert set(rec.diagnostics) == {"clamped", "aborted"}
    assert back.diagnostics == rec.diagnostics
    noisy = OutcomeRecord(counts={(1, 2, 3): 2}, m_shots=2, povm_id="x",
                          seed=1, diagnostics={"clamped": 3, "aborted": 1})
    back = record_from_json_dict(json.loads(json.dumps(
        record_to_json_dict(noisy))))
    assert back.diagnostics == {"clamped": 3, "aborted": 1}
    data = record_to_json_dict(rec)
    del data["diagnostics"]  # records written without the key still load
    assert record_from_json_dict(data).diagnostics == {}

    pop = population_record(povm, state)
    back = record_from_json_dict(json.loads(json.dumps(
        record_to_json_dict(pop))))
    assert isinstance(back, PopulationRecord)
    assert back.weights() == pop.weights()


def test_record_json_sorted_lexicographically():
    rec = OutcomeRecord(counts={(2, 1): 1, (1, 2): 1, (1, 1): 2},
                        m_shots=4, povm_id="x", seed=0)
    data = record_to_json_dict(rec)
    keys = [tuple(k) for k, _ in data["counts"]]
    assert keys == sorted(keys)
