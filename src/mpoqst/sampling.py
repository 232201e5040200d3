"""Finite-shot measurement simulation with reproducible random streams.

Randomness comes from numpy's counter-based Philox bit generator.  Stream
r of a run is keyed by ``(seed << 64) + r`` (so results are reproducible
across platforms and independent of shot ordering): the enumeration
sampler uses stream 0 for its single multinomial draw; the sequential
sampler draws the uniform block for first-attempt shots from stream 0 and
the block for the r-th retry round from stream r.

Outcome indices are the 1-based tuples of the povm module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .povm import (
    DensePOVM,
    NonPhysicalStateError,
    PROB_CLAMP_TOL,
    ProductPOVM,
    _json_int,
    _right_environments,
    _site_transfers,
    clamp_probabilities,
    measure_map_dense,
    povm_id,
    probability_tensor,
)
from .tt import N_DENSE_MAX, DenseOperator, TTTensor

_MAX_RETRY_ROUNDS = 10
_SHOT_CHUNK = 4096


def _stream(seed: int, index: int) -> np.random.Generator:
    if not 0 <= seed < 2 ** 63:
        raise ValueError("seed must be in [0, 2**63)")
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + index))


@dataclass(frozen=True)
class OutcomeRecord:
    """Sparse multiset of observed outcomes: counts[k] = f_k, sum = M."""

    counts: dict
    m_shots: int
    povm_id: str
    seed: int
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        counts = {tuple(map(int, k)): int(v) for k, v in self.counts.items()}
        if any(v <= 0 for v in counts.values()):
            raise ValueError("all counts must be positive")
        if sum(counts.values()) != self.m_shots:
            raise ValueError("counts must sum to the shot total")
        object.__setattr__(self, "counts", counts)

    def weights(self) -> dict:
        """Empirical probabilities f_k / M keyed by outcome."""
        return {k: v / self.m_shots for k, v in self.counts.items()}

    def nonzero_outcomes(self) -> list:
        return sorted(self.counts)


@dataclass(frozen=True)
class PopulationRecord:
    """Exact outcome probabilities (noiseless synthetic measurements)."""

    probs: dict
    povm_id: str
    m_shots: int = None
    seed: int = None

    def __post_init__(self):
        probs = {tuple(int(i) for i in k): float(v)
                 for k, v in self.probs.items()}
        object.__setattr__(self, "probs", probs)

    def weights(self) -> dict:
        return dict(self.probs)

    def nonzero_outcomes(self) -> list:
        return sorted(self.probs)


def empirical_probability(record, outcome) -> float:
    """p-hat for one outcome; absent keys are 0."""
    key = tuple(int(i) for i in outcome)
    if isinstance(record, OutcomeRecord):
        return record.counts.get(key, 0) / record.m_shots
    return record.probs.get(key, 0.0)


def nonzero_outcomes(record) -> list:
    return record.nonzero_outcomes()


def population_record(povm: ProductPOVM, state: TTTensor,
                      n_dense: int = N_DENSE_MAX) -> PopulationRecord:
    """Enumerate the exact probability of every outcome (small n only).

    Values are kept raw (no clamping) so that estimators fed with a
    population record see exactly the linear measurement of the state.
    """
    probs = probability_tensor(povm, state)
    out = {}
    for flat, val in enumerate(probs.reshape(-1)):
        if val != 0.0:
            idx = np.unravel_index(flat, probs.shape)
            out[tuple(int(i) + 1 for i in idx)] = float(val)
    return PopulationRecord(probs=out, povm_id=povm_id(povm))


# ---------------------------------------------------------------------------
# enumeration sampler


def sample_enumerate(povm, state, m_shots: int, seed: int,
                     n_dense: int = N_DENSE_MAX) -> OutcomeRecord:
    """One multinomial draw over the full enumerated distribution.

    Requires an enumerable outcome space; the probability vector is
    clamped by the PSD noise rule and renormalized (aborting if the total
    mass deviates from 1 by more than 1e-6).
    """
    if isinstance(povm, DensePOVM):
        if not isinstance(state, DenseOperator):
            raise TypeError("dense POVM requires a dense state")
        probs = measure_map_dense(povm, state)
        shape = (povm.k_total,)
    elif isinstance(povm, ProductPOVM):
        if isinstance(state, DenseOperator):
            probs = measure_map_dense(povm, state)
            shape = povm.k_locs
        else:
            if povm.n > n_dense:
                raise ValueError(
                    f"n={povm.n} exceeds dense cap {n_dense}; "
                    "use sample_sequential")
            probs = probability_tensor(povm, state).reshape(-1)
            shape = povm.k_locs
    else:
        raise TypeError(f"unsupported POVM type {type(povm)}")
    probs = np.asarray(probs, dtype=float).reshape(-1)
    probs, n_clamped = clamp_probabilities(probs)
    total = probs.sum()
    if abs(total - 1.0) > 1e-6:
        raise NonPhysicalStateError(
            f"probability mass {total} deviates from 1 beyond 1e-6")
    probs = probs / total
    rng = _stream(seed, 0)
    counts = rng.multinomial(m_shots, probs)
    record_counts = {}
    for flat in np.nonzero(counts)[0]:
        idx = np.unravel_index(flat, shape)
        record_counts[tuple(int(i) + 1 for i in idx)] = int(counts[flat])
    return OutcomeRecord(counts=record_counts, m_shots=m_shots,
                         povm_id=povm_id(povm), seed=seed,
                         diagnostics={"clamped": n_clamped})


# ---------------------------------------------------------------------------
# sequential (chain-rule) sampler


def sample_sequential(povm: ProductPOVM, state: TTTensor, m_shots: int,
                      seed: int) -> OutcomeRecord:
    """Site-by-site conditional sampling through the marginal chain.

    Each shot draws i_1 from the single-site marginal, then i_l from the
    conditional given the sampled prefix, using cached right environments;
    the induced distribution equals the Born probabilities exactly in
    exact arithmetic.  Conditionals hitting the negative-noise window are
    clamped (counted in diagnostics); shots landing on a zero-mass prefix
    are retried in later streams, at most 10 rounds.
    """
    n = povm.n
    transfers = _site_transfers(povm, state)
    envs = _right_environments(transfers)
    # candidate weight operators: cand[l][i] = E_i @ R_{l+1}, (k_loc, r_l)
    cand = [np.tensordot(transfers[l], envs[l + 1], axes=[[2], [0]])
            for l in range(n)]
    k_locs = povm.k_locs

    counts = {}
    clamped_total = 0
    aborted_total = 0
    pending = np.arange(m_shots)
    for round_idx in range(_MAX_RETRY_ROUNDS + 1):
        if len(pending) == 0:
            break
        uniforms = _stream(seed, round_idx).random((m_shots, n))
        aborted = []
        for lo in range(0, len(pending), _SHOT_CHUNK):
            shots = pending[lo:lo + _SHOT_CHUNK]
            us = uniforms[shots]
            left = np.ones((len(shots), 1), dtype=complex)
            outcome = np.zeros((len(shots), n), dtype=np.int64)
            alive = np.ones(len(shots), dtype=bool)
            for l in range(n):
                # cand[l] has shape (k_loc, r_{l-1}); masses[m, i] = left[m] . cand[l][i]
                masses = (left @ cand[l].T).real
                neg = masses < 0
                bad = masses < -PROB_CLAMP_TOL
                if bad.any():
                    raise NonPhysicalStateError(
                        f"conditional mass {masses[bad].min():.3e} below "
                        "clamp tolerance; the state is not PSD")
                clamped_total += int((neg & ~bad).sum())
                masses[neg] = 0.0
                totals = masses.sum(axis=1)
                dead = alive & (totals <= 0.0)
                if dead.any():
                    alive &= ~dead
                cond = np.zeros_like(masses)
                ok = totals > 0
                cond[ok] = masses[ok] / totals[ok, None]
                cum = np.cumsum(cond, axis=1)
                pick = (us[:, l:l + 1] > cum).sum(axis=1)
                np.clip(pick, 0, k_locs[l] - 1, out=pick)
                outcome[:, l] = pick
                # advance the left bond vectors: E_{pick} applied per shot
                trans = transfers[l]  # (k_loc, r_{l-1}, r_l)
                left = np.einsum("mr,mrs->ms", left, trans[pick])
            for m_idx in range(len(shots)):
                if not alive[m_idx]:
                    aborted.append(shots[m_idx])
                    continue
                key = tuple(int(i) + 1 for i in outcome[m_idx])
                counts[key] = counts.get(key, 0) + 1
        aborted_total += len(aborted)
        pending = np.asarray(aborted, dtype=np.int64)
    if len(pending):
        raise NonPhysicalStateError(
            f"{len(pending)} shots hit zero-mass prefixes after "
            f"{_MAX_RETRY_ROUNDS} retry rounds")
    return OutcomeRecord(counts=counts, m_shots=m_shots,
                         povm_id=povm_id(povm), seed=seed,
                         diagnostics={"clamped": clamped_total,
                                      "aborted": aborted_total})


# ---------------------------------------------------------------------------
# serialization


def record_to_json_dict(record) -> dict:
    if isinstance(record, OutcomeRecord):
        return {"kind": "counts", "M": record.m_shots, "seed": record.seed,
                "povm_id": record.povm_id,
                "diagnostics": dict(record.diagnostics),
                "counts": [[list(k), v]
                           for k, v in sorted(record.counts.items())]}
    if isinstance(record, PopulationRecord):
        return {"kind": "probabilities", "M": record.m_shots,
                "seed": record.seed, "povm_id": record.povm_id,
                "counts": [[list(k), v]
                           for k, v in sorted(record.probs.items())]}
    raise TypeError(f"not a record: {type(record)}")


def _json_outcome_pairs(raw) -> dict:
    """Outcome -> value from the JSON list of [outcome, value] pairs;
    ValueError on a malformed entry, a non-integer outcome index or a
    repeated outcome."""
    malformed = ValueError("counts must be a list of [outcome, value] pairs")
    if not isinstance(raw, list):
        raise malformed
    try:
        pairs = {tuple(k): v for k, v in raw}
    except (TypeError, ValueError):
        raise malformed from None
    if len(pairs) != len(raw):
        raise ValueError("an outcome is listed twice")
    if set(map(type, chain.from_iterable(pairs))) - {int}:
        raise ValueError("outcome indices must be integers")
    return pairs


def _json_probability(value) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"probability must be a finite number, got {value!r}")


def record_from_json_dict(data: dict):
    """Record from its JSON form.  Outcome indices, counts, M and seed
    must be JSON integers; ValueError on any malformed field."""
    if not isinstance(data, dict):
        raise ValueError("record must be a JSON object")
    kind = data.get("kind", "counts")
    povm_name = data.get("povm_id", "")
    if not isinstance(povm_name, str):
        raise ValueError("povm_id must be a string")
    if kind == "counts":
        counts = _json_outcome_pairs(data["counts"])
        if set(map(type, counts.values())) - {int}:
            raise ValueError("counts must be integers")
        diagnostics = data.get("diagnostics", {})
        if not isinstance(diagnostics, dict):
            raise ValueError("diagnostics must be a JSON object")
        return OutcomeRecord(
            counts=counts, m_shots=_json_int(data["M"], "M"),
            povm_id=povm_name, seed=_json_int(data.get("seed", 0), "seed"),
            diagnostics={k: _json_int(v, f"diagnostic {k!r}")
                         for k, v in diagnostics.items()})
    if kind == "probabilities":
        m_shots, seed = data.get("M"), data.get("seed")
        return PopulationRecord(
            probs={k: _json_probability(v)
                   for k, v in _json_outcome_pairs(data["counts"]).items()},
            povm_id=povm_name,
            m_shots=None if m_shots is None else _json_int(m_shots, "M"),
            seed=None if seed is None else _json_int(seed, "seed"))
    raise ValueError(f"unknown record kind {kind!r}")
