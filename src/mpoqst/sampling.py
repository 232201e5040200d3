"""Finite-shot measurement simulation with reproducible random streams.

Randomness comes from numpy's counter-based Philox bit generator.  Stream
r of a run is keyed by ``(seed << 64) + r`` (so results are reproducible
across platforms and independent of shot ordering): the enumeration
sampler uses stream 0 for its single multinomial draw; the sequential
sampler draws the uniform block for first-attempt shots from stream 0 and
the block for the r-th retry round from stream r.

Records are arrays.  The distinct outcomes are the rows of a (U, n)
matrix of 1-based per-site indices (the povm module's outcome
convention) in lexicographic order, uint8 when every index fits, and a
(U,) vector holds their counts or probabilities.  ``counts`` and
``probs`` are read-only mappings over the two arrays, keyed by 1-based
outcome tuples.  The samplers count outcomes without a per-shot Python
loop: a lexsort of the sampled rows, then an adjacent-row diff.
``write_record_json`` writes a record file byte-identical to
``json.dump(payload, fh, indent=2, sort_keys=True)``, formatting the
outcome block from a fixed per-row template.
"""

from __future__ import annotations

import json
import numbers
from collections.abc import ItemsView, Mapping, ValuesView
from itertools import chain
from operator import itemgetter

import numpy as np

from .povm import (
    DensePOVM,
    NonPhysicalStateError,
    PROB_CLAMP_TOL,
    ProductPOVM,
    _right_environments,
    _site_transfers,
    clamp_probabilities,
    measure_map_dense,
    povm_id,
    probability_tensor,
)
from .tt import DenseOperator, TTTensor, _json_int

_MAX_RETRY_ROUNDS = 10
_SHOT_CHUNK = 4096
_JSON_ROWS_PER_CHUNK = 8192
MAX_SHOTS = 10 ** 7  # the (M, n) uniform block is about 1 GB at n = 12


def _check_shots(m_shots) -> None:
    if isinstance(m_shots, bool) or not (
            isinstance(m_shots, numbers.Integral)
            and 0 <= m_shots <= MAX_SHOTS):
        raise ValueError(f"shot count must be an integer in [0, "
                         f"{MAX_SHOTS}], got {m_shots!r}")


def _stream(seed: int, index: int) -> np.random.Generator:
    if not 0 <= seed < 2 ** 63:
        raise ValueError("seed must be in [0, 2**63)")
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + index))


# ---------------------------------------------------------------------------
# outcome matrices


def _index_dtype(k_max: int):
    return np.uint8 if k_max <= 255 else np.int64


def _row_starts(rows: np.ndarray) -> np.ndarray:
    """Flags of the rows of a sorted matrix that differ from the row
    before them (the first row included)."""
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return new


def _count_rows(rows: np.ndarray) -> tuple:
    """The distinct rows of an integer matrix in lexicographic order, and
    how often each occurs."""
    rows = rows[np.lexsort(rows.T[::-1])]
    starts = np.flatnonzero(_row_starts(rows))
    return rows[starts], np.diff(starts, append=len(rows))


def _sorted_outcomes(outcomes, values) -> tuple:
    """A record's outcome matrix and value vector, rows in lexicographic
    order and both read-only copies; ValueError on a shape mismatch, an
    outcome without indices or a repeated outcome."""
    rows = np.asarray(outcomes)
    values = np.asarray(values)
    if rows.size == 0 and values.size == 0:
        return _read_only(np.zeros((0, 0), dtype=np.uint8),
                          np.zeros(0, dtype=values.dtype))
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise ValueError("outcomes must be equal-length index rows")
    if values.shape != (len(rows),):
        raise ValueError("need one value per outcome")
    if rows.dtype != np.uint8:
        rows = rows.astype(np.int64)
        if rows.min() >= 0:
            rows = rows.astype(_index_dtype(rows.max()))
    order = np.lexsort(rows.T[::-1])
    rows, values = rows[order], values[order]
    if not _row_starts(rows).all():
        raise ValueError("an outcome is listed twice")
    return _read_only(rows, values)


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _arrays_from_mapping(mapping, dtype) -> tuple:
    try:
        rows = np.array(list(mapping), dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            "outcomes must be equal-length rows of integer indices") from None
    return rows, np.array(list(mapping.values()), dtype=dtype)


class OutcomeView(Mapping):
    """Read-only mapping from 1-based outcome tuples to a record's values,
    over its sorted outcome matrix and value vector; iterates in
    lexicographic order.  The first lookup builds a dict."""

    def __init__(self, outcomes: np.ndarray, values: np.ndarray):
        self._outcomes = outcomes
        self._values = values
        self._lookup = None

    def __len__(self):
        return len(self._values)

    def __iter__(self):
        return map(tuple, self._outcomes.tolist())

    def __getitem__(self, key):
        if self._lookup is None:
            self._lookup = dict(self.items())
        return self._lookup[key]

    def values(self):
        return _Values(self)

    def items(self):
        return _Items(self)

    def __repr__(self):
        return f"OutcomeView({len(self)} outcomes)"


class _Values(ValuesView):
    def __iter__(self):
        return iter(self._mapping._values.tolist())


class _Items(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._values.tolist())


class _Record:
    """Array storage shared by the two record kinds: ``outcomes`` is the
    sorted (U, n) matrix of 1-based indices, ``values`` the (U,) vector.
    Records are immutable and compare by value: arrays, shot count, POVM
    id and seed."""

    def _init(self, outcomes, values, m_shots, povm_id, seed):
        outcomes, values = _sorted_outcomes(outcomes, values)
        for name, value in (("outcomes", outcomes), ("values", values),
                            ("m_shots", m_shots), ("povm_id", povm_id),
                            ("seed", seed)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.m_shots == other.m_shots
                and self.povm_id == other.povm_id
                and self.seed == other.seed
                and np.array_equal(self.outcomes, other.outcomes)
                and np.array_equal(self.values, other.values))

    __hash__ = None

    def __repr__(self):
        u, n = self.outcomes.shape
        return (f"{type(self).__name__}({u} outcomes on {n} sites, "
                f"m_shots={self.m_shots}, povm_id={self.povm_id!r}, "
                f"seed={self.seed})")

    def weights(self) -> OutcomeView:
        """Empirical probabilities p_hat keyed by outcome."""
        return OutcomeView(self.outcomes, self.p_hat)


class OutcomeRecord(_Record):
    """Sparse multiset of observed outcomes: count f_k of each distinct
    outcome k, sum = M.

    ``counts`` is a mapping outcome -> count, or, when ``outcomes`` (a
    (U, n) matrix of 1-based indices) is given, the (U,) vector of their
    counts.  On the record, ``counts`` is a read-only mapping view."""

    def __init__(self, counts, m_shots: int, povm_id: str, seed: int,
                 diagnostics: dict = None, outcomes=None):
        if outcomes is None:
            outcomes, counts = _arrays_from_mapping(counts, np.int64)
        self._init(outcomes, np.asarray(counts, dtype=np.int64), m_shots,
                   povm_id, seed)
        if (self.values <= 0).any():
            raise ValueError("all counts must be positive")
        if sum(self.values.tolist()) != m_shots:
            raise ValueError("counts must sum to the shot total")
        object.__setattr__(self, "diagnostics", dict(diagnostics or {}))
        object.__setattr__(self, "counts",
                           OutcomeView(self.outcomes, self.values))

    @property
    def p_hat(self) -> np.ndarray:
        """The (U,) empirical probabilities f_k / M."""
        return self.values / self.m_shots


class PopulationRecord(_Record):
    """Exact outcome probabilities (noiseless synthetic measurements).

    ``probs`` is a mapping outcome -> probability, or, when ``outcomes``
    is given, the (U,) vector of their probabilities, all finite.  On
    the record, ``probs`` is a read-only mapping view."""

    def __init__(self, probs, povm_id: str, m_shots: int = None,
                 seed: int = None, outcomes=None):
        if outcomes is None:
            outcomes, probs = _arrays_from_mapping(probs, float)
        self._init(outcomes, np.asarray(probs, dtype=float), m_shots,
                   povm_id, seed)
        if not np.isfinite(self.values).all():
            raise ValueError("probabilities must be finite numbers")
        object.__setattr__(self, "probs",
                           OutcomeView(self.outcomes, self.values))

    @property
    def p_hat(self) -> np.ndarray:
        return self.values


def _flat_outcomes(flat: np.ndarray, shape: tuple) -> np.ndarray:
    """1-based outcome rows of flat (C-order) indices into ``shape``."""
    rows = np.stack(np.unravel_index(flat, shape), axis=1) + 1
    return rows.astype(_index_dtype(max(shape)))


def population_record(povm: ProductPOVM, state: TTTensor) -> PopulationRecord:
    """Enumerate the exact probability of every outcome (small n only).

    Values are kept raw (no clamping) so that estimators fed with a
    population record see exactly the linear measurement of the state.
    """
    probs = probability_tensor(povm, state)
    flat = np.flatnonzero(probs)
    return PopulationRecord(probs.reshape(-1)[flat], povm_id=povm_id(povm),
                            outcomes=_flat_outcomes(flat, probs.shape))


# ---------------------------------------------------------------------------
# enumeration sampler


def sample_enumerate(povm, state, m_shots: int, seed: int) -> OutcomeRecord:
    """One multinomial draw over the full enumerated distribution.

    Requires an enumerable outcome space; the probability vector is
    clamped by the PSD noise rule and renormalized (aborting if the total
    mass deviates from 1 by more than 1e-6).  m_shots is an integer in
    [0, MAX_SHOTS].
    """
    _check_shots(m_shots)
    if isinstance(povm, DensePOVM):
        if not isinstance(state, DenseOperator):
            raise TypeError("dense POVM requires a dense state")
        probs = measure_map_dense(povm, state)
        shape = (povm.k_total,)
    elif isinstance(povm, ProductPOVM):
        if isinstance(state, DenseOperator):
            probs = measure_map_dense(povm, state)
        else:
            probs = probability_tensor(povm, state)
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
    flat = np.flatnonzero(counts)
    return OutcomeRecord(counts[flat], m_shots=m_shots,
                         povm_id=povm_id(povm), seed=seed,
                         diagnostics={"clamped": n_clamped},
                         outcomes=_flat_outcomes(flat, shape))


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
    are retried in later streams, at most 10 rounds.  A mass below the
    window or a non-finite one raises NonPhysicalStateError.  The
    completed shots of every chunk are kept as rows and counted once at
    the end.  m_shots is an integer in [0, MAX_SHOTS].
    """
    _check_shots(m_shots)
    n = povm.n
    transfers = _site_transfers(povm, state)
    envs = _right_environments(transfers)
    # candidate weight operators: cand[l][i] = E_i @ R_{l+1}, (k_loc, r_l)
    cand = [np.tensordot(transfers[l], envs[l + 1], axes=[[2], [0]])
            for l in range(n)]
    k_locs = povm.k_locs
    dtype = _index_dtype(max(k_locs))

    done = []
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
            outcome = np.zeros((len(shots), n), dtype=dtype)
            alive = np.ones(len(shots), dtype=bool)
            for l in range(n):
                # cand[l] has shape (k_loc, r_{l-1}); masses[m, i] = left[m] . cand[l][i]
                masses = (left @ cand[l].T).real
                bad = masses < -PROB_CLAMP_TOL
                if bad.any():
                    raise NonPhysicalStateError(
                        f"conditional mass {masses[bad].min():.3e} below "
                        "clamp tolerance; the state is not PSD")
                clamped_total += int((masses < 0).sum())
                np.maximum(masses, 0.0, out=masses)
                totals = masses.sum(axis=1)
                if not np.isfinite(totals).all():
                    raise NonPhysicalStateError(
                        f"non-finite conditional mass at site {l + 1}; "
                        "the state's cores overflow")
                live = totals > 0
                alive &= live
                cond = masses / np.where(live, totals, 1)[:, None]
                cum = np.cumsum(cond, axis=1)
                pick = (us[:, l:l + 1] > cum).sum(axis=1)
                np.clip(pick, 0, k_locs[l] - 1, out=pick)
                outcome[:, l] = pick
                # advance the left bond vectors: E_{pick} applied per shot
                trans = transfers[l]  # (k_loc, r_{l-1}, r_l)
                left = np.einsum("mr,mrs->ms", left, trans[pick])
            done.append(outcome[alive])
            aborted.append(shots[~alive])
        pending = np.concatenate(aborted)
        aborted_total += len(pending)
    if len(pending):
        raise NonPhysicalStateError(
            f"{len(pending)} shots hit zero-mass prefixes after "
            f"{_MAX_RETRY_ROUNDS} retry rounds")
    rows = np.concatenate(done) if done else np.zeros((0, n), dtype=dtype)
    rows += 1  # 1-based indices
    outcomes, counts = _count_rows(rows)
    return OutcomeRecord(counts, m_shots=m_shots, povm_id=povm_id(povm),
                         seed=seed,
                         diagnostics={"clamped": clamped_total,
                                      "aborted": aborted_total},
                         outcomes=outcomes)


# ---------------------------------------------------------------------------
# serialization


def record_to_json_dict(record) -> dict:
    if isinstance(record, OutcomeRecord):
        data = {"kind": "counts", "M": record.m_shots, "seed": record.seed,
                "povm_id": record.povm_id,
                "diagnostics": dict(record.diagnostics)}
    elif isinstance(record, PopulationRecord):
        data = {"kind": "probabilities", "M": record.m_shots,
                "seed": record.seed, "povm_id": record.povm_id}
    else:
        raise TypeError(f"not a record: {type(record)}")
    data["counts"] = list(map(list, zip(record.outcomes.tolist(),
                                        record.values.tolist())))
    return data


def _outcome_block(record) -> list:
    """The pieces of the "counts" value as json.dumps(indent=2) writes it
    one level deep, formatted chunk by chunk from a per-row template:
    %d for indices and counts, %r (float repr, as json uses) for
    probabilities.  An empty record's block is "[]"."""
    u, n = record.outcomes.shape
    if not u:
        return ["[]"]
    value = "%d" if isinstance(record, OutcomeRecord) else "%r"
    row = ("    [\n      [\n" + ",\n".join(["        %d"] * n)
           + "\n      ],\n      " + value + "\n    ]")
    table = np.empty((u, n + 1), dtype=object)  # Python ints and floats
    table[:, :n] = record.outcomes
    table[:, n] = record.values
    cells = table.ravel().tolist()
    parts = ["[\n"]
    for lo in range(0, u, _JSON_ROWS_PER_CHUNK):
        hi = min(lo + _JSON_ROWS_PER_CHUNK, u)
        if lo:
            parts.append(",\n")
        parts.append(",\n".join([row] * (hi - lo))
                     % tuple(cells[lo * (n + 1):hi * (n + 1)]))
    parts.append("\n  ]")
    return parts


def write_record_json(fh, payload: dict, record) -> None:
    """Write ``payload``, record_to_json_dict(record) with any further
    keys, to ``fh``.  The bytes equal json.dump(payload, fh, indent=2,
    sort_keys=True); the "counts" block comes from the record's arrays,
    which every record holds finite."""
    marker = '\n  "counts": []'  # a top-level key: nothing else is at indent 2
    text = json.dumps(dict(payload, counts=[]), indent=2, sort_keys=True)
    head, tail = text.split(marker)
    fh.write(head + '\n  "counts": ')
    for part in _outcome_block(record):
        fh.write(part)
    fh.write(tail)


def _json_outcome_arrays(raw) -> tuple:
    """Outcome matrix and the list of values from the JSON list of
    [outcome, value] pairs; ValueError on a malformed entry, a
    non-integer outcome index or outcomes of different lengths."""
    malformed = ValueError("counts must be a list of [outcome, value] pairs")
    if (not isinstance(raw, list) or set(map(type, raw)) - {list}
            or set(map(len, raw)) - {2}):
        raise malformed
    if not raw:
        return np.zeros((0, 0), dtype=np.int64), []
    keys = list(map(itemgetter(0), raw))
    values = list(map(itemgetter(1), raw))
    if set(map(type, keys)) - {list}:
        raise malformed
    lengths = set(map(len, keys))
    if len(lengths) > 1:
        raise ValueError("outcomes must be equal-length index rows")
    if set(map(type, chain.from_iterable(keys))) - {int}:
        raise ValueError("outcome indices must be integers")
    n = lengths.pop()
    try:
        flat = np.fromiter(chain.from_iterable(keys), dtype=np.int64,
                           count=len(keys) * n)
    except OverflowError:
        raise ValueError("outcome index out of range") from None
    return flat.reshape(len(keys), n), values


def _json_probabilities(values) -> np.ndarray:
    bad = ValueError("probabilities must be finite numbers")
    if set(map(type, values)) - {int, float}:
        raise bad
    try:
        return np.array(values, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise bad from None


def record_from_json_dict(data: dict):
    """Record from its JSON form.  Outcome indices, counts, M and seed
    must be JSON integers, probabilities finite numbers, and no outcome
    may be listed twice; ValueError on any malformed field."""
    if not isinstance(data, dict):
        raise ValueError("record must be a JSON object")
    kind = data.get("kind", "counts")
    povm_name = data.get("povm_id", "")
    if not isinstance(povm_name, str):
        raise ValueError("povm_id must be a string")
    if kind == "counts":
        outcomes, values = _json_outcome_arrays(data["counts"])
        if set(map(type, values)) - {int}:
            raise ValueError("counts must be integers")
        try:
            counts = np.fromiter(values, dtype=np.int64, count=len(values))
        except OverflowError:
            raise ValueError("count out of range") from None
        diagnostics = data.get("diagnostics", {})
        if not isinstance(diagnostics, dict):
            raise ValueError("diagnostics must be a JSON object")
        return OutcomeRecord(
            counts, m_shots=_json_int(data["M"], "M"),
            povm_id=povm_name, seed=_json_int(data.get("seed", 0), "seed"),
            diagnostics={k: _json_int(v, f"diagnostic {k!r}")
                         for k, v in diagnostics.items()},
            outcomes=outcomes)
    if kind == "probabilities":
        m_shots, seed = data.get("M"), data.get("seed")
        outcomes, values = _json_outcome_arrays(data["counts"])
        return PopulationRecord(
            _json_probabilities(values), povm_id=povm_name,
            m_shots=None if m_shots is None else _json_int(m_shots, "M"),
            seed=None if seed is None else _json_int(seed, "seed"),
            outcomes=outcomes)
    raise ValueError(f"unknown record kind {kind!r}")
