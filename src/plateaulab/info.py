"""Information-theoretic layer: one-shot identification from an exact
evaluation, and exact Bayesian posteriors / mutual information over the
3**n hidden shifts for sample-query transcripts.

Entropies are in bits; posterior entries are indexed trit-lexicographically,
little-endian (coordinate 0 is the least significant trit).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._parallel import run_chunks
from .circuits import h_eval_array
from .oracles import RandomStack, eval_query
from .rng import BLOCK_BYTES, index_block, stream_bases, uniform_block
from .torus import GRID_BASE, GridShift, TorusPoint, index_trits, wrap01_array

LOG2_3 = math.log2(3)

MI_N_CAP = 8  # bounds time, not memory: a 3**n-entry Bayes step per transcript and query
IDENTIFY_N_CAP = 13  # a 3**n candidate row and its temporaries, ~32 3**n bytes: 51 MB at 13
_TRIT_SHIFTS = np.arange(GRID_BASE) / GRID_BASE  # t/3 for each trit t


class InconsistentOracleError(RuntimeError):
    """The oracle value matches no member of the family."""


def _block_rows(n: int) -> int:
    """Rows per sub-block, so that rows x 3**n float64 stays near BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (8 * GRID_BASE**n))


def candidate_block(points: np.ndarray) -> np.ndarray:
    """(rows, 3**n) values f_a(x) of every shift a at each row x of the
    (rows, n) `points`, in posterior index order.

    A tensor product over the coordinates: coordinate j becomes the most
    significant trit, and each value is multiplied in coordinate order,
    ((h_0 h_1) h_2) ..., from h(wrap01(x_j - a_j)): the float operations of
    ShiftedProductFunction.__call__, so for points in [0, 1) each value
    equals f_a(TorusPoint(x)) to the bit.
    """
    # h(wrap01(x_j - t/3)) for each row, coordinate j and trit t
    return _tensor_product(h_eval_array(wrap01_array(points[:, :, None] - _TRIT_SHIFTS)))


def _tensor_product(htab: np.ndarray) -> np.ndarray:
    """candidate_block's products from its (rows, n, 3) h-factor table; at n = 1 a view of it."""
    vals = htab[:, 0, :]
    for j in range(1, htab.shape[1]):
        vals = (htab[:, j, :, None] * vals[:, None, :]).reshape(len(htab), GRID_BASE**(j + 1))
    return vals


def candidate_values(n: int, x: TorusPoint) -> np.ndarray:
    """f_a(x) for every shift a, in posterior index order."""
    if len(x) != n:
        raise ValueError(f"dimension mismatch: expected {n}, got {len(x)}")
    return candidate_block(x.array()[None, :])[0]


@dataclass
class Posterior:
    """Distribution over the 3**n hidden shifts."""

    n: int
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.shape != (GRID_BASE**self.n,):
            raise ValueError("probs must have length 3**n")
        if np.any(self.probs < 0) or abs(self.probs.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be a probability vector")

    @classmethod
    def uniform(cls, n: int) -> "Posterior":
        size = GRID_BASE**n
        return cls(n, np.full(size, 1.0 / size))

    def entropy_bits(self) -> float:
        p = self.probs[self.probs > 0]
        return float(-np.sum(p * np.log2(p)))


def _bayes_step(weights: np.ndarray, yvals: np.ndarray) -> None:
    """Unnormalised Bayes step on weights, in place, with likelihood
    (1 + y f_a(x)) / 2 from yvals = y * f_a(x), which it overwrites; rows
    broadcast.  The float operations are those of
    weights * (1.0 + yvals) / 2.0."""
    yvals += 1.0
    weights *= yvals
    weights /= 2.0


def posterior_update(prior: Posterior, x: TorusPoint, outcome: int) -> Posterior:
    """Bayes step with likelihood (1 + outcome * f_a(x)) / 2."""
    if outcome not in (-1, 1):
        raise ValueError("outcome must be +1 or -1")
    weights = prior.probs.copy()
    _bayes_step(weights, outcome * candidate_values(prior.n, x))
    total = weights.sum()
    if total <= 0.0:
        raise InconsistentOracleError("transcript has zero likelihood under every shift")
    return Posterior(prior.n, weights / total)


@dataclass
class IdentifyResult:
    shift: Optional[GridShift]  # unique match, if any
    argmax: Optional[TorusPoint]  # its maximizer (the shift itself)
    ambiguous: list[GridShift] = field(default_factory=list)
    query_point: Optional[TorusPoint] = None
    value: float = 0.0

    @property
    def unique(self) -> bool:
        return self.shift is not None


def omnipotent_identify(
    n: int,
    oracle,
    point_source: RandomStack,
    tol: float = 1e-9,
) -> IdentifyResult:
    """Identify the hidden shift from ONE evaluation query at a random point.

    Scans all 3**n candidates for |f_a(x) - value| <= tol.  Exactly one
    match returns the shift and its maximizer; several return the
    ambiguity set; none raises InconsistentOracleError.
    """
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    u = point_source.pop_batch(n)
    x = TorusPoint((u + 1.0) / 2.0)
    value = eval_query(oracle, x)
    vals = candidate_values(n, x)
    matches = np.flatnonzero(np.abs(vals - value) <= tol)
    if matches.size == 0:
        raise InconsistentOracleError("oracle value matches no family member")
    if matches.size == 1:
        shift = GridShift.from_index(n, int(matches[0]))
        return IdentifyResult(shift, shift.to_point(), [], x, value)
    ambiguous = [GridShift.from_index(n, int(i)) for i in matches]
    return IdentifyResult(None, None, ambiguous, x, value)


# --- transcript mutual information ------------------------------------------

def _query_points(spec, n: int, m: int) -> Optional[np.ndarray]:
    """The (m, n) query points of a ("fixed", point) spec, its point wrapped
    into [0, 1) at every query; None for "uniform"."""
    if spec == "uniform":
        return None
    if isinstance(spec, tuple) and spec[0] == "fixed":
        if not all(math.isfinite(c) for c in spec[1]):
            raise ValueError(f"fixed point coordinates must be finite, got {spec[1]!r}")
        point = TorusPoint(spec[1])
        if len(point) != n:
            raise ValueError("fixed point has wrong dimension")
        return np.tile(point.array(), (m, 1))
    raise ValueError(f"unknown strategy spec {spec!r}")


def _transcript_entropies_scalar(
    n: int, points: Optional[np.ndarray], m: int, start: int, count: int, seed: int
) -> np.ndarray:
    """H(C | transcript) of each trial, one RandomStack and candidate row
    per trial and query: the reference the batched path is tested against.
    Query q asks a uniform point, or row q-1 of the (m, n) `points`."""
    out = np.empty(count)
    for i, trial in enumerate(range(start, start + count)):
        stack = RandomStack(seed, trial)
        hidden = stack.pop_index(GRID_BASE**n)
        weights = np.full(GRID_BASE**n, 1.0 / GRID_BASE**n)
        for q in range(1, m + 1):
            x = (stack.pop_batch(n) + 1.0) / 2.0 if points is None else points[q - 1]
            vals = candidate_values(n, TorusPoint(x))
            y = 1 if stack.pop() < vals[hidden] else -1
            _bayes_step(weights, y * vals)
        p = weights[weights > 0] / weights.sum()
        out[i] = -np.sum(p * np.log2(p))
    return out


def _row_entropies(weights: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of unnormalised weights.

    Rows are grouped by their number of positive entries, so that each
    row's sum runs over the same compacted terms, in the same order, as
    the entropy of that row alone; a row with no zero needs no compaction.
    """
    p = weights / weights.sum(axis=1, keepdims=True)
    positive = weights > 0
    sizes = np.count_nonzero(positive, axis=1)
    out = np.empty(len(weights))
    for size in set(sizes.tolist()):
        rows = sizes == size
        q = p[rows] if size == p.shape[1] else p[rows][positive[rows]].reshape(-1, size)
        out[rows] = -np.sum(q * np.log2(q), axis=1)
    return out


def _transcript_entropies(
    n: int, points: Optional[np.ndarray], m: int, start: int, count: int, seed: int
) -> np.ndarray:
    """H(C | transcript) of each trial, with one in-place Bayes step per query
    for all trials of a sub-block.

    No query point depends on the answers, so trial t's draws are fixed by
    the scalar path on RandomStack(seed, t): draw 0 is the hidden shift.
    Uniform queries (`points` None) read n point draws and then the outcome,
    query q from draw 1 + (q-1)(n+1); fixed queries, row q-1 of the (m, n)
    `points`, read only the outcome, query q at draw q.
    """
    size = GRID_BASE**n
    bases = stream_bases(seed, np.arange(start, start + count))
    if points is not None:  # one candidate row per distinct point
        distinct, which = np.unique(points, axis=0, return_inverse=True)
        table, which = candidate_block(distinct), which.reshape(-1)
    out = np.empty(count)
    step = _block_rows(n)
    for lo in range(0, count, step):
        block = bases[lo : lo + step]
        hidden = index_block(uniform_block(block, 0, 1)[:, 0], size)
        weights = np.full((len(block), size), 1.0 / size)
        group = max(1, BLOCK_BYTES // (8 * GRID_BASE * n * len(block)))  # queries per h-table
        for q0 in range(0, m, group):
            k = min(group, m - q0)
            if points is None:
                u = uniform_block(block, 1 + q0 * (n + 1), k * (n + 1)).reshape(-1, k, n + 1)
                htab = h_eval_array(wrap01_array((u[..., :n, None] + 1.0) / 2.0 - _TRIT_SHIFTS))
                # the hidden shift's value: its h factors multiplied in coordinate order
                f = np.take_along_axis(htab, index_trits(hidden, n)[:, None, :, None], 3)[..., 0]
                y = np.where(u[..., n] < math.prod(f[..., j] for j in range(n)), 1.0, -1.0)
                htab[..., n - 1, :] *= y[..., None]  # y = +-1: products times y, to the bit
            else:
                f = table[which[q0 : q0 + k], hidden[:, None]]
                y = np.where(uniform_block(block, 1 + q0, k) < f, 1.0, -1.0)
            for q in range(k):
                _bayes_step(weights, _tensor_product(htab[:, q]) if points is None
                            else y[:, q, None] * table[which[q0 + q]])
        out[lo : lo + step] = _row_entropies(weights)
    return out


def mi_transcript_chunk(
    n: int, strategy_spec, m: int, start: int, count: int, seed: int
) -> np.ndarray:
    """[sum of conditional entropies, sum of their squares] over a chunk."""
    hs = _transcript_entropies(n, _query_points(strategy_spec, n, m), m, start, count, seed)
    sum_h = sum_h2 = 0.0
    for h in hs.tolist():  # in trial order
        sum_h += h
        sum_h2 += h * h
    return np.array([sum_h, sum_h2])


def transcript_mi(
    n: int, strategy_spec, m: int, transcripts: int, seed: int, workers: int = 1
) -> tuple[float, float]:
    """Estimate I(C : transcript) = H(C) - E[H(C | transcript)] in bits.

    Queries are "uniform" or ("fixed", point), the same point at every query.
    Monte Carlo over (shift, transcript) pairs; the conditional entropy of
    each sampled transcript is computed exactly, so the estimator of
    E[H(C|T)] is unbiased.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MI_N_CAP:
        raise ValueError(
            f"n={n} exceeds posterior cap {MI_N_CAP}: every query of every transcript"
            f" is a Bayes step over all 3^{n} = {GRID_BASE**n} shifts"
        )
    if transcripts < 1:
        raise ValueError("transcripts must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return 0.0, 0.0
    _query_points(strategy_spec, n, m)  # a bad spec fails here, not in a pool worker
    sums = run_chunks(mi_transcript_chunk, (n, strategy_spec, m), transcripts, seed, workers)
    sum_h, sum_h2 = sums.tolist()
    mean_h = sum_h / transcripts
    var_h = max(sum_h2 / transcripts - mean_h**2, 0.0)
    mi = n * LOG2_3 - mean_h
    return mi, math.sqrt(var_h / transcripts)


def identify_chunk(
    n: int, tol: float, start: int, count: int, seed: int
) -> np.ndarray:
    """[unique, unique_and_correct, ambiguous] counts over a chunk of trials.

    Trial t reads what omnipotent_identify reads on RandomStack(seed, t):
    the hidden shift from draw 0 and the query point from draws 1..n.  The
    oracle value is the hidden shift's entry of the candidate table, which
    equals ShiftedProductFunction.__call__ to the bit, so ties at tol fall
    as they do per trial.
    """
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    counts = np.zeros(3, dtype=np.int64)
    bases = stream_bases(seed, np.arange(start, start + count))
    step = _block_rows(n)
    for lo in range(0, count, step):
        u = uniform_block(bases[lo : lo + step], 0, 1 + n)
        hidden = index_block(u[:, 0], GRID_BASE**n)
        vals = candidate_block((u[:, 1:] + 1.0) / 2.0)
        rows = np.arange(len(vals))
        matches = np.abs(vals - vals[rows, hidden][:, None]) <= tol
        found = np.count_nonzero(matches, axis=1)
        if not found.all():
            raise InconsistentOracleError("oracle value matches no family member")
        one = found == 1
        counts += [np.count_nonzero(x) for x in (one, one & matches[rows, hidden], ~one)]
    return counts


def identification_rates(
    n: int, trials: int, tol: float, seed: int, workers: int = 1
) -> tuple[float, float, int]:
    """(unique rate, unique-and-correct rate, ambiguous count) over trials
    with a uniformly hidden shift."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > IDENTIFY_N_CAP:
        raise ValueError(
            f"n={n} exceeds identify cap {IDENTIFY_N_CAP}: a candidate row needs"
            f" about {32 * GRID_BASE**n / 1e9:.3g} GB"
        )
    counts = run_chunks(identify_chunk, (n, tol), trials, seed, workers)
    unique, correct, ambiguous = counts.tolist()
    return unique / trials, correct / trials, ambiguous


def mi_exact_enumeration(n: int, points: list[TorusPoint]) -> float:
    """Exact I(C : transcript) for a fixed (deterministic) query sequence,
    by enumerating all 2**m outcome sequences.  Independent of the Monte
    Carlo path; usable only for small m."""
    m = len(points)
    if m == 0:
        return 0.0
    if m > 20:
        raise ValueError("enumeration over 2**m outcome sequences; m too large")
    size = GRID_BASE**n
    vals = [candidate_values(n, x) for x in points]
    prior = 1.0 / size
    mi = 0.0
    step = _block_rows(n)
    for lo in range(0, 2**m, step):
        # outcome sequences as masks: bit i set means query i answered +1
        masks = np.arange(lo, min(lo + step, 2**m))
        lik = np.ones((len(masks), size))
        for i in range(m):
            y = np.where((masks >> i) & 1, 1.0, -1.0)
            _bayes_step(lik, y[:, None] * vals[i])
        p_seq = prior * lik.sum(axis=1)
        seen = p_seq > 0.0
        h_cond = _row_entropies(lik[seen])
        for p, h in zip(p_seq[seen].tolist(), h_cond.tolist()):  # in mask order
            mi += p * (n * LOG2_3 - h)
    return mi
