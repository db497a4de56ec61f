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
from .rng import BLOCK_BYTES, first_indices, stream_bases, uniform_block
from .torus import GRID_BASE, GridShift, TorusPoint, check_cap, check_n, wrap01_array

LOG2_3 = math.log2(3)

MI_N_CAP = 8  # bounds time, not memory: a 3**n-entry Bayes step per transcript and query
MI_TRANSCRIPTS_CAP = 10**7  # the merged entropy list: about 40 bytes per transcript (measured)
IDENTIFY_N_CAP = 13  # a 3**n candidate row and its temporaries, ~28 3**n bytes: 45 MB at 13
_TRIT_SHIFTS = np.arange(GRID_BASE) / GRID_BASE  # t/3 for each trit t


class InconsistentOracleError(RuntimeError):
    """The oracle value matches no member of the family."""


def _block_rows(n: int) -> int:
    """Rows per sub-block, so that rows x 3**n float64 stays near BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (8 * GRID_BASE**n))


def _check_table(n: int) -> None:
    """Refuse a 3**n candidate row above IDENTIFY_N_CAP before it is built."""
    check_cap("n", check_n(n), IDENTIFY_N_CAP, "candidate-table",
              f"a row of 3^{n} candidates needs about {28e-9 * GRID_BASE**n:.3g} GB")


def candidate_block(points: np.ndarray) -> np.ndarray:
    """(rows, 3**n) values f_a(x) of every shift a at each row x of the
    (rows, n) `points`, in posterior index order.

    A tensor product over the coordinates: coordinate j becomes the most
    significant trit, and each value is multiplied in coordinate order,
    ((h_0 h_1) h_2) ..., from h(wrap01(x_j - a_j)): the float operations of
    ShiftedProductFunction.__call__, so for points in [0, 1) each value
    equals f_a(TorusPoint(x)) to the bit, but for the sign of an exact zero.
    Each coordinate is one einsum outer product, which adds every product
    into a zeroed output, so a -0.0 product reads +0.0 (h is exactly 0.0
    where cos rounds to -0.5).  No caller reads that sign: MI reads a value
    only through 1 + y v, u < v and > 0, and identification through
    |v - value| <= tol.
    """
    _check_table(points.shape[1])
    # h(wrap01(x_j - t/3)) for each row, coordinate j and trit t
    return _tensor_product(h_eval_array(wrap01_array(points[:, :, None] - _TRIT_SHIFTS)))


def _tensor_product(htab: np.ndarray) -> np.ndarray:
    """candidate_block's products from its (rows, n, 3) h-factors; n = 1: a view, n = 0: ones."""
    vals = htab[:, 0, :] if htab.shape[1] else np.ones((len(htab), 1))
    for j in range(1, htab.shape[1]):
        vals = np.einsum("rt,rl->rtl", htab[:, j, :], vals).reshape(len(htab), GRID_BASE**(j + 1))
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
        _check_table(n)
        size = GRID_BASE**n
        return cls(n, np.full(size, 1.0 / size))

    def entropy_bits(self) -> float:
        p = self.probs[self.probs > 0]
        return float(-np.sum(p * np.log2(p)))


def _bayes_step(weights: np.ndarray, yvals: np.ndarray) -> None:
    """Unnormalised Bayes step on weights, in place, with likelihood
    (1 + y f_a(x)) / 2 from yvals = y * f_a(x), which it overwrites; rows
    broadcast.  The float operations are those of
    weights * (1.0 + yvals) / 2.0: halving by * 0.5 gives the correctly
    rounded x / 2 of every double, subnormals included."""
    yvals += 1.0
    weights *= yvals
    weights *= 0.5


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

def _query_points(spec, n: int) -> Optional[np.ndarray]:
    """The (n,) point of a ("fixed", point) spec, wrapped into [0, 1) and
    asked at every query; None for "uniform"."""
    if spec == "uniform":
        return None
    if isinstance(spec, tuple) and spec[0] == "fixed":
        if not all(math.isfinite(c) for c in spec[1]):
            raise ValueError(f"fixed point coordinates must be finite, got {spec[1]!r}")
        point = TorusPoint(spec[1])
        if len(point) != n:
            raise ValueError("fixed point has wrong dimension")
        return point.array()
    raise ValueError(f"unknown strategy spec {spec!r}")


def _row_entropies(weights: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of unnormalised weights.

    A block with no zero probability takes every row's terms in place.
    Otherwise rows are grouped by their number of positive entries, so that
    each row's sum runs over the same compacted terms, in the same order, as
    the entropy of that row alone; a row with no zero needs no compaction.
    """
    p = weights / weights.sum(axis=1, keepdims=True)
    if p.min(initial=1.0) > 0:  # no zero: every row sums all its terms, in place
        p *= np.log2(p)
        return -p.sum(axis=1)
    positive = p > 0
    sizes = np.count_nonzero(positive, axis=1)
    out = np.empty(len(weights))
    for size in set(sizes.tolist()):
        rows = sizes == size
        q = p[rows] if size == p.shape[1] else p[rows][positive[rows]].reshape(-1, size)
        out[rows] = -np.sum(q * np.log2(q), axis=1)
    return out


def mi_transcript_chunk(
    n: int, points: Optional[np.ndarray], m: int, start: int, count: int, seed: int
) -> list[float]:
    """H(C | transcript) of each trial of a chunk, in trial order, with one
    in-place Bayes step per query for all trials of a sub-block.

    Query q asks a uniform point (`points` None), the one (n,) point
    `points`, or row q-1 of the (m, n) `points`.  No query point depends on
    the answers, so trial t's draws are fixed as pops of RandomStack(seed, t)
    would be: draw 0 is the hidden shift, then each query reads n point
    draws if uniform, and its outcome.

    Per group of queries, one h-table and one prefix table (the products
    over coordinates 0..n-2) serve the answers and the Bayes steps; listed
    points build both on one row, which every trial of the sub-block reads.
    Each query's likelihood row is the prefix row times the top coordinate's
    y-signed factors, written by one einsum into one reused buffer: the values
    of candidate_values to the bit, but for the sign of an exact zero, which
    neither 1 + y v nor u < f can see, so every entropy equals a per-trial
    loop's to the bit.
    """
    if points is not None and points.ndim == 1:  # a view: no chunk argument grows with m
        points = np.broadcast_to(points, (m, n))
    size = GRID_BASE**n
    low = size // GRID_BASE  # prefix entries: the shifts of coordinates 0..n-2
    draws = n + 1 if points is None else 1  # per query; the outcome is the last
    bases = stream_bases(seed, np.arange(start, start + count))
    out = np.empty(count)
    step = _block_rows(n)
    for lo in range(0, count, step):
        block = bases[lo : lo + step]
        rows = len(block)
        hidden = first_indices(block, size)
        weights = np.full((rows, size), 1.0 / size)
        buf = np.empty((rows, GRID_BASE, low))  # one query's y * f_a(x), top trit first
        # queries per group: the h-table within BLOCK_BYTES, the prefix table within 3x that
        group = max(1, BLOCK_BYTES // (8 * rows * max(GRID_BASE * n, size // 9)))
        for q0 in range(0, m, group):
            k = min(group, m - q0)
            u = uniform_block(block, 1 + q0 * draws, k * draws).reshape(-1, k, draws)
            x = (u[..., :n] + 1.0) / 2.0 if points is None else points[None, q0 : q0 + k]
            htab = h_eval_array(wrap01_array(x[..., None] - _TRIT_SHIFTS))  # (rows or 1, k, n, 3)
            head = htab[..., :-1, :].reshape(len(htab) * k, n - 1, GRID_BASE)
            prefix = _tensor_product(head).reshape(len(htab), k, low)
            # the hidden shift's value: its prefix entry times its top factor, math.prod's order
            f = (np.take_along_axis(prefix, (hidden % low)[:, None, None], 2)[..., 0]
                 * np.take_along_axis(htab[..., -1, :], (hidden // low)[:, None, None], 2)[..., 0])
            y = np.where(u[..., -1] < f, 1.0, -1.0)
            top = htab[..., -1, :] * y[..., None]  # y = +-1: products times y, to the bit
            for q in range(k):
                np.einsum("rt,rl->rtl", top[:, q], prefix[:, q], out=buf)
                _bayes_step(weights.reshape(rows, GRID_BASE, low), buf)
            del u, x, htab, head, prefix, f, y, top  # freed before the next group's: peak memory
        out[lo : lo + step] = _row_entropies(weights)
    return out.tolist()


def transcript_mi(
    n: int, strategy_spec, m: int, transcripts: int, seed: int, workers: int = 1
) -> tuple[float, float]:
    """Estimate I(C : transcript) = H(C) - E[H(C | transcript)] in bits.

    Queries are "uniform" or ("fixed", point), the same point at every query.
    Monte Carlo over (shift, transcript) pairs; the conditional entropy of
    each sampled transcript is computed exactly, so the estimator of
    E[H(C|T)] is unbiased.
    """
    check_cap("n", check_n(n), MI_N_CAP, "posterior", "every query of every transcript"
              f" is a Bayes step over all 3^{n} = {GRID_BASE**n:.6g} shifts")
    if transcripts < 1:
        raise ValueError("transcripts must be >= 1")
    check_cap("transcripts", transcripts, MI_TRANSCRIPTS_CAP, "entropy-list",
              f"{transcripts} entropies need about {40e-9 * transcripts:.3g} GB")
    if m < 0:
        raise ValueError("m must be >= 0")
    points = _query_points(strategy_spec, n)  # parsed once, before m = 0 returns
    if m == 0:
        return 0.0, 0.0
    sum_h = sum_h2 = 0.0
    for h in run_chunks(mi_transcript_chunk, (n, points, m), transcripts, seed, workers):
        sum_h += h  # one pass, in trial order
        sum_h2 += h * h
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
    counts = np.zeros(3, dtype=np.int64)
    bases = stream_bases(seed, np.arange(start, start + count))
    step = _block_rows(n)
    for lo in range(0, count, step):
        block = bases[lo : lo + step]
        hidden = first_indices(block, GRID_BASE**n)
        vals = candidate_block((uniform_block(block, 1, n) + 1.0) / 2.0)
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
    _check_table(n)
    if not tol > 0:  # NaN too; here, not in a pool worker
        raise ValueError("tol must be positive")
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
    check_cap("m", m, 20, "enumeration", f"2^{m} outcome sequences")
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
