"""Information-theoretic layer: one-shot identification from an exact
evaluation, and exact Bayesian posteriors / mutual information over the
3**n hidden shifts for sample-query transcripts.

Entropies are in bits; posterior entries are indexed trit-lexicographically,
little-endian (coordinate 0 is the least significant trit).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from ._parallel import chunk_ranges, run_chunks
from .circuits import ShiftedProductFunction, h_eval_array
from .game import Strategy, uniform_strategy
from .oracles import RandomStack, eval_query
from .torus import GRID_BASE, GridShift, TorusPoint

LOG2_3 = math.log2(3)

MI_N_CAP = 8  # 3**n posteriors must fit comfortably
IDENTIFY_N_CAP = 13  # 3**n x n trit table + gathers, ~16 n 3**n bytes: 0.33 GB at 13


class InconsistentOracleError(RuntimeError):
    """The oracle value matches no member of the family."""


@lru_cache(maxsize=16)
def _trit_table(n: int) -> np.ndarray:
    """(3**n, n) array of trits, little-endian trit-lexicographic order."""
    idx = np.arange(GRID_BASE**n)
    return np.stack(
        [(idx // GRID_BASE**j) % GRID_BASE for j in range(n)], axis=1
    )


def candidate_values(n: int, x: TorusPoint) -> np.ndarray:
    """f_a(x) for every shift a, in posterior index order."""
    if len(x) != n:
        raise ValueError(f"dimension mismatch: expected {n}, got {len(x)}")
    coords = np.asarray(x.coords)
    # h(x_j - t/3) for each coordinate j and trit t
    htab = h_eval_array(coords[:, None] - np.arange(GRID_BASE)[None, :] / GRID_BASE)
    trits = _trit_table(n)
    return np.prod(htab[np.arange(n)[None, :], trits], axis=1)


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


def posterior_update(prior: Posterior, x: TorusPoint, outcome: int) -> Posterior:
    """Bayes step with likelihood (1 + outcome * f_a(x)) / 2."""
    if outcome not in (-1, 1):
        raise ValueError("outcome must be +1 or -1")
    vals = candidate_values(prior.n, x)
    weights = prior.probs * (1.0 + outcome * vals) / 2.0
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
    if tol <= 0:
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

def fixed_point_strategy(point: TorusPoint) -> Strategy:
    def strat(round_idx: int, stack: RandomStack, outcomes: list[int]) -> TorusPoint:
        return point

    return strat


def _make_mi_strategy(spec, n: int) -> Strategy:
    if callable(spec):
        return spec
    if spec == "uniform":
        return uniform_strategy(n)
    if isinstance(spec, tuple) and spec[0] == "fixed":
        point = TorusPoint(spec[1])
        if len(point) != n:
            raise ValueError("fixed point has wrong dimension")
        return fixed_point_strategy(point)
    raise ValueError(f"unknown strategy spec {spec!r}")


def mi_transcript_chunk(
    n: int, strategy_spec, m: int, start: int, count: int, seed: int
) -> tuple[float, float, int]:
    """(sum of conditional entropies, sum of squares, count) over a chunk."""
    sum_h = 0.0
    sum_h2 = 0.0
    for trial in range(start, start + count):
        stack = RandomStack(seed, trial)
        strat = _make_mi_strategy(strategy_spec, n)
        hidden = stack.pop_index(GRID_BASE**n)
        weights = np.full(GRID_BASE**n, 1.0 / GRID_BASE**n)
        outcomes: list[int] = []
        for q in range(1, m + 1):
            x = strat(q, stack, outcomes)
            vals = candidate_values(n, x)
            r = stack.pop()
            y = 1 if r < vals[hidden] else -1
            weights = weights * (1.0 + y * vals) / 2.0
            outcomes.append(y)
        total = weights.sum()
        p = weights[weights > 0] / total
        h = float(-np.sum(p * np.log2(p)))
        sum_h += h
        sum_h2 += h * h
    return sum_h, sum_h2, count


def transcript_mi(
    n: int,
    strategy_spec,
    m: int,
    transcripts: int,
    seed: int,
    workers: int = 1,
) -> tuple[float, float]:
    """Estimate I(C : transcript) = H(C) - E[H(C | transcript)] in bits.

    Monte Carlo over (shift, transcript) pairs; the conditional entropy of
    each sampled transcript is computed exactly, so the estimator of
    E[H(C|T)] is unbiased.
    """
    if n > MI_N_CAP:
        raise ValueError(f"n={n} exceeds posterior cap {MI_N_CAP}")
    if transcripts < 1:
        raise ValueError("transcripts must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return 0.0, 0.0
    if callable(strategy_spec) and workers > 1:
        raise ValueError("callable strategies cannot cross process boundaries")
    chunks = [
        (n, strategy_spec, m, s, c, seed) for s, c in chunk_ranges(transcripts)
    ]
    sum_h = sum_h2 = 0.0
    total = 0
    for sh, sh2, cnt in run_chunks(mi_transcript_chunk, chunks, workers):
        sum_h += sh
        sum_h2 += sh2
        total += cnt
    mean_h = sum_h / total
    var_h = max(sum_h2 / total - mean_h**2, 0.0)
    mi = n * LOG2_3 - mean_h
    return mi, math.sqrt(var_h / total)


def identify_chunk(
    n: int, tol: float, start: int, count: int, seed: int
) -> tuple[int, int, int]:
    """(unique, unique_and_correct, ambiguous) counts over a chunk of trials."""
    unique = correct = ambiguous = 0
    for trial in range(start, start + count):
        stack = RandomStack(seed, trial)
        hidden = GridShift.from_index(n, stack.pop_index(GRID_BASE**n))
        oracle = ShiftedProductFunction(n, hidden)
        res = omnipotent_identify(n, oracle, stack, tol)
        if res.unique:
            unique += 1
            if res.shift == hidden:
                correct += 1
        else:
            ambiguous += 1
    return unique, correct, ambiguous


def identification_rates(
    n: int, trials: int, tol: float, seed: int, workers: int = 1
) -> tuple[float, float, int]:
    """(unique rate, unique-and-correct rate, ambiguous count) over trials
    with a uniformly hidden shift."""
    if n > IDENTIFY_N_CAP:
        raise ValueError(
            f"n={n} exceeds identify cap {IDENTIFY_N_CAP}: candidate tables need"
            f" about {16 * n * GRID_BASE**n / 1e9:.3g} GB"
        )
    if trials < 1:
        raise ValueError("trials must be >= 1")
    chunks = [(n, tol, s, c, seed) for s, c in chunk_ranges(trials)]
    unique = correct = ambiguous = 0
    for un, co, am in run_chunks(identify_chunk, chunks, workers):
        unique += un
        correct += co
        ambiguous += am
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
    for mask in range(2**m):
        lik = np.ones(size)
        for i in range(m):
            y = 1 if (mask >> i) & 1 else -1
            lik *= (1.0 + y * vals[i]) / 2.0
        p_seq = prior * lik.sum()
        if p_seq <= 0.0:
            continue
        post = lik / lik.sum()
        post = post[post > 0]
        h_cond = float(-np.sum(post * np.log2(post)))
        mi += p_seq * (n * LOG2_3 - h_cond)
    return mi
