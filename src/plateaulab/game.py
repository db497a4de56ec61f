"""The plateau game: Alice hides a grid shift, Bob queries torus points.

Bob wins on the first query outside the hidden plateau region
P_a = { x : far-count between a and x exceeds n/2 }.  The first-round win
probability is the exact binomial tail p_exact(n) = P(Bin(n, 1/3) >= ceil(n/2)),
and the linear bound P(win within m rounds) <= p_exact * m holds for every
strategy, adaptive or not (Alice's answers are always "yes" until the end,
so adaptivity buys nothing).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from ._parallel import run_chunks
from .rng import RandomStack, index_block, stream_bases, uniform_block
from .torus import (
    GRID_BASE,
    GridShift,
    TorusPoint,
    far_count_array,
    hamming_d,
    index_trits,
    wrap01_array,
)

Strategy = Callable[[int, RandomStack, list], TorusPoint]
"""A strategy maps (round index, stack, past answers) to the next query point."""


@dataclass(frozen=True)
class PlateauRegion:
    """P_center = points whose FAR count from the center exceeds n/2."""

    n: int
    center: GridShift

    def __post_init__(self):
        if self.center.n != self.n:
            raise ValueError("center dimension must equal n")

    @property
    def threshold(self) -> float:
        return self.n / 2

    def contains(self, x: TorusPoint) -> bool:
        return hamming_d(self.center, x) > self.threshold

    def contains_array(self, points: np.ndarray) -> np.ndarray:
        return far_count_array(points, self.center.trits) > self.threshold


@dataclass
class GameRecord:
    hidden: GridShift
    queries: list[TorusPoint]
    win_round: Optional[int]  # None = censored at max_rounds


@dataclass(frozen=True)
class BoundsRow:
    n: int
    delta: float  # (2/3)^(n/2): plateau height bound
    p_exact: float  # exact binomial tail, sup over x of P(x not in P_A)
    p_hoeffding: float  # e^(-n/36)
    p_exact_fraction: Fraction


def delta_bound(n: int) -> float:
    return (2.0 / 3.0) ** (n / 2)


def p_exact_fraction(n: int) -> Fraction:
    """P(Bin(n, 1/3) >= ceil(n/2)) as an exact rational.

    A query point misses P_A iff at least ceil(n/2) coordinates are NEAR
    the hidden shift; per coordinate the near-probability is exactly 1/3
    for tie-free x, and the supremum over x is attained there.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k0 = math.ceil(n / 2)
    total = Fraction(0)
    for k in range(k0, n + 1):
        total += Fraction(math.comb(n, k) * 2 ** (n - k), 3**n)
    return total


def bounds(n: int) -> BoundsRow:
    frac = p_exact_fraction(n)
    return BoundsRow(
        n=n,
        delta=delta_bound(n),
        p_exact=float(frac),
        p_hoeffding=math.exp(-n / 36),
        p_exact_fraction=frac,
    )


# --- strategies -------------------------------------------------------------

STRATEGIES = ("uniform", "grid", "adaptive")


def point_draws(name: str, n: int, r: int) -> int:
    """Uniforms round r >= 1 of strategy `name` reads: n every round for
    "uniform", n every n-th round (r = 1, n+1, ...) for "adaptive", else 0."""
    return n if name == "uniform" or (name == "adaptive" and (r - 1) % n == 0) else 0


def round_points(name: str, n: int, r: int, x, u) -> np.ndarray:
    """Query points of round r: one (n,) point for every row ("grid"), or
    (rows, n) points from the round's (rows, point_draws) uniforms u, or
    else the previous round's (rows, n) points x with coordinate (r-1) % n
    moved one grid step, in place ("adaptive", as TorusPoint wraps)."""
    if name == "grid":
        return GridShift.from_index(n, (r - 1) % GRID_BASE**n).to_point().array()
    if u is not None:
        return (u + 1.0) / 2.0
    j = (r - 1) % n
    x[:, j] = wrap01_array(x[:, j] + 1.0 / GRID_BASE)
    return x


def make_strategy(name: str, n: int) -> Strategy:
    """Strategy `name` for one game: its rounds on one row, the reference
    win_round_counts is tested against."""
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}")
    x = None

    def strat(round_idx: int, stack: RandomStack, answers: list) -> TorusPoint:
        nonlocal x
        k = point_draws(name, n, round_idx)
        x = round_points(name, n, round_idx, x, stack.pop_batch(k)[None, :] if k else None)
        return TorusPoint(x.reshape(n))

    return strat


# --- game simulation --------------------------------------------------------

def play_game(
    n: int,
    hidden: GridShift,
    strategy: Strategy,
    max_rounds: int,
    stack: RandomStack,
) -> GameRecord:
    """Run one game; Alice answers membership truthfully; censor at max_rounds."""
    region = PlateauRegion(n, hidden)
    queries: list[TorusPoint] = []
    answers: list[bool] = []
    for r in range(1, max_rounds + 1):
        x = strategy(r, stack, answers)
        if len(x) != n:
            raise ValueError("strategy produced a point of wrong dimension")
        queries.append(x)
        inside = region.contains(x)
        if not inside:
            return GameRecord(hidden, queries, r)
        answers.append(inside)
    return GameRecord(hidden, queries, None)


def win_round_counts(
    n: int, strategy_name: str, m_max: int, start: int, count: int, seed: int
) -> np.ndarray:
    """Win-round histogram (length m_max) for trials [start, start+count).

    Alice answers "yes" until Bob wins, so no strategy's queries depend on
    the answers and all live trials play round r together.  Trial t draws
    what play_game with make_strategy on RandomStack(seed, t) draws: the
    hidden shift from draw 0, then each round's point draws from draw 1 on.
    """
    if strategy_name not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy_name!r}")
    counts = np.zeros(m_max, dtype=np.int64)
    bases = stream_bases(seed, np.arange(start, start + count))
    trits = index_trits(index_block(uniform_block(bases, 0, 1)[:, 0], GRID_BASE**n), n)
    drawn = 1
    x = None
    for r in range(1, m_max + 1):
        if not len(bases):
            break
        k = point_draws(strategy_name, n, r)
        x = round_points(strategy_name, n, r, x, uniform_block(bases, drawn, k) if k else None)
        drawn += k
        won = far_count_array(x, trits) <= n / 2
        counts[r - 1] = np.count_nonzero(won)
        bases, trits = bases[~won], trits[~won]
        if x.ndim == 2:
            x = x[~won]
    return counts


@dataclass(frozen=True)
class CdfRow:
    m: int
    cdf: float
    stderr: float
    bound: float  # rate * m
    exceeded: bool  # cdf > bound + 3 * stderr


def cdf_rows(counts: np.ndarray, trials: int, rate: float) -> list[CdfRow]:
    """CDF rows m = 1..len(counts) of a first-event histogram over trials,
    each against the linear bound rate * m."""
    rows = []
    cum = 0
    for m in range(1, len(counts) + 1):
        cum += int(counts[m - 1])
        cdf = cum / trials
        stderr = math.sqrt(cdf * (1.0 - cdf) / trials)
        bound = rate * m
        rows.append(CdfRow(m, cdf, stderr, bound, cdf > bound + 3 * stderr))
    return rows


def estimate_win_cdf(
    n: int,
    strategy_name: str,
    games: int,
    m_max: int,
    seed: int,
    workers: int = 1,
) -> list[CdfRow]:
    """Empirical CDF of the win round, with the linear first-round bound."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    counts = run_chunks(win_round_counts, (n, strategy_name, m_max), games, seed, workers)
    return cdf_rows(counts, games, float(p_exact_fraction(n)))
