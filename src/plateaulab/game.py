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
from typing import Optional

import numpy as np

from ._parallel import run_chunks
from .rng import BLOCK_BYTES, RandomStack, first_indices, stream_bases, uniform_block
from .torus import (
    GRID_BASE,
    GridShift,
    TorusPoint,
    check_n,
    far_coords,
    far_count_array,
    hamming_d,
    index_trits,
    wrap01_array,
)


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


# "grid" sweeps the shifts in index order, "uniform" draws each point, and
# "adaptive" draws a point every n rounds and in between moves coordinate
# (r-1) % n one grid step
STRATEGIES = ("uniform", "grid", "adaptive")


# --- game simulation --------------------------------------------------------

def play_game(
    n: int,
    hidden: GridShift,
    strategy,
    max_rounds: int,
    stack: RandomStack,
) -> GameRecord:
    """Run one game; Alice answers membership truthfully; censor at max_rounds.
    strategy(round, stack, past answers) gives each round's query point."""
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

    Alice answers "yes" until Bob wins, so no query depends on an answer,
    and each step plays w <= done + cycle rounds (a win at round q costs about
    2q) of every live trial.  Trial t draws what play_game with that strategy,
    one round per call, draws on RandomStack(seed, t): its hidden shift, then
    its points from draw 1.
    """
    if strategy_name not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy_name!r}")
    counts = np.zeros(m_max, dtype=np.int64)
    bases = stream_bases(seed, np.arange(start, start + count))
    hidden = first_indices(bases, GRID_BASE**n)
    trits = index_trits(hidden, n).astype(np.float64)[:, None, :]  # cast once per chunk
    cycle = n if strategy_name == "adaptive" else 1
    done = 0
    while len(bases) and done < m_max:
        per_cycle = max(1, BLOCK_BYTES // (8 * n * cycle * len(bases)))
        w = min(m_max - done, done + cycle, cycle * per_cycle)
        won = _block_far_counts(strategy_name, n, bases, trits, done, w) <= n / 2
        hit = won.any(axis=1)
        counts[done : done + w] += np.bincount(won[hit].argmax(axis=1), minlength=w)
        bases, trits = bases[~hit], trits[~hit]
        done += w
    return counts


def _block_far_counts(name, n, bases, trits, done, w) -> np.ndarray:
    """(rows, w) far counts of rounds done+1..done+w; trits is (rows, 1, n)."""
    if name == "grid":  # the sweep points, the same for every row
        return far_count_array(index_trits(np.arange(done, done + w), n) / GRID_BASE, trits)
    if name == "uniform":
        u = uniform_block(bases, 1 + done * n, w * n).reshape(len(bases), w, n)
        return far_count_array(np.divide(u + 1.0, 2.0, out=u), trits)  # into u: one temporary
    # adaptive, done a multiple of n: round k of a cycle moves x's coordinates 1..k-1
    x = (uniform_block(bases, 1 + done, -(-w // n) * n).reshape(len(bases), -1, n) + 1.0) / 2.0
    far = far_coords(x, trits)
    step = far_coords(wrap01_array(x + 1.0 / GRID_BASE), trits).astype(np.int64) - far
    step[..., 0] = np.einsum("...j->...", far, dtype=np.int64)
    return np.cumsum(step, axis=-1).reshape(len(bases), -1)[:, :w]


@dataclass(frozen=True)
class CdfRow:
    m: int
    cdf: float
    stderr: float
    bound: float  # rate * m
    exceeded: bool  # cdf > bound + 3 * stderr


_M_MAX_CAP = 10**6  # CDF rows: about 550 bytes each, histogram to written report (measured)


def _check_m_max(m_max: int) -> None:
    """Refuse an m_max below 0 or above _M_MAX_CAP before its histogram is built."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if m_max > _M_MAX_CAP:
        raise ValueError(f"m_max={m_max} exceeds CDF-table cap {_M_MAX_CAP}: {m_max} CDF"
                         f" rows need about {550e-9 * m_max:.3g} GB")


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
    rate = float(p_exact_fraction(check_n(n)))
    _check_m_max(m_max)
    counts = run_chunks(win_round_counts, (n, strategy_name, m_max), games, seed, workers)
    return cdf_rows(counts, games, rate)
