"""Training algorithms under sample-query access, plus the coupled-run
and first-exit experiments.

The harness, not the trainer, checks the "magic" success condition
f(x) >= max f - alpha with the trusted analytic function after every
query; the check costs no queries.  All three trainers are plumbing: the
bounds under test quantify over every training algorithm.

Each trainer is one `points` and one `update` function of a round: the
queries whose points are fixed before any of their answers.  `_lockstep`
runs every trial of a chunk through them together; `run_trainer` runs
them on one row, query by query, as the reference.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._parallel import run_chunks
from .circuits import ShiftedProductFunction, shifted_product_rows
from .game import CdfRow, PlateauRegion, cdf_rows, delta_bound, p_exact_fraction
# coupled_sample: divergence_chunk's per-query reference, traced here by perfbench
from .oracles import RandomStack, Transcript, coupled_sample, sample_query  # noqa: F401
from .rng import BLOCK_BYTES, index_block, stream_bases, uniform_block
from .torus import GRID_BASE, GridShift, TorusPoint, far_count_array, index_trits, wrap01_array

ALGORITHMS = ("random", "spsa", "pshift")

# SPSA gain schedules: a_k = a/(k+A)^0.602, c_k = c/k^0.101
SPSA_A = 0.2
SPSA_C = 0.1
SPSA_STABILITY = 10.0
SPSA_ALPHA_EXP = 0.602
SPSA_GAMMA_EXP = 0.101

PSHIFT_SHIFT = 0.25  # quarter period
PSHIFT_STEP = 0.1


@dataclass
class TrainerResult:
    algo: str
    n: int
    hidden: GridShift
    queries_total: int  # T_A
    first_exit: Optional[int]  # T'_A: first query outside the hidden plateau
    output: Optional[TorusPoint]
    succeeded: bool
    budget: int
    transcript: Optional[Transcript] = None


def _round_shape(algo: str, n: int) -> tuple[int, int]:
    """(point draws, queries) of one round: random search draws a point and
    asks it; SPSA draws a direction and asks x +- c_k Delta; parameter-shift
    draws nothing and asks x +- e_j/4 for every coordinate j."""
    shapes = {"random": (n, 1), "spsa": (n, 2), "pshift": (0, 2 * n)}
    if algo not in shapes:
        raise ValueError(f"unknown algorithm {algo!r}")
    return shapes[algo]


def points(algo: str, x, k: int, u: np.ndarray) -> np.ndarray:
    """(rows, queries, n) query points of round k >= 1 from the (rows, n)
    iterate x (None for random search) and the (rows, draws) point draws u,
    before TorusPoint wraps them."""
    if algo == "random":
        return ((u + 1.0) / 2.0)[:, None, :]
    if algo == "spsa":
        step = SPSA_C / k**SPSA_GAMMA_EXP * np.where(u < 0.0, -1.0, 1.0)
        return np.stack([x + step, x - step], axis=1)
    n = x.shape[-1]  # pshift: rows +e_j/4 and -e_j/4, j = 0..n-1
    return x[:, None, :] + PSHIFT_SHIFT * np.kron(np.eye(n), [[1.0], [-1.0]])


def update(algo: str, x, k: int, u: np.ndarray, y: np.ndarray):
    """The iterate after round k, from the round's point draws u and its
    (rows, queries) +-1 answers y, in query order."""
    if algo == "spsa":
        ck = SPSA_C / k**SPSA_GAMMA_EXP
        ak = SPSA_A / (k + SPSA_STABILITY) ** SPSA_ALPHA_EXP
        ghat = (y[:, :1] - y[:, 1:]) / (2.0 * ck) * np.where(u < 0.0, -1.0, 1.0)
        return np.mod(x + ak * ghat, 1.0)  # ascent: maximizing
    if algo == "pshift":
        grad = (y[:, 0::2] - y[:, 1::2]) / 2.0
        return np.mod(x + PSHIFT_STEP * grad, 1.0)
    return x


def default_alpha(n: int) -> float:
    """alpha = 1 - 2*delta(n); positive only for n >= 4."""
    alpha = 1.0 - 2.0 * delta_bound(n)
    if alpha <= 0.0:
        raise ValueError(f"default alpha is non-positive for n={n}; need n >= 4")
    return alpha


def _check_trainer_args(alpha: float, budget: int) -> None:
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    if budget < 1:
        raise ValueError("budget must be >= 1")


def run_trainer(
    algo: str,
    f: ShiftedProductFunction,
    alpha: float,
    budget: int,
    stack: RandomStack,
    record_transcript: bool = False,
) -> TrainerResult:
    """Run one trainer against the sample oracle of f until the magic
    success condition fires or the budget is spent.

    The per-query reference of the lockstep chunks: the same rounds on one
    row, with TorusPoint, f(x), region.contains and sample_query.  Every
    trainer, random search included, asks one query at a time, and the
    stack is popped exactly as far as the last query.  The successful
    output point is always a queried point.
    """
    _check_trainer_args(alpha, budget)
    n = f.n
    draws, _ = _round_shape(algo, n)
    region = PlateauRegion(n, f.shift)
    target = f.max_value - alpha
    transcript = Transcript() if record_transcript else None
    x = None if algo == "random" else (stack.pop_batch(n)[None, :] + 1.0) / 2.0
    queries = 0
    first_exit: Optional[int] = None
    for k in itertools.count(1):
        u = stack.pop_batch(draws)[None, :]
        answers = []
        for p in points(algo, x, k, u)[0]:
            xq = TorusPoint(p)
            outcome = sample_query(f, xq, stack)
            queries += 1
            if transcript is not None:
                transcript.append(xq, outcome)
            if first_exit is None and not region.contains(xq):
                first_exit = queries
            hit = f(xq) >= target
            if hit or queries >= budget:
                output = xq if hit else None
                return TrainerResult(
                    algo, n, f.shift, queries, first_exit, output, hit, budget, transcript
                )
            answers.append(outcome)
        x = update(algo, x, k, u, np.array([answers]))


def _lockstep(
    algo: str, n: int, m: int, start: int, count: int, seed: int, stop, level: float
) -> tuple[np.ndarray, np.ndarray]:
    """Run trials [start, start+count) of algo together for up to m queries.

    Trial t draws what run_trainer on RandomStack(seed, t) draws: the hidden
    shift from draw 0, the start point (SPSA, parameter-shift), then each
    round's point draws and one answer draw per query.  stop(f, inside, r)
    marks the queries that end a trial from f_a(x), x in P_a and the answer
    draw r, each of shape (rows, queries); finished trials drop out.  f is
    compared only with r (the answers, the divergence rule) and with values
    of magnitude >= level, so it is evaluated only as far as those
    comparisons read it (shifted_product_rows' floor).
    Returns per trial the query that stopped it and its first query outside
    the hidden plateau up to then, 0 for none.
    """
    draws, per_round = _round_shape(algo, n)
    stopped = np.zeros(count, dtype=np.int64)
    first_exit = np.zeros(count, dtype=np.int64)
    block = max(1, BLOCK_BYTES // (8 * per_round * n))  # rows x queries per step
    for s in range(0, count, block):
        rows = np.arange(s, min(s + block, count))
        bases = stream_bases(seed, start + rows)
        trits = index_trits(index_block(uniform_block(bases, 0, 1)[:, 0], GRID_BASE**n), n)
        x = None if algo == "random" else (uniform_block(bases, 1, n) + 1.0) / 2.0
        drawn = 1 if x is None else 1 + n
        k = 1
        done = 0
        while len(rows) and done < m:
            # random search has no iterate, so one step can hold many rounds
            rounds = min(block // len(rows), m - done) if x is None else 1
            width = rounds * per_round
            u = uniform_block(bases, drawn, rounds * (draws + per_round))
            u, r = np.hsplit(u.reshape(len(rows) * rounds, draws + per_round), [draws])
            r = r.reshape(len(rows), width)
            pts = wrap01_array(points(algo, x, k, u).reshape(len(rows), width, n))
            fx = shifted_product_rows(pts, trits[:, None, :], np.minimum(np.abs(r), level))
            inside = far_count_array(pts, trits[:, None, :]) > n / 2
            q = np.arange(done + 1, done + width + 1)  # query numbers
            hit = stop(fx, inside, r) & (q <= m)
            fin = hit.any(axis=1)
            last = np.where(fin, hit.argmax(axis=1), min(width, m - done) - 1)
            out = ~inside & (q <= q[last][:, None])  # asked by the trial
            new = out.any(axis=1) & (first_exit[rows] == 0)
            first_exit[rows[new]] = q[out[new].argmax(axis=1)]
            stopped[rows[fin]] = q[last[fin]]
            if x is not None:
                x = update(algo, x, k, u, np.where(r < fx, 1, -1))[~fin]
            rows, bases, trits = rows[~fin], bases[~fin], trits[~fin]
            drawn += rounds * (draws + per_round)
            done += width
            k += rounds
    return stopped, first_exit


# --- trial sweeps -----------------------------------------------------------

def trainer_trials_chunk(
    algo: str, n: int, alpha: float, budget: int, start: int, count: int, seed: int
) -> list[tuple[int, int, bool, Optional[int]]]:
    """(trial, T_A, succeeded, T'_A) rows for trials [start, start+count)."""
    target = 1.0 - alpha  # ShiftedProductFunction.max_value - alpha
    hit, first_exit = _lockstep(
        algo, n, budget, start, count, seed, lambda fx, inside, r: fx >= target, abs(target)
    )
    rows = zip(range(start, start + count), hit.tolist(), first_exit.tolist())
    return [(t, h or budget, h > 0, e or None) for t, h, e in rows]


def trainer_sweep(
    algo: str,
    n: int,
    alpha: float,
    budget: int,
    trials: int,
    seed: int,
    workers: int = 1,
) -> list[tuple[int, int, bool, Optional[int]]]:
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_trainer_args(alpha, budget)
    return run_chunks(trainer_trials_chunk, (algo, n, alpha, budget), trials, seed, workers)


def divergence_chunk(
    algo: str, n: int, m: int, eta: float, start: int, count: int, seed: int
) -> int:
    """Count trials whose coupled runs diverge within the first m queries.

    Until the first outcome divergence the two runs are the same
    deterministic algorithm on the same stack, so their query points and
    inner states coincide; comparing outcomes is a complete divergence test.
    """
    hit, _ = _lockstep(
        algo, n, m, start, count, seed,
        lambda fx, inside, r: inside & ((r < fx) != (r < eta)), np.inf,
    )
    return int(np.count_nonzero(hit))


def divergence_experiment(
    algo: str,
    n: int,
    m: int,
    trials: int,
    eta: float,
    seed: int,
    workers: int = 1,
) -> tuple[float, float]:
    """Empirical probability that coupled runs diverge within m queries."""
    if n < 4:
        raise ValueError("need n >= 4 so that delta < 1/2")
    if m < 0:
        raise ValueError("m must be >= 0")
    if not -1.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [-1, 1]")
    diverged = run_chunks(divergence_chunk, (algo, n, m, eta), trials, seed, workers)
    phat = diverged / trials
    return phat, math.sqrt(phat * (1.0 - phat) / trials)


def exit_time_chunk(
    algo: str, n: int, m_max: int, start: int, count: int, seed: int
) -> np.ndarray:
    """First-exit-round histogram (length m_max); censored runs drop out."""
    hit, _ = _lockstep(
        algo, n, m_max, start, count, seed, lambda fx, inside, r: ~inside, np.inf
    )
    return np.bincount(hit, minlength=m_max + 1)[1:]


def exit_time_experiment(
    algo: str,
    n: int,
    m_max: int,
    trials: int,
    seed: int,
    workers: int = 1,
) -> list[CdfRow]:
    """Empirical CDF of the first query landing outside the hidden plateau,
    against the combined bound (p_exact + delta/2) * m."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    counts = run_chunks(exit_time_chunk, (algo, n, m_max), trials, seed, workers)
    return cdf_rows(counts, trials, float(p_exact_fraction(n)) + delta_bound(n) / 2.0)
