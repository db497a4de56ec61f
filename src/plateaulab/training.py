"""Training algorithms under sample-query access, plus the coupled-run
and first-exit experiments.

The harness, not the trainer, checks the "magic" success condition
f(x) >= max f - alpha with the trusted analytic function after every
query; the check costs no queries.  All three trainers are plumbing: the
bounds under test quantify over every training algorithm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from ._parallel import chunk_ranges, run_chunks
from .circuits import ShiftedProductFunction
from .game import CdfRow, PlateauRegion, cdf_rows, delta_bound, p_exact_fraction
from .oracles import RandomStack, Transcript, clamp_to_plateau, coupled_sample, sample_query
from .torus import GRID_BASE, GridShift, TorusPoint

ALGORITHMS = ("random", "spsa", "pshift")

# SPSA gain schedules: a_k = a/(k+A)^0.602, c_k = c/k^0.101
SPSA_A = 0.2
SPSA_C = 0.1
SPSA_STABILITY = 10.0
SPSA_ALPHA_EXP = 0.602
SPSA_GAMMA_EXP = 0.101

PSHIFT_SHIFT = 0.25  # quarter period
PSHIFT_STEP = 0.1

_FAST_CHUNK = 4096


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


QueryEngine = Generator[TorusPoint, int, None]


def _random_engine(n: int, stack: RandomStack) -> QueryEngine:
    while True:
        u = stack.pop_batch(n)
        yield TorusPoint((u + 1.0) / 2.0)


def _spsa_engine(n: int, stack: RandomStack) -> QueryEngine:
    u = stack.pop_batch(n)
    x = (u + 1.0) / 2.0
    k = 1
    while True:
        ck = SPSA_C / k**SPSA_GAMMA_EXP
        ak = SPSA_A / (k + SPSA_STABILITY) ** SPSA_ALPHA_EXP
        delta = np.where(stack.pop_batch(n) < 0.0, -1.0, 1.0)
        y_plus = yield TorusPoint(x + ck * delta)
        y_minus = yield TorusPoint(x - ck * delta)
        ghat = (y_plus - y_minus) / (2.0 * ck) * delta
        x = np.mod(x + ak * ghat, 1.0)  # ascent: maximizing
        k += 1


def _pshift_engine(n: int, stack: RandomStack) -> QueryEngine:
    u = stack.pop_batch(n)
    x = (u + 1.0) / 2.0
    while True:
        grad = np.zeros(n)
        for j in range(n):
            e = np.zeros(n)
            e[j] = PSHIFT_SHIFT
            y_plus = yield TorusPoint(x + e)
            y_minus = yield TorusPoint(x - e)
            grad[j] = (y_plus - y_minus) / 2.0
        x = np.mod(x + PSHIFT_STEP * grad, 1.0)


def make_engine(algo: str, n: int, stack: RandomStack) -> QueryEngine:
    if algo == "random":
        return _random_engine(n, stack)
    if algo == "spsa":
        return _spsa_engine(n, stack)
    if algo == "pshift":
        return _pshift_engine(n, stack)
    raise ValueError(f"unknown algorithm {algo!r}")


def default_alpha(n: int) -> float:
    """alpha = 1 - 2*delta(n); positive only for n >= 4."""
    alpha = 1.0 - 2.0 * delta_bound(n)
    if alpha <= 0.0:
        raise ValueError(f"default alpha is non-positive for n={n}; need n >= 4")
    return alpha


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

    The successful output point is always a queried point.  The batched
    random-search path may pop stack draws past the terminating query;
    the result itself is identical to the query-by-query path.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    n = f.n
    region = PlateauRegion(n, f.shift)
    target = f.max_value - alpha

    if algo == "random" and not record_transcript:
        return _run_random_batched(f, region, target, budget, stack)

    engine = make_engine(algo, n, stack)
    transcript = Transcript() if record_transcript else None
    x = next(engine)
    queries = 0
    first_exit: Optional[int] = None
    while True:
        outcome = sample_query(f, x, stack)
        queries += 1
        if transcript is not None:
            transcript.append(x, outcome)
        if first_exit is None and not region.contains(x):
            first_exit = queries
        if f(x) >= target:
            return TrainerResult(
                algo, n, f.shift, queries, first_exit, x, True, budget, transcript
            )
        if queries >= budget:
            return TrainerResult(
                algo, n, f.shift, queries, first_exit, None, False, budget, transcript
            )
        x = engine.send(outcome)


def _run_random_batched(
    f: ShiftedProductFunction,
    region: PlateauRegion,
    target: float,
    budget: int,
    stack: RandomStack,
) -> TrainerResult:
    n = f.n
    done = 0
    first_exit: Optional[int] = None
    while done < budget:
        chunk = min(_FAST_CHUNK, budget - done)
        u = stack.pop_batch(chunk * (n + 1)).reshape(chunk, n + 1)
        pts = (u[:, :n] + 1.0) / 2.0
        fvals = f.eval_array(pts)
        inside = region.contains_array(pts)
        hits = np.flatnonzero(fvals >= target)
        exits = np.flatnonzero(~inside)
        hit = int(hits[0]) if hits.size else None
        if first_exit is None and exits.size and (hit is None or exits[0] <= hit):
            first_exit = done + int(exits[0]) + 1
        if hit is not None:
            return TrainerResult(
                "random",
                n,
                f.shift,
                done + hit + 1,
                first_exit,
                TorusPoint(pts[hit]),
                True,
                budget,
            )
        done += chunk
    return TrainerResult("random", n, f.shift, budget, first_exit, None, False, budget)


# --- trial sweeps -----------------------------------------------------------

def trainer_trials_chunk(
    algo: str, n: int, alpha: float, budget: int, start: int, count: int, seed: int
) -> list[tuple[int, int, bool, Optional[int]]]:
    """(trial, T_A, succeeded, T'_A) rows for trials [start, start+count)."""
    rows = []
    for trial in range(start, start + count):
        stack = RandomStack(seed, trial)
        hidden = GridShift.from_index(n, stack.pop_index(GRID_BASE**n))
        f = ShiftedProductFunction(n, hidden)
        res = run_trainer(algo, f, alpha, budget, stack)
        rows.append((trial, res.queries_total, res.succeeded, res.first_exit))
    return rows


def trainer_sweep(
    algo: str,
    n: int,
    alpha: float,
    budget: int,
    trials: int,
    seed: int,
    workers: int = 1,
) -> list[tuple[int, int, bool, Optional[int]]]:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    chunks = [
        (algo, n, alpha, budget, s, c, seed) for s, c in chunk_ranges(trials)
    ]
    out: list = []
    for part in run_chunks(trainer_trials_chunk, chunks, workers):
        out.extend(part)
    return out


def divergence_chunk(
    algo: str, n: int, m: int, eta: float, start: int, count: int, seed: int
) -> int:
    """Count trials whose coupled runs diverge within the first m queries.

    Until the first outcome divergence the two runs are the same
    deterministic algorithm on the same stack, so their query points and
    inner states coincide; comparing outcomes is a complete divergence test.
    """
    diverged = 0
    for trial in range(start, start + count):
        stack = RandomStack(seed, trial)
        hidden = GridShift.from_index(n, stack.pop_index(GRID_BASE**n))
        f = ShiftedProductFunction(n, hidden)
        fbar = clamp_to_plateau(f, PlateauRegion(n, hidden), eta)
        engine = make_engine(algo, n, stack)
        x = next(engine)
        for _ in range(m):
            out_f, _out_fbar, div = coupled_sample(f, fbar, x, stack)
            if div:
                diverged += 1
                break
            x = engine.send(out_f)
    return diverged


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
    if m < 0 or trials < 1:
        raise ValueError("m must be >= 0 and trials >= 1")
    if m == 0:
        return 0.0, 0.0
    chunks = [(algo, n, m, eta, s, c, seed) for s, c in chunk_ranges(trials)]
    diverged = sum(run_chunks(divergence_chunk, chunks, workers))
    phat = diverged / trials
    return phat, math.sqrt(phat * (1.0 - phat) / trials)


def exit_time_chunk(
    algo: str, n: int, m_max: int, start: int, count: int, seed: int
) -> np.ndarray:
    """First-exit-round histogram (length m_max); censored runs drop out."""
    counts = np.zeros(m_max, dtype=np.int64)
    for trial in range(start, start + count):
        stack = RandomStack(seed, trial)
        hidden = GridShift.from_index(n, stack.pop_index(GRID_BASE**n))
        f = ShiftedProductFunction(n, hidden)
        region = PlateauRegion(n, hidden)
        engine = make_engine(algo, n, stack)
        x = next(engine)
        for q in range(1, m_max + 1):
            outcome = sample_query(f, x, stack)
            if not region.contains(x):
                counts[q - 1] += 1
                break
            if q < m_max:
                x = engine.send(outcome)
    return counts


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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    chunks = [(algo, n, m_max, s, c, seed) for s, c in chunk_ranges(trials)]
    counts = sum(run_chunks(exit_time_chunk, chunks, workers))
    return cdf_rows(counts, trials, float(p_exact_fraction(n)) + delta_bound(n) / 2.0)
