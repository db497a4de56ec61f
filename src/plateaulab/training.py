"""Training algorithms under sample-query access, plus the coupled-run
and first-exit experiments.

The harness, not the trainer, checks the "magic" success condition
f(x) >= max f - alpha with the trusted analytic function after every
query; the check costs no queries.  All three trainers are plumbing: the
bounds under test quantify over every training algorithm.

Each trainer is one `points` and one `update` function of a round: the
queries whose points are fixed before any of their answers.  `_lockstep`
runs every trial of a chunk through them together; `run_trainer` runs
them on one row, query by query, as the reference.  A lockstep trial stops
at the first query that meets the first rule that applies: with a target,
f >= target (train); else with eta, a query inside the hidden plateau
whose answer draw r splits f from eta (diverge); else a query outside the
plateau (exit-time).  f is read against the answer draw r and |target|
only, random search draws r only with eta, and inside is read at every
query with eta, else only until a trial's first exit.  `_cells` computes f
against that floor: cells that a bound table of |h| puts below it read
0.0, and only the rest, its survivors, get h and their exact f.  The
table, _H_SHIFTED[t, k], bounds |h(wrap01(x - t/3))| for every x in bin k
= int(x * BINS); random search reads k from the top 12 bits of its draw's
64-bit value, so no float x is formed for a cell the screen drops.  Its
train stops (target > 0) are read from the survivors alone, each trial's
first with f >= target, as every such cell survives; every other rule gets
f at every cell.  Its FAR counts read the draws' integers too:
torus.far_bits decides each coordinate with one subtraction and one
comparison on its 64-bit value, exactly as far_coords on its float x.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._parallel import run_chunks
from .circuits import ShiftedProductFunction, h_eval_array
from .game import (
    CdfRow, PlateauRegion, _check_m_max, cdf_rows, check_n, delta_bound, p_exact_fraction,
)
# coupled_sample: divergence_chunk's per-query reference, traced here by perfbench
from .oracles import RandomStack, Transcript, coupled_sample, sample_query  # noqa: F401
from .rng import (
    BLOCK_BYTES, _values_at, advance, first_indices, stream_bases, uniform_block, uniforms_at,
    unit_uniforms_at,
)
from .torus import (
    GRID_BASE, NEAR_CUTS, GridShift, TorusPoint, check_cap, far_bits, far_count_array,
    index_trits, wrap01_array,
)

ALGORITHMS = ("random", "spsa", "pshift")

# SPSA gain schedules: a_k = a/(k+A)^0.602, c_k = c/k^0.101
SPSA_A = 0.2
SPSA_C = 0.1
SPSA_STABILITY = 10.0
SPSA_ALPHA_EXP = 0.602
SPSA_GAMMA_EXP = 0.101

PSHIFT_SHIFT = 0.25  # quarter period
PSHIFT_STEP = 0.1
TRAIN_TRIALS_CAP = 10**6  # train's merged per-trial rows: about 350 bytes each (measured)


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
        out = np.empty((len(x), 2, x.shape[-1]))  # np.stack's rows, in fewer calls
        np.add(x, step, out=out[:, 0])
        np.subtract(x, step, out=out[:, 1])
        return out
    return x[:, None, :] + _pshift_offsets(x.shape[-1])


@functools.cache
def _pshift_offsets(n: int) -> np.ndarray:
    """(2n, n) parameter-shift offsets, rows +e_j/4 and -e_j/4 for j < n (read-only)."""
    offsets = PSHIFT_SHIFT * np.kron(np.eye(n), [[1.0], [-1.0]])
    offsets.flags.writeable = False
    return offsets


def update(algo: str, x, k: int, u: np.ndarray, y: np.ndarray):
    """The iterate after round k, from the round's point draws u and its
    (rows, queries) +-1 answers y, in query order."""
    if algo == "spsa":
        ck = SPSA_C / k**SPSA_GAMMA_EXP
        ak = SPSA_A / (k + SPSA_STABILITY) ** SPSA_ALPHA_EXP
        ghat = (y[:, :1] - y[:, 1:]) / (2.0 * ck) * np.where(u < 0.0, -1.0, 1.0)
        x = x + ak * ghat  # ascent: maximizing
    elif algo == "pshift":
        x = x + PSHIFT_STEP * ((y[:, 0::2] - y[:, 1::2]) / 2.0)
    return x if x is None else x - np.floor(x)  # np.mod(x, 1.0) to the bit, and faster


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


TAIL = 128  # undecided cells from which _cells multiplies out f as one block (measured)
BINS = 4096  # a power of 2, and even, so h's turning point 1/2 is a bin edge
_BIN_SHIFT = np.uint64(65 - BINS.bit_length())  # 64 - log2(BINS): value >> it is the x's bin
_H_ENDS = np.abs(h_eval_array(np.arange(BINS + 1) / BINS))
# |fl(h(d))| <= H_BOUND[int(d * BINS)] for every float d in [0, 1): h turns only at the bin
# ends 0 and 1/2, so |h| peaks at a bin end; int(d * BINS) is exact; 1e-14 covers h's float error
H_BOUND = np.maximum(_H_ENDS[:-1], _H_ENDS[1:]) + 1e-14
H_BOUND.flags.writeable = False


def _by_x_bin(bound: np.ndarray) -> np.ndarray:
    """(3, BINS) read-only: entry [t, k] is the largest bound[int(d * BINS)]
    over d = fl(wrap01(x - t/3)) for every float x in bin k.  Rounding is
    monotone, so d rises with x but for one drop to near 0 at the wrap (the
    clamp of a d that rounds to 1.0 only moves that drop), and the d-bins of
    bin k run cyclically upward from its first x's to its last x's.  t/3 *
    BINS is no integer, so that run spans at most two bins, the two ends'."""
    k = np.arange(BINS)
    x = np.array([k / BINS, np.nextafter((k + 1) / BINS, 0.0)])  # each bin's first and last x
    d = wrap01_array(x - np.arange(GRID_BASE)[:, None, None] / 3.0)  # (trit, end, bin)
    table = bound.take((d * BINS).astype(np.intp)).max(axis=1)
    table.flags.writeable = False
    return table


_H_SHIFTED = _by_x_bin(H_BOUND)  # _H_SHIFTED[t, k] >= H_BOUND[int(d * BINS)] for x in bin k


def _x_bins(key, j):
    """int(x_j * BINS) of random search's cells with keys key: their draws' top bits, as intp."""
    v = _values_at(key, j)
    return np.right_shift(v, _BIN_SHIFT, out=v).view(np.intp)  # in place


def _far_counts(n, key, trits):
    """far_count_array of random search's (rows, width) cells with keys key and
    shifts trits (rows, n), from the draws' 64-bit values, one coordinate at a
    time: no (cells, n) block of draws and no float x_j."""
    return sum(far_bits(_values_at(key, j), NEAR_CUTS, trits[:, j, None]) for j in range(n))


def _cells(n, key, coord, trits, floor, bins):
    """f of a step's (rows, width) cells against a floor, a scalar or one per
    cell: cell (row, q) has key key[row, q] and shift trits[row], coord(k, j)
    gives x_j, in [0, 1), of the cells whose keys are k (k and j broadcast),
    and bins(k, j) gives int(x_j * BINS) exactly.  Returns the cells left by
    the bound pass, as ascending flat indices into key, and their f where
    |f| >= floor, 0.0 otherwise; every other cell has |f| < floor and reads
    0.0.  0.0 answers p >= t and t < p as f does for every |t| >= floor.

    A bound pass decides most cells without h.  Coordinate by coordinate, an
    undecided cell's running bound U is multiplied by _H_SHIFTED[t_j, int(x_j
    * BINS)], at least H_BOUND[int(d_j * BINS)] >= |fl(h(d_j))| for every d_j
    = wrap01(x_j - a_j) of x_j's bin, and the cells with U < floor are
    dropped, so no wrap01 or d is formed for a dropped cell.  Rounding is
    monotone, so U >= |fl(f)|, and a cell with U < floor has |f| < floor.
    Once at most TAIL cells are undecided, or after coordinate n, the rest
    get the plain product of their n coordinates in coordinate order, so
    their f is exact: as one block if at most TAIL (a step of at most TAIL
    cells skips the bound pass), else one coordinate at a time, so no
    (cells, n) block is held."""
    rows, width = key.shape
    shift = trits / 3.0  # the a_j that points subtract, per row
    offset = (trits * BINS).T.copy()  # offset[j, row]: a_j's row in the flat _H_SHIFTED
    cell, keys = np.arange(key.size), key.reshape(-1)  # undecided cells: flat index, key
    floor, per_cell = np.reshape(floor, -1), np.ndim(floor) > 0  # (1,) for one floor
    bound = 1.0
    for j in range(n):
        if len(cell) <= TAIL:
            break
        # coordinate 0 of every cell reads its row's offset by broadcast, not by a gather
        i = bins(key, 0) + offset[0, :, None] if j == 0 else (
            bins(keys, j) + offset[j].take(cell // width))
        bound = bound * _H_SHIFTED.take(i.reshape(-1))
        keep = (bound >= floor).nonzero()[0]  # faster than a mask for 2+ arrays
        cell, keys, bound = cell[keep], keys[keep], bound[keep]
        floor = floor[keep] if per_cell else floor
    row = cell // width
    if len(cell) <= TAIL:
        hs = h_eval_array(wrap01_array(coord(keys[:, None], np.arange(n)) - shift[row])).T
    else:
        hs = (h_eval_array(wrap01_array(coord(keys, j) - shift[row, j])) for j in range(n))
    p = functools.reduce(np.multiply, hs)
    return cell, np.where(np.abs(p) >= floor, p, 0.0)


def _lockstep(
    algo: str, n: int, m: int, start: int, count: int, seed: int,
    target: Optional[float] = None, eta: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run trials [start, start+count) of algo together for up to m queries.

    Trial t draws what run_trainer on RandomStack(seed, t) draws: the hidden
    shift from draw 0, the start point (SPSA, parameter-shift), then each
    round's point draws and one answer draw r per query.  A trial stops at
    the first query that meets the first rule that applies, and drops out:
    - with target (train): f >= target;
    - else with eta (diverge): inside the hidden plateau and (r < f) != (r < eta);
    - else (exit-time): outside the hidden plateau.
    f is read only against r and |target|, the floor _cells gets.  SPSA and
    parameter-shift read f and r in their update, so each of their steps is
    one round; random search draws r only with eta, and reads no f with
    neither.  Its train stops at target > 0 are read from _cells' survivors,
    which hold every cell with f >= target; every other rule reads f at every
    cell.  inside is read at every query with eta, else only until a trial's
    first exit, and not at all once every trial has one.
    Returns per trial the query that stopped it and its first query outside
    the hidden plateau up to then, 0 for none.
    """
    draws, per_round = _round_shape(algo, n)
    level = np.inf if target is None else abs(target)
    stopped = np.zeros(count, dtype=np.int64)
    first_exit = np.zeros(count, dtype=np.int64)
    # rows per sub-block, and random search's (trial, query) cells per step: a
    # cell keeps about ten float64 values live at a step's peak, so BLOCK_BYTES
    # // 16 cells peak no higher than whole-point steps do.  A step's few hundred
    # numpy calls cost the same at any size, so larger steps pay them fewer times,
    # but only while each step reuses the heap the last one freed (cli.main)
    block = max(1, BLOCK_BYTES // (16 if algo == "random" else 8 * per_round * n))
    for s in range(0, count, block):
        rows = np.arange(s, min(s + block, count))
        bases = stream_bases(seed, start + rows)
        trits = index_trits(first_indices(bases, GRID_BASE**n), n)
        x = None if algo == "random" else (uniform_block(bases, 1, n) + 1.0) / 2.0
        k = 1
        done = 0
        while len(rows) and done < m:
            if x is None:  # as many queries as the step holds, at most done + 1 of
                # them, so a trial stopped at query q costs at most 2q cells
                width = min(block // len(rows), m - done, done + 1)
                # draw j of cell (row, q) is uniforms_at(key[row, q], j)
                key = advance(bases[:, None], 1 + (n + 1) * np.arange(done, done + width))
                r = None if eta is None else uniforms_at(key, n)
                coord, bins = unit_uniforms_at, _x_bins
            else:
                width = per_round
                u = uniform_block(bases, 1 + n + (k - 1) * (draws + per_round), draws + per_round)
                u, r = u[:, :draws], u[:, draws:]
                pts = wrap01_array(points(algo, x, k, u))
                cells, key = pts.reshape(-1, n), np.arange(pts.size // n).reshape(-1, width)
                coord, bins = (lambda c, j: cells[c, j],  # key: the cell's row in cells
                               lambda c, j: (cells[c, j] * BINS).astype(np.intp))  # x in [0, 1)
            # random search's train stop reads f only where f >= target > 0, all
            # among _cells' survivors; every other rule reads f at every cell
            sparse = x is None and target is not None and target > 0
            if r is not None or target is not None:
                floor = level if r is None else np.minimum(abs(r), level)
                cell, f = _cells(n, key, coord, trits, floor, bins)
                if not sparse:
                    fx = np.zeros(key.shape)
                    fx.put(cell, f)
            open_ = first_exit[rows] == 0  # rows before their first exit
            need = (open_ | (eta is not None)).nonzero()[0]  # rows that read inside
            if len(need):
                inside = np.zeros((len(rows), width), dtype=bool)
                need = slice(None) if len(need) == len(rows) else need  # a view
                if x is None:
                    far = _far_counts(n, key[need], trits[need])
                else:  # FAR summed over the whole block: faster than per coordinate
                    far = far_count_array(pts[need], trits[need][:, None, :])
                inside[need] = far > n / 2
            q = np.arange(done + 1, done + width + 1)  # query numbers
            if sparse:  # each row's first hit: the least of its hit columns and width - 1
                hit = cell[f >= target]  # random search: width <= m - done
                fin = np.zeros(len(rows), dtype=bool)
                fin[hit // width] = True
                last = np.full(len(rows), width - 1)
                np.minimum.at(last, hit // width, hit % width)
            else:
                hit = (fx >= target if target is not None else ~inside if eta is None
                       else inside & ((r < fx) != (r < eta))) & (q <= m)
                fin = hit.any(axis=1)
                last = np.where(fin, hit.argmax(axis=1), min(width, m - done) - 1)
            if open_.any():
                out = ~inside & (q <= q[last][:, None])  # asked by the trial
                new = out.any(axis=1) & open_
                first_exit[rows[new]] = q[out[new].argmax(axis=1)]
            stopped[rows[fin]] = q[last[fin]]
            if x is not None:
                x = update(algo, x, k, u, np.where(r < fx, 1, -1))[~fin]
            rows, bases, trits = rows[~fin], bases[~fin], trits[~fin]
            done += width
            k += 1
    return stopped, first_exit


# --- trial sweeps -----------------------------------------------------------

def trainer_trials_chunk(
    algo: str, n: int, alpha: float, budget: int, start: int, count: int, seed: int
) -> list[tuple[int, int, bool, Optional[int]]]:
    """(trial, T_A, succeeded, T'_A) rows for trials [start, start+count)."""
    # the target is ShiftedProductFunction.max_value - alpha
    hit, first_exit = _lockstep(algo, n, budget, start, count, seed, target=1.0 - alpha)
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
    check_n(n)
    _check_trainer_args(alpha, budget)
    check_cap("trials", trials, TRAIN_TRIALS_CAP, "trial-row",
              f"{trials} trial rows need about {350e-9 * trials:.3g} GB")
    return run_chunks(trainer_trials_chunk, (algo, n, alpha, budget), trials, seed, workers)


def divergence_chunk(
    algo: str, n: int, m: int, eta: float, start: int, count: int, seed: int
) -> int:
    """Count trials whose coupled runs diverge within the first m queries.

    Until the first outcome divergence the two runs are the same
    deterministic algorithm on the same stack, so their query points and
    inner states coincide; comparing outcomes is a complete divergence test.
    """
    return int(np.count_nonzero(_lockstep(algo, n, m, start, count, seed, eta=eta)[0]))


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
    check_n(n)
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
    return np.bincount(_lockstep(algo, n, m_max, start, count, seed)[0], minlength=m_max + 1)[1:]


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
    rate = float(p_exact_fraction(check_n(n))) + delta_bound(n) / 2.0
    _check_m_max(m_max)
    counts = run_chunks(exit_time_chunk, (algo, n, m_max), trials, seed, workers)
    return cdf_rows(counts, trials, rate)
