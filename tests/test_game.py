import itertools
import math
from fractions import Fraction
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plateaulab import game
from plateaulab.circuits import ShiftedProductFunction
from plateaulab.game import (
    STRATEGIES,
    PlateauRegion,
    bounds,
    estimate_win_cdf,
    p_exact_fraction,
    play_game,
    win_round_counts,
)
from plateaulab.oracles import RandomStack
from plateaulab.torus import GRID_BASE, NEAR_CUTS, GridShift, TorusPoint, hamming_d, wrap01
from plateaulab.training import exit_time_experiment

from edge_streams import cut_edges, edge_bases

Strategy = Callable[[int, RandomStack, list], TorusPoint]
"""A strategy maps (round index, stack, past answers) to the next query point."""


def make_strategy(name: str, n: int) -> Strategy:
    """Strategy `name` for one game, one scalar round per call: the per-trial
    reference win_round_counts is tested against.  "grid" sweeps the shifts in
    index order, "uniform" draws each point, and "adaptive" draws a point every
    n rounds and in between moves coordinate (r-1) % n one grid step."""
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}")
    x: list[float] = []

    def strat(round_idx: int, stack: RandomStack, answers: list) -> TorusPoint:
        if name == "grid":
            return GridShift.from_index(n, (round_idx - 1) % GRID_BASE**n).to_point()
        j = (round_idx - 1) % n
        if name == "uniform" or j == 0:
            x[:] = ((stack.pop_batch(n) + 1.0) / 2.0).tolist()
        else:
            x[j] = wrap01(x[j] + 1.0 / GRID_BASE)
        return TorusPoint(x)

    return strat


def test_in_plateau_examples():
    region = PlateauRegion(2, GridShift((0, 0)))
    assert region.contains(TorusPoint([0.5, 0.5]))
    assert not region.contains(TorusPoint([0.5, 0.05]))
    assert not region.contains(TorusPoint([0.0, 0.0]))  # center never a member
    with pytest.raises(ValueError, match="center dimension must equal n"):
        PlateauRegion(2, GridShift((0,)))


def test_in_plateau_shift_covariance():
    rng = np.random.default_rng(4)
    a = GridShift((2, 1, 0, 2, 1))
    pa = PlateauRegion(5, a)
    p0 = PlateauRegion(5, GridShift.zero(5))
    for _ in range(300):
        x = TorusPoint(rng.random(5))
        assert pa.contains(x) == p0.contains(x - a)


def test_bounds_exact_values():
    assert p_exact_fraction(1) == Fraction(1, 3)
    assert p_exact_fraction(4) == Fraction(11, 27)
    b4 = bounds(4)
    assert b4.delta == pytest.approx(4 / 9)
    assert bounds(36).p_hoeffding == pytest.approx(math.exp(-1))
    with pytest.raises(ValueError):
        bounds(0)


def test_bounds_row_orderings():
    for n in range(1, 65):
        b = bounds(n)
        assert 0 < b.p_exact <= b.p_hoeffding
        assert 0 < b.delta < 1
        # tighter one-sided exponent also dominates the exact tail
        assert b.p_exact <= math.exp(-n / 18)


def test_plateau_height_bound():
    # 10^5 uniform points conditioned on membership in P_0 at n=10 all have
    # |f_0| < (2/3)^5
    n = 10
    f = ShiftedProductFunction(n, GridShift.zero(n))
    region = PlateauRegion(n, GridShift.zero(n))
    stack = RandomStack(17)
    kept = 0
    while kept < 100_000:
        pts = ((stack.pop_batch(20_000 * n) + 1.0) / 2.0).reshape(-1, n)
        members = pts[region.contains_array(pts)]
        assert np.all(np.abs(f.eval_array(members)) < (2 / 3) ** 5)
        kept += len(members)


def test_play_game_immediate_win_on_hidden_point():
    hidden = GridShift((1, 2, 0, 1))

    def strat(r, stack, answers):
        return hidden.to_point()

    rec = play_game(4, hidden, strat, 10, RandomStack(0))
    assert rec.win_round == 1


def test_play_game_antipodal_point_stays_inside():
    hidden = GridShift.zero(4)
    antipodal = TorusPoint([0.5] * 4)  # every coordinate FAR

    def strat(r, stack, answers):
        return antipodal

    rec = play_game(4, hidden, strat, 5, RandomStack(0))
    assert rec.win_round is None  # censored: never leaves the plateau
    assert len(rec.queries) == 5


def test_first_round_win_rate_matches_exact_binomial():
    n, games = 4, 20_000
    counts = win_round_counts(n, "uniform", 1, 0, games, seed=31)
    rate = counts[0] / games
    p = float(p_exact_fraction(n))
    assert abs(rate - p) <= 3 * math.sqrt(p * (1 - p) / games)


@pytest.mark.parametrize("strategy", ["uniform", "grid", "adaptive"])
def test_win_cdf_respects_linear_bound(strategy):
    rows = estimate_win_cdf(6, strategy, 20_000, 30, seed=5)
    assert len(rows) == 30
    assert not any(r.exceeded for r in rows)


def test_estimate_win_cdf_empty_table():
    assert estimate_win_cdf(4, "uniform", 10, 0, seed=0) == []


def test_estimate_win_cdf_refuses_negative_m_max():
    with pytest.raises(ValueError, match="m_max must be >= 0"):
        estimate_win_cdf(4, "uniform", 10, -1, seed=0)


def _per_trial_win_round_counts(n, strategy_name, m_max, start, count, seed):
    """Reference: one RandomStack, hidden-shift draw and play_game per trial."""
    counts = np.zeros(m_max, dtype=np.int64)
    for trial in range(start, start + count):
        stack = RandomStack(seed, trial)
        hidden = GridShift.from_index(n, stack.pop_index(3**n))
        rec = play_game(n, hidden, make_strategy(strategy_name, n), m_max, stack)
        if rec.win_round is not None:
            counts[rec.win_round - 1] += 1
    return counts


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 10),
    strategy=st.sampled_from(["uniform", "grid", "adaptive"]),
    seed=st.integers(-(2**65), 2**65),
    start=st.integers(0, 10**6),
    count=st.integers(0, 60),
    m_max=st.integers(0, 60),
)
@example(n=1, strategy="adaptive", seed=5, start=0, count=60, m_max=60)  # a draw every round
@example(n=2, strategy="grid", seed=5, start=0, count=60, m_max=60)  # m_max > 3^n
def test_win_round_counts_equals_per_trial_games(n, strategy, seed, start, count, m_max):
    got = win_round_counts(n, strategy, m_max, start, count, seed)
    want = _per_trial_win_round_counts(n, strategy, m_max, start, count, seed)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_win_round_counts_hidden_index_beyond_float_precision():
    # 3**40 > 2**53: the hidden index no longer fits a float exactly
    for strategy in ("uniform", "grid", "adaptive"):
        got = win_round_counts(40, strategy, 20, 5, 40, seed=8)
        assert np.array_equal(got, _per_trial_win_round_counts(40, strategy, 20, 5, 40, 8))


@pytest.mark.parametrize("n, m_max", [(9, 5), (16, 7), (6, 1)])
def test_adaptive_win_round_counts_stop_inside_the_first_cycle(n, m_max):
    got = win_round_counts(n, "adaptive", m_max, 3, 300, seed=12)
    assert np.array_equal(got, _per_trial_win_round_counts(n, "adaptive", m_max, 3, 300, 12))


@pytest.mark.parametrize(("name", "n", "done", "w"), [
    ("uniform", 3, 0, 1), ("uniform", 5, 4, 3), ("adaptive", 3, 0, 3), ("adaptive", 4, 8, 7),
])
def test_block_far_counts_at_the_cuts(name, n, done, w):
    # rows whose draws land on each cut, and either side, of both tables, with
    # the 11 bits below z clear and set, each against all three trits at that
    # coordinate; their far counts are hamming_d of make_strategy's rounds
    drawn = w * n if name == "uniform" else -(-w // n) * n
    first = 1 + (done * n if name == "uniform" else done)  # the block's first draw
    cases = [(z, low, t) for z in np.unique(cut_edges(NEAR_CUTS, game._MOVED_CUTS))
             for low in (0, 2**11 - 1) for t in range(3)]
    at = np.arange(len(cases)) % drawn  # the draw of the block that each row places
    bases = np.concatenate([edge_bases([z], low, first + i) for (z, low, _), i in zip(cases, at)])
    trits = np.random.default_rng(5).integers(0, 3, (len(cases), n))
    trits[np.arange(len(cases)), at % n] = [t for _, _, t in cases]
    got = game._block_far_counts(name, n, bases, trits[:, None, :], done, w)
    for base, row, far in zip(bases, trits, got):
        stack = RandomStack(0)
        stack._base, stack.draw_index = int(base), first  # its next pop is draw `first`
        strat, shift = make_strategy(name, n), GridShift(tuple(row.tolist()))
        rounds = range(done + 1, done + w + 1)
        assert far.tolist() == [hamming_d(shift, strat(r, stack, [])) for r in rounds]
    assert stack.draw_index == first + drawn


@pytest.mark.parametrize("strategy", ["uniform", "grid", "adaptive"])
@pytest.mark.parametrize("n", [6, 16])
def test_win_round_counts_wide_chunk_equals_its_slices(strategy, n):
    # 3000 live trials start at one round (one cycle) per block; 50-trial
    # slices take many rounds per block, the regime the per-trial games check
    whole = win_round_counts(n, strategy, 50, 7, 3000, seed=21)
    parts = sum(win_round_counts(n, strategy, 50, 7 + s, 50, seed=21) for s in range(0, 3000, 50))
    assert np.array_equal(whole, parts)


# The exact law of the win round F(m) = P(win within m rounds), against the
# empirical CDF of LAW_TRIALS trials with the DKW-Massart bound
# P(sup_m |F_hat(m) - F(m)| > LAW_EPS) <= 2 exp(-2 N LAW_EPS^2) = LAW_BETA.
# The seed was fixed before the first run.
LAW_TRIALS, LAW_BETA, LAW_SEED = 200_000, 1e-6, 2718
LAW_EPS = math.sqrt(math.log(2 / LAW_BETA) / (2 * LAW_TRIALS))  # 0.0060


def _geometric_cdf(n, m_max):
    """Every uniform query wins with probability p_exact(n), independently."""
    q = 1 - p_exact_fraction(n)
    return [float(1 - q**m) for m in range(1, m_max + 1)]


def _grid_sweep_cdf(n, m_max):
    """The share of the 3^n shifts within trit Hamming distance n // 2 of one
    of the sweep's first m points, the sweep being indices 0, 1, ... mod 3^n
    with trit 0 least significant."""
    sweep = [[(r % 3**n) // 3**j % 3 for j in range(n)] for r in range(m_max)]
    first = [
        next((m for m, s in enumerate(sweep, 1) if sum(map(int.__ne__, a, s)) <= n // 2), m_max + 1)
        for a in itertools.product(range(3), repeat=n)
    ]
    return [sum(f <= m for f in first) / 3**n for m in range(1, m_max + 1)]


def _sup_gap(rows, exact):
    return max(abs(r.cdf - f) for r, f in zip(rows, exact, strict=True))


@pytest.mark.parametrize(
    "n, strategy, m_max, workers",
    [
        (6, "uniform", 30, 1),
        (6, "uniform", 30, 2),
        (16, "uniform", 20, 1),
        (34, "uniform", 4, 2),  # 3**34 > 2**53: the exact-integer hidden index
        (4, "grid", 30, 1),
    ],
)
def test_win_cdf_follows_its_exact_law(n, strategy, m_max, workers):
    rows = estimate_win_cdf(n, strategy, LAW_TRIALS, m_max, LAW_SEED, workers)
    exact = (_grid_sweep_cdf if strategy == "grid" else _geometric_cdf)(n, m_max)
    assert _sup_gap(rows, exact) <= LAW_EPS


def test_random_search_exit_time_follows_the_geometric_law():
    rows = exit_time_experiment("random", 6, 20, LAW_TRIALS, LAW_SEED)
    assert _sup_gap(rows, _geometric_cdf(6, 20)) <= LAW_EPS


def test_estimate_win_cdf_workers_invariance():
    a = estimate_win_cdf(4, "uniform", 2500, 10, seed=9, workers=1)
    b = estimate_win_cdf(4, "uniform", 2500, 10, seed=9, workers=3)
    assert a == b


def test_strategy_dimension_check():
    def bad(r, stack, answers):
        return TorusPoint([0.5])

    with pytest.raises(ValueError):
        play_game(3, GridShift.zero(3), bad, 5, RandomStack(0))


class _ScriptedStack:
    """Hands out fixed uniform batches in order and records each request."""

    def __init__(self, *batches):
        self.batches = [np.array(b, dtype=float) for b in batches]
        self.requests = []

    def pop_batch(self, k):
        self.requests.append(k)
        return self.batches.pop(0)


def _coords(strat, rounds, stack):
    return [strat(r, stack, []).coords for r in range(1, rounds + 1)]


def test_uniform_strategy_maps_consecutive_pops():
    stack, ref = RandomStack(7), RandomStack(7)
    got = _coords(make_strategy("uniform", 3), 3, stack)
    want = [tuple((ref.pop() + 1.0) / 2.0 for _ in range(3)) for _ in range(3)]
    assert got == want
    assert stack.draw_index == 9


def test_grid_strategy_sweeps_indices_and_wraps():
    stack = _ScriptedStack()
    got = _coords(make_strategy("grid", 2), 11, stack)
    # index (r-1) % 9, coordinate 0 the least significant trit
    trits = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2),
             (0, 0), (1, 0)]
    assert got == [tuple(t / 3 for t in ts) for ts in trits]
    assert stack.requests == []


def test_adaptive_strategy_draws_every_nth_round_and_nudges_between():
    stack = _ScriptedStack([-0.5, 0.5, 0.0], [0.2, -0.9, 0.6], [0.0, 0.0, 0.0])
    got = _coords(make_strategy("adaptive", 3), 7, stack)
    want = [
        (0.25, 0.75, 0.5),  # round 1: (u + 1) / 2
        (0.25, 0.75 + 1 / 3 - 1, 0.5),  # round 2: coordinate 1 wraps past 1
        (0.25, 0.75 + 1 / 3 - 1, 0.5 + 1 / 3),  # round 3: coordinate 2
        (0.6, 0.05, 0.8),  # round 4: fresh draws
        (0.6, 0.05 + 1 / 3, 0.8),
        (0.6, 0.05 + 1 / 3, 0.8 + 1 / 3 - 1),
        (0.5, 0.5, 0.5),  # round 7: fresh draws
    ]
    assert stack.requests == [3, 3, 3]
    for g, w in zip(got, want, strict=True):
        assert g == pytest.approx(w, abs=1e-12)


def test_make_strategy_unknown():
    with pytest.raises(ValueError):
        make_strategy("nope", 3)
    with pytest.raises(ValueError, match="unknown strategy"):
        win_round_counts(3, "nope", 5, 0, 5, seed=0)
