import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plateaulab.circuits import ShiftedProductFunction
from plateaulab.game import (
    PlateauRegion,
    bounds,
    estimate_win_cdf,
    make_strategy,
    p_exact_fraction,
    play_game,
    win_round_counts,
)
from plateaulab.oracles import RandomStack
from plateaulab.torus import GridShift, TorusPoint


def test_in_plateau_examples():
    region = PlateauRegion(2, GridShift((0, 0)))
    assert region.contains(TorusPoint([0.5, 0.5]))
    assert not region.contains(TorusPoint([0.5, 0.05]))
    assert not region.contains(TorusPoint([0.0, 0.0]))  # center never a member


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
    counts = win_round_counts(n, "uniform", 0, games, 1, seed=31)
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


def _per_trial_win_round_counts(n, strategy_name, start, count, m_max, seed):
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
def test_win_round_counts_equals_per_trial_games(n, strategy, seed, start, count, m_max):
    got = win_round_counts(n, strategy, start, count, m_max, seed)
    want = _per_trial_win_round_counts(n, strategy, start, count, m_max, seed)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_win_round_counts_hidden_index_beyond_float_precision():
    # 3**40 > 2**53: the hidden index no longer fits a float exactly
    for strategy in ("uniform", "adaptive"):
        got = win_round_counts(40, strategy, 5, 40, 20, seed=8)
        assert np.array_equal(got, _per_trial_win_round_counts(40, strategy, 5, 40, 20, 8))


def test_estimate_win_cdf_workers_invariance():
    a = estimate_win_cdf(4, "uniform", 2500, 10, seed=9, workers=1)
    b = estimate_win_cdf(4, "uniform", 2500, 10, seed=9, workers=3)
    assert a == b


def test_strategy_dimension_check():
    def bad(r, stack, answers):
        return TorusPoint([0.5])

    with pytest.raises(ValueError):
        play_game(3, GridShift.zero(3), bad, 5, RandomStack(0))


def test_make_strategy_unknown():
    with pytest.raises(ValueError):
        make_strategy("nope", 3)
    with pytest.raises(ValueError, match="unknown strategy"):
        win_round_counts(3, "nope", 0, 5, 5, seed=0)
