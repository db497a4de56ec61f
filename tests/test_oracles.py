import math

import numpy as np
import pytest

from plateaulab.circuits import ShiftedProductFunction, h_eval
from plateaulab.game import PlateauRegion
from plateaulab.oracles import (
    ClampedFunction,
    RandomStack,
    Transcript,
    coupled_sample,
    eval_query,
    sample_query,
)
from plateaulab.torus import GridShift, TorusPoint


class _Const:
    def __init__(self, n, value):
        self.n = n
        self.value = value

    def __call__(self, x):
        return self.value


def test_eval_query_examples():
    f2 = ShiftedProductFunction(2, GridShift((0, 0)))
    assert eval_query(f2, TorusPoint([0.0, 0.0])) == pytest.approx(1.0)
    f1 = ShiftedProductFunction(1, GridShift((0,)))
    assert eval_query(f1, TorusPoint([1 / 3])) == pytest.approx(0.0, abs=1e-12)
    region = PlateauRegion(2, GridShift((0, 0)))
    fbar = ClampedFunction(f2, region, 0.0)
    assert eval_query(fbar, TorusPoint([0.5, 0.5])) == 0.0  # inside the region


def test_eval_query_dim_mismatch():
    f = ShiftedProductFunction(2, GridShift((0, 0)))
    with pytest.raises(ValueError):
        eval_query(f, TorusPoint([0.5]))


def test_sample_query_threshold_rule():
    # engineer the stack value via a stub: outcome is +1 iff R < f(x)
    f = _Const(1, 0.5)
    x = TorusPoint([0.0])

    class _FixedStack:
        def __init__(self, r):
            self.r = r

        def pop(self):
            return self.r

    assert sample_query(f, x, _FixedStack(0.3)) == 1
    assert sample_query(f, x, _FixedStack(0.7)) == -1
    # f = 1: R in [-1, 1) is always below
    stack = RandomStack(0)
    assert all(sample_query(_Const(1, 1.0), x, stack) == 1 for _ in range(1000))


def test_sample_query_calibration():
    f = ShiftedProductFunction(1, GridShift((0,)))
    x = TorusPoint([0.2])
    fx = h_eval(0.2)
    n = 100_000
    stack = RandomStack(11)
    mean = np.mean(np.where(stack.pop_batch(n) < fx, 1.0, -1.0))
    assert abs(mean - fx) <= 4 * math.sqrt((1 - fx**2) / n)


def test_coupled_sample_rules():
    x = TorusPoint([0.0])
    stack = RandomStack(5)
    f = _Const(1, 0.3)
    for _ in range(500):
        o1, o2, div = coupled_sample(f, _Const(1, 0.3), x, stack)
        assert not div and o1 == o2
    # R in the gap between the two values flips exactly one outcome
    delta = 0.2

    class _FixedStack:
        def pop(self):
            return delta / 2

    o1, o2, div = coupled_sample(_Const(1, delta), _Const(1, 0.0), x, _FixedStack())
    assert (o1, o2, div) == (1, -1, True)


def test_coupling_tightness_at_fixed_point():
    # divergence frequency -> |f - fbar| / 2
    f, fbar = _Const(1, 0.4), _Const(1, 0.1)
    x = TorusPoint([0.0])
    stack = RandomStack(21)
    trials = 200_000
    count = sum(coupled_sample(f, fbar, x, stack)[2] for _ in range(trials))
    expect = abs(0.4 - 0.1) / 2
    assert abs(count / trials - expect) <= 4 * math.sqrt(expect * (1 - expect) / trials)


def test_transcript_determinism():
    f = ShiftedProductFunction(3, GridShift((1, 0, 2)))
    transcripts = []
    for _ in range(2):
        stack = RandomStack(77, 4)
        t = Transcript()
        for _ in range(50):
            u = stack.pop_batch(3)
            x = TorusPoint((u + 1.0) / 2.0)
            t.append(x, sample_query(f, x, stack))
        transcripts.append(t)
    assert transcripts[0].entries == transcripts[1].entries


def test_transcript_rejects_bad_outcome():
    t = Transcript()
    with pytest.raises(ValueError):
        t.append(TorusPoint([0.0]), 0)


def test_non_divergence_persistence():
    # if no coupled query diverges through m queries at shared points, the
    # two transcripts coincide entry for entry
    n, m = 6, 40
    hidden = GridShift((0, 1, 2, 0, 1, 2))
    f = ShiftedProductFunction(n, hidden)
    fbar = ClampedFunction(f, PlateauRegion(n, hidden), 0.0)
    stack = RandomStack(13, 0)
    ta, tb = Transcript(), Transcript()
    for _ in range(m):
        u = stack.pop_batch(n)
        x = TorusPoint((u + 1.0) / 2.0)
        o1, o2, div = coupled_sample(f, fbar, x, stack)
        assert not div  # divergence is rare at this delta; seed chosen clean
        ta.append(x, o1)
        tb.append(x, o2)
    assert ta.entries == tb.entries


def test_clamp_examples_and_region_gap():
    n = 10
    hidden = GridShift.zero(n)
    f = ShiftedProductFunction(n, hidden)
    region = PlateauRegion(n, hidden)
    fbar = ClampedFunction(f, region, 0.0)
    inside = TorusPoint([0.5] * n)
    outside = TorusPoint([0.0] * n)
    assert fbar(inside) == 0.0
    assert fbar(outside) == f(outside)
    # on the region, |f - fbar| < (2/3)^(n/2)
    rng = np.random.default_rng(3)
    found = 0
    while found < 2000:
        pts = rng.random((5000, n))
        member = region.contains_array(pts)
        for row in pts[member]:
            x = TorusPoint(row)
            assert abs(f(x) - fbar(x)) < (2 / 3) ** 5
            found += 1
            if found >= 2000:
                break


def test_clamp_validation():
    f = ShiftedProductFunction(2, GridShift((0, 0)))
    with pytest.raises(ValueError):
        ClampedFunction(f, PlateauRegion(3, GridShift.zero(3)), 0.0)
    f3 = ShiftedProductFunction(3, GridShift.zero(3))
    with pytest.raises(ValueError, match="region dimension must match"):  # when built, not called
        ClampedFunction(f3, PlateauRegion(2, GridShift.zero(2)), 0.0)
    with pytest.raises(ValueError):
        ClampedFunction(f, PlateauRegion(2, GridShift.zero(2)), 1.5)
