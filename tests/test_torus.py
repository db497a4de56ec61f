import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plateaulab import game, info, training
from plateaulab.torus import (
    N_MAX,
    GridShift,
    TorusPoint,
    _scaled_grid_dist,
    bohr_dist,
    far_coords,
    far_count_array,
    hamming_d,
    round_to_grid,
    wrap01,
    wrap01_array,
)

unit = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_torus_point_wraps():
    p = TorusPoint([1.25, -0.25, 3.0])
    assert p.coords == (0.25, 0.75, 0.0)
    assert all(0.0 <= c < 1.0 for c in p.coords)


def test_wrap01_clamps_near_one():
    # 1 - eps/2 rounds to 1.0 after floor subtraction of a tiny negative
    assert wrap01(-1e-17) == 0.0


# every finite double: hypothesis's floats, subnormals included, and uniform bit patterns
_finite_double = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1)
    .map(lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])
    .filter(math.isfinite),
)
_EDGE_VALUES = [-1e-17, -0.0, 1.0 - 2.0**-53, -(2.0**60), 1.7e308, -1.7e308]


@st.composite
def _finite_arrays(draw):
    shape = draw(st.one_of(
        st.just(()), st.tuples(st.integers(0, 12)), st.tuples(*[st.integers(1, 3)] * 3)))
    values = draw(st.lists(_finite_double, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values, dtype=np.float64).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(_finite_arrays())
@example(np.array(-1e-17))  # 1 - 1e-17 rounds to 1.0: the clamp
@example(np.array(-0.0))
@example(np.array(_EDGE_VALUES))
@example(np.array(_EDGE_VALUES).reshape(1, 2, 3))
def test_wrap01_array_equals_wrap01_to_the_bit(v):
    got = wrap01_array(v)
    want = np.array([wrap01(c) for c in v.reshape(-1).tolist()]).reshape(v.shape)
    assert isinstance(got, np.ndarray) and got.shape == v.shape
    assert got.tobytes() == want.tobytes()


def test_torus_point_immutable():
    p = TorusPoint([0.1])
    with pytest.raises(AttributeError):
        p.coords = (0.5,)


def test_torus_point_is_a_plain_value():
    raw = [1.25, -0.25, 0.5]
    x, y, z = TorusPoint(raw), TorusPoint(tuple(raw)), TorusPoint(np.array(raw))
    assert x.coords == y.coords == z.coords == (0.25, 0.75, 0.5)
    assert x == y == z and hash(x) == hash(y) == hash(z)
    assert len({x, y, z}) == 1 and {x: 1}[z] == 1
    assert x != TorusPoint([0.25, 0.75, 0.25])
    assert x != x.coords and x != (0.25, 0.75, 0.5)
    assert TorusPoint([0.0]) != GridShift((0,)) and GridShift((0,)) != TorusPoint([0.0])
    assert x - GridShift((1, 2, 0)) == TorusPoint([0.25 - 1 / 3, 0.75 - 2 / 3, 0.5])
    assert x - y == TorusPoint([0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        TorusPoint([0.1]) - TorusPoint([0.1, 0.2])
    with pytest.raises(AttributeError):
        x.coords = (0.5, 0.5, 0.5)
    assert x.coords == (0.25, 0.75, 0.5)
    assert "__init__" in vars(TorusPoint)  # a class attribute that can be wrapped


def test_grid_shift_validation():
    with pytest.raises(ValueError):
        GridShift((0, 3))
    with pytest.raises(ValueError):
        GridShift((0, -1))
    for index in (9, -1):
        with pytest.raises(ValueError, match="index out of range"):
            GridShift.from_index(2, index)


def test_grid_shift_enumeration_and_index_roundtrip():
    shifts = list(GridShift.all_shifts(3))
    assert len(shifts) == 27
    assert len(set(shifts)) == 27
    for s in shifts:
        assert GridShift.from_index(3, s.index) == s
        assert all(c in (0.0, 1 / 3, 2 / 3) for c in s.to_point().coords)


def test_bohr_dist_examples():
    assert bohr_dist(0.9, 0.1) == pytest.approx(0.2)
    assert bohr_dist(0.5, 0.0) == pytest.approx(0.5)
    assert bohr_dist(1 / 3, 2 / 3) == pytest.approx(1 / 3)


@given(unit, unit, unit)
def test_bohr_symmetry_and_translation_invariance(u, v, t):
    assert bohr_dist(u, v) == pytest.approx(bohr_dist(v, u))
    assert bohr_dist(u + t, v + t) == pytest.approx(bohr_dist(u, v), abs=1e-9)
    assert 0.0 <= bohr_dist(u, v) <= 0.5


def test_round_to_grid_examples():
    s, tie = round_to_grid(TorusPoint([0.30, 0.70]))
    assert s.trits == (1, 2) and not tie
    s, tie = round_to_grid(TorusPoint([0.5]))
    assert s.trits == (1,) and tie  # equidistant; smaller trit wins
    s, tie = round_to_grid(TorusPoint([0.0, 0.0]))
    assert s.trits == (0, 0) and not tie


def test_hamming_d_examples():
    a = GridShift((0, 0))
    assert hamming_d(a, TorusPoint([0.5, 0.05])) == 1
    assert hamming_d(GridShift((0, 0, 0)), TorusPoint([0.0, 0.0, 0.0])) == 0
    assert hamming_d(a, TorusPoint([0.5, 0.5])) == 2


def test_hamming_d_dim_mismatch():
    with pytest.raises(ValueError):
        hamming_d(GridShift((0,)), TorusPoint([0.1, 0.2]))


def test_boundary_exactly_one_sixth_is_far():
    assert hamming_d(GridShift((0,)), TorusPoint([1 / 6])) == 1


@given(st.lists(st.integers(0, 2), min_size=1, max_size=6), st.data())
def test_hamming_shift_covariance(trits, data):
    n = len(trits)
    a = GridShift(tuple(trits))
    x = TorusPoint(data.draw(st.lists(unit, min_size=n, max_size=n)))
    assert hamming_d(a, x) == hamming_d(GridShift.zero(n), x - a)


@given(st.data())
def test_hamming_matches_rounding_when_tie_free(data):
    n = data.draw(st.integers(1, 5))
    a = GridShift(tuple(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))))
    x = TorusPoint(data.draw(st.lists(unit, min_size=n, max_size=n)))
    rounded, tie = round_to_grid(x)
    if not tie:
        disagreement = sum(1 for s, t in zip(a.trits, rounded.trits) if s != t)
        assert hamming_d(a, x) == disagreement


def test_far_count_array_matches_scalar():
    a = GridShift((1, 0, 2))
    pts = np.random.default_rng(0).random((50, 3))
    for row, fc in zip(pts, far_count_array(pts, a.trits)):
        assert fc == hamming_d(a, TorusPoint(row))


# FAR boundaries: k/6, and z * 2**-53 for the z nearest 1/6, 1/2 and 5/6
_EDGES = [k / 6 for k in range(7)] + [(k * 2**53 + 3) // 6 * 2.0**-53 for k in (1, 3, 5)]


def _ulps_from(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return wrap01(x)


@st.composite
def _points_near_edges(draw):
    n = draw(st.integers(1, 6))
    edge = st.builds(_ulps_from, st.sampled_from(_EDGES), st.integers(-64, 64))
    return draw(st.lists(edge, min_size=n, max_size=n)), draw(
        st.lists(st.integers(0, 2), min_size=n, max_size=n))


@given(_points_near_edges(), st.sampled_from([np.int64, np.float64]))
# |d - 3/2| <= 1 reads these two as FAR; they are NEAR
@example(([math.nextafter(1 / 6, 0)], [0]), np.int64)
@example(([1501199875790165 * 2.0**-53], [0]), np.float64)
def test_far_coords_at_grid_boundaries(case, dtype):
    coords, trits = case
    points, t = np.array(coords), np.array(trits, dtype=dtype)
    want = [_scaled_grid_dist(c, tr) >= 0.5 for c, tr in zip(coords, trits)]
    assert far_coords(points, t).tolist() == want
    assert far_count_array(points, t) == hamming_d(GridShift(tuple(trits)), TorusPoint(coords))


def test_n_max_is_the_largest_n_whose_shift_count_converts_to_float():
    assert math.isfinite(float(3**N_MAX))
    with pytest.raises(OverflowError):
        float(3 ** (N_MAX + 1))


_FRONT_ENDS = {
    "estimate_win_cdf": lambda n: game.estimate_win_cdf(n, "uniform", 3, 3, 0, workers=2),
    "exit_time_experiment": lambda n: training.exit_time_experiment("random", n, 3, 3, 0, 2),
    "trainer_sweep": lambda n: training.trainer_sweep("random", n, 0.5, 3, 2, 0, workers=2),
    "divergence_experiment":
        lambda n: training.divergence_experiment("random", n, 2, 3, 0.0, 0, 2),
    "transcript_mi": lambda n: info.transcript_mi(n, "uniform", 2, 3, 0, workers=2),
    "identification_rates": lambda n: info.identification_rates(n, 3, 1e-9, 0, workers=2),
}


@pytest.mark.parametrize("front_end", sorted(_FRONT_ENDS))
def test_front_ends_refuse_n_above_n_max_before_fan_out(monkeypatch, front_end):
    def no_sweep(*args):
        raise AssertionError("a sweep started before n was checked")

    for module in (game, training, info):
        monkeypatch.setattr(module, "run_chunks", no_sweep)
    for n in (N_MAX + 1, 10_000):  # before any cap message that formats 3^n
        with pytest.raises(ValueError, match=f"^n={n} exceeds {N_MAX}: 3\\^n shifts overflow"):
            _FRONT_ENDS[front_end](n)
