import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plateaulab import training
from plateaulab.circuits import (
    HAMILTONIAN,
    PHI,
    ShiftedProductFunction,
    _z_parity,
    h_eval,
    h_eval_array,
    shifted_product_rows,
    single_qubit_sim,
    single_qubit_unitary,
    tensor_sim,
    tensor_sim_rows,
)
from plateaulab.torus import GridShift, TorusPoint, bohr_dist, wrap01_array


def _dense_cells(n, key, coord, trits, floor):
    """training._cells' f at every cell of key: the f it returns for the cells
    it keeps, which must ascend, and 0.0 at every other cell.  Each bin is
    int(x * BINS) of coord's x, in [0, 1), as SPSA and parameter-shift read it."""
    bins = lambda k, j: (coord(k, j) * training.BINS).astype(np.intp)  # noqa: E731
    cell, f = training._cells(n, key, coord, trits, floor, bins)
    assert np.all(np.diff(cell) > 0) and len(cell) == len(f)
    fx = np.zeros(key.shape)
    fx.put(cell, f)
    return fx


def test_phi_in_range_and_hamiltonian_unit_eigenvalues():
    assert 0.0 < PHI < math.pi / 4
    evals = np.linalg.eigvalsh(HAMILTONIAN)
    assert np.allclose(sorted(evals), [-1.0, 1.0])


def test_h_eval_anchor_values():
    assert h_eval(0.0) == pytest.approx(1.0, abs=1e-12)
    assert h_eval(1 / 3) == pytest.approx(0.0, abs=1e-12)
    assert h_eval(2 / 3) == pytest.approx(0.0, abs=1e-12)
    assert h_eval(0.5) == pytest.approx(-1 / 3, abs=1e-12)
    assert h_eval(1 / 6) == pytest.approx(2 / 3, abs=1e-12)


def test_printed_coefficient_variant_contradicts_simulator():
    # The smaller-amplitude variant 1/3 + cos(2 pi t)/3 cannot be this
    # circuit's expectation value: at t=0 the simulator gives exactly 1.
    def h_small_amp(t):
        return 1 / 3 + math.cos(2 * math.pi * t) / 3

    assert h_small_amp(0.0) == pytest.approx(2 / 3)
    assert single_qubit_sim(0.0) == pytest.approx(1.0, abs=1e-12)
    assert abs(single_qubit_sim(0.0) - h_small_amp(0.0)) > 0.3


def test_single_qubit_sim_matches_h_everywhere():
    for t in np.linspace(0, 1, 997):
        assert single_qubit_sim(float(t)) == pytest.approx(h_eval(float(t)), abs=1e-12)


def test_single_qubit_sim_examples():
    assert single_qubit_sim(0.0) == pytest.approx(1.0, abs=1e-12)
    assert single_qubit_sim(1 / 3) == pytest.approx(0.0, abs=1e-12)
    assert single_qubit_sim(0.2) == pytest.approx(1 / 3 + (2 / 3) * math.cos(0.4 * math.pi))


def test_h_max_attained_only_at_zero():
    ts = np.arange(0.0, 1.0, 1e-4)
    vals = h_eval_array(ts)
    assert vals.max() == pytest.approx(1.0, abs=1e-12)
    assert np.all(vals[1:] < 1.0)
    # derivative -(4 pi / 3) sin(2 pi t) vanishes only at t = 0, 1/2 in [0,1)
    interior = ts[(ts > 1e-3) & (np.abs(ts - 0.5) > 1e-3)]
    deriv = -(4 * math.pi / 3) * np.sin(2 * math.pi * interior)
    assert np.all(np.abs(deriv) > 0)


def test_h_bounded_by_two_thirds_outside_near_region():
    ts = np.arange(0.0, 1.0, 1e-4)
    far = np.array([bohr_dist(float(t), 0.0) >= 1 / 6 for t in ts])
    assert np.all(np.abs(h_eval_array(ts[far])) <= 2 / 3 + 1e-12)


def test_f_eval_examples():
    f = ShiftedProductFunction(2, GridShift((0, 0)))
    assert f(TorusPoint([0.0, 0.0])) == pytest.approx(1.0)
    assert f(TorusPoint([1 / 3, 0.0])) == pytest.approx(0.0, abs=1e-12)
    fa = ShiftedProductFunction(3, GridShift((2, 0, 1)))
    assert fa(fa.argmax()) == pytest.approx(1.0)


def test_f_range_and_shift_covariance():
    rng = np.random.default_rng(1)
    f0 = ShiftedProductFunction(4, GridShift.zero(4))
    fa = ShiftedProductFunction(4, GridShift((1, 2, 0, 1)))
    for _ in range(200):
        x = TorusPoint(rng.random(4))
        v = fa(x)
        assert -1.0 <= v <= 1.0
        assert v == f0(x - fa.shift)  # exact: same float operations


def test_f_periodicity():
    f = ShiftedProductFunction(2, GridShift((1, 0)))
    x = TorusPoint([0.21, 0.77])
    shifted = TorusPoint([0.21 + 1.0, 0.77])
    assert f(x) == f(shifted)


def test_f_eval_dim_mismatch():
    f = ShiftedProductFunction(2, GridShift((0, 0)))
    with pytest.raises(ValueError):
        f(TorusPoint([0.1]))
    with pytest.raises(ValueError, match="dimension mismatch: expected 2, got 1"):
        tensor_sim(f, TorusPoint([0.1]))
    with pytest.raises(ValueError, match="shift dimension must equal n"):
        ShiftedProductFunction(2, GridShift((0,)))


def test_tensor_sim_matches_f_eval():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        a = GridShift(tuple(int(t) for t in rng.integers(0, 3, n)))
        f = ShiftedProductFunction(n, a)
        x = TorusPoint(rng.random(n))
        assert abs(tensor_sim(f, x) - f(x)) <= 1e-9


def test_tensor_sim_degenerate_and_product_cases():
    f1 = ShiftedProductFunction(1, GridShift((0,)))
    for t in (0.0, 0.17, 0.62):
        assert tensor_sim(f1, TorusPoint([t])) == pytest.approx(single_qubit_sim(t), abs=1e-12)
    f3 = ShiftedProductFunction(3, GridShift((0, 0, 0)))
    assert tensor_sim(f3, TorusPoint([0.0, 0.0, 0.0])) == pytest.approx(1.0)


def test_tensor_sim_cap():
    f = ShiftedProductFunction(11, GridShift.zero(11))
    with pytest.raises(ValueError, match="cap"):
        tensor_sim(f, TorusPoint([0.0] * 11))


def _einsum_statevector(x, trits) -> float:
    """The general statevector reference: each shifted one-qubit unitary applied
    to the whole 2**n state by strided 2x2 multiplication, then Z on every qubit."""
    n = len(x)
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for j in range(n):
        u = single_qubit_unitary(x[j] - trits[j] / 3.0)
        s = state.reshape(2 ** (n - 1 - j), 2, 2**j)
        state = np.einsum("ab,ibj->iaj", u, s).reshape(-1)
    return float(np.sum(_z_parity(n) * np.abs(state) ** 2))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 10), rows=st.integers(1, 20))
def test_tensor_sim_rows_equals_the_gate_by_gate_statevector(data, n, rows):
    trits = np.array(
        data.draw(st.lists(st.integers(0, 2), min_size=rows * n, max_size=rows * n))
    ).reshape(rows, n)
    # a drawn coordinate, or an integer k for x_j = a_j + k/3 (mod 1): the
    # shift itself (k = 0, U_j = I) or one of h's zeros (k = 1, 2)
    coords = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True) | st.integers(0, 2),
                                min_size=rows * n, max_size=rows * n))
    points = np.array([((a + v) % 3) / 3 if isinstance(v, int) else v
                       for v, a in zip(coords, trits.reshape(-1))]).reshape(rows, n)
    want = np.array([_einsum_statevector(x, a) for x, a in zip(points, trits)])
    assert tensor_sim_rows(points, trits).tobytes() == want.tobytes()


def test_h_eval_array_magnitude_at_most_one():
    # the premise of training._cells' floor: no factor grows |f|
    anchors = np.array([0.0, 1 / 3, -1 / 3, 2 / 3, -2 / 3])
    t = np.concatenate([anchors, np.nextafter(anchors, 1.0), np.nextafter(anchors, -1.0)])
    assert np.all(np.abs(h_eval_array(t)) <= 1.0)
    assert h_eval_array(np.array([0.0]))[0] == 1.0


# coordinates on the 1/3-grid make factors of exactly 1.0 (x_j = a_j) or
# about 0 (x_j - a_j = +-1/3), and so ties of |f| with partial products
_GRID = [0.0, 1 / 3, 2 / 3, float(np.nextafter(1 / 3, 0.0)), float(np.nextafter(2 / 3, 1.0))]
_prune_coord = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(_GRID)


# TAIL 0 cuts f coordinate by coordinate to the end; 10**9 multiplies out every
# cell left after coordinate 0 as one block
@pytest.mark.parametrize("tail", [0, training.TAIL, 10**9], ids=["cut", "tail", "block"])
@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), rows=st.integers(1, 6), per_row=st.booleans())
def test_pruned_product_answers_every_comparison_as_f(tail, data, n, rows, per_row):
    points = np.array(
        data.draw(st.lists(_prune_coord, min_size=n * rows, max_size=n * rows))
    ).reshape(rows, n)
    trits = np.array(
        data.draw(st.lists(st.integers(0, 2), min_size=n * rows, max_size=n * rows))
    ).reshape(rows, n)
    if not per_row:
        trits = trits[0]
    f = shifted_product_rows(points, trits)
    # the plain product is ShiftedProductFunction.__call__, bit for bit
    shifts = trits if per_row else [trits] * rows
    want = [ShiftedProductFunction(n, GridShift(tuple(int(t) for t in a)))(TorusPoint(x))
            for x, a in zip(points, shifts)]
    assert np.array_equal(f, want)
    # floors: drawn, tied to |f|, or tied to a partial product |p_j|
    floors = []
    for i in range(rows):
        kind = data.draw(st.sampled_from(["drawn", "f", "partial"]))
        if kind == "drawn":
            floors.append(data.draw(st.floats(0.0, 1.0)))
        elif kind == "f":
            floors.append(abs(f[i]))
        else:
            j = data.draw(st.integers(1, n))
            a = trits[i] if per_row else trits
            floors.append(abs(shifted_product_rows(points[i, :j], a[:j])))
    floors = np.array(floors)

    def cut(floor):  # _cells with one cell per point, keyed by its row
        key = np.arange(rows)[:, None]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(training, "TAIL", tail)
            fx = _dense_cells(n, key, lambda k, j: points[k, j], np.array(shifts), floor)
        return fx[:, 0]

    v = cut(floors)
    exact = np.abs(f) >= floors
    assert np.array_equal(v[exact], f[exact])
    assert np.all(v[~exact] == 0.0)
    sign = np.where(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), 1.0, -1.0)
    w = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=rows, max_size=rows)))
    for t in (floors, -floors, sign * (floors + w)):
        assert np.array_equal(v >= t, f >= t)
        assert np.array_equal(t < v, t < f)
    # one floor for every row
    v1 = cut(floors[0])
    keep = np.abs(f) >= floors[0]
    assert np.array_equal(v1[keep], f[keep])
    for t in (floors[0], -floors[0]):
        assert np.array_equal(v1 >= t, f >= t) and np.array_equal(t < v1, t < f)


# scalar floors of _cells' bound pass: 1/3 is where the negative lobe
# (min h = -1/3) stops reaching the floor
_THIRD = 1 / 3
_SCALAR_FLOORS = [0.0, _THIRD - 1e-9, float(np.nextafter(_THIRD, 0.0)), _THIRD,
                  float(np.nextafter(_THIRD, 1.0)), _THIRD + 1e-9, 1.0, np.inf]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), rows=st.integers(1, 5), width=st.integers(1, 8))
def test_bound_pass_answers_every_comparison_as_f(data, n, rows, width):
    coords = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(_GRID + [0.5, 1 / 6, 0.25])
    points = np.array(
        data.draw(st.lists(coords, min_size=rows * width * n, max_size=rows * width * n))
    ).reshape(rows, width, n)
    trits = np.array(
        data.draw(st.lists(st.integers(0, 2), min_size=rows * n, max_size=rows * n))
    ).reshape(rows, n)
    f = shifted_product_rows(points, trits[:, None, :])
    # a floor from the list, or tied to one cell's |h(d_0)|: equal, 1 ulp below or above
    if data.draw(st.booleans()):
        floor = data.draw(st.sampled_from(_SCALAR_FLOORS))
    else:
        h0 = np.abs(h_eval_array(wrap01_array(points[..., 0] - trits[:, :1] / 3.0)))
        tied = float(h0.reshape(-1)[data.draw(st.integers(0, rows * width - 1))])
        floor = float(np.nextafter(tied, data.draw(st.sampled_from([tied, 0.0, 2.0]))))
    key = np.arange(rows * width).reshape(rows, width)
    # at most 40 cells: TAIL 0 screens every coordinate, 1 and 4 switch to
    # the exact block part way through the bound pass
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "TAIL", data.draw(st.sampled_from([0, 1, 4])))
        fx = _dense_cells(n, key, lambda k, j: points.reshape(-1, n)[k, j], trits, floor)
    keep = np.abs(f) >= floor
    assert fx[keep].tobytes() == f[keep].tobytes()
    assert np.all(fx[~keep] == 0.0)
    w = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=rows, max_size=rows)))[:, None]
    for t in (floor, -floor, floor + w, -floor - w):
        assert np.array_equal(fx >= t, f >= t)
        assert np.array_equal(t < fx, t < f)


def test_bound_table_skips_h_where_f_cannot_reach_the_floor():
    # at floor 0.9 only |d_0| <= 0.0883 (mod 1) can reach it: 18% of the cells,
    # and h runs on those H_BOUND keeps
    rng = np.random.default_rng(5)
    points, trits = rng.random((40, 50, 1)), rng.integers(0, 3, (40, 1))
    evaluated = []

    def h(t):
        evaluated.append(t.size)
        return h_eval_array(t)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "h_eval_array", h)
        fx = _dense_cells(1, np.arange(2000).reshape(40, 50), lambda k, j: points.reshape(-1)[k],
                    trits, 0.9)
    f = shifted_product_rows(points, trits[:, None, :])
    assert sum(evaluated) < 0.25 * f.size
    keep = np.abs(f) >= 0.9
    assert keep.any() and fx[keep].tobytes() == f[keep].tobytes()
    assert np.all(fx[~keep] == 0.0)
