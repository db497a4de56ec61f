import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plateaulab.rng import (
    _GOLDEN,
    _MASK,
    _MIX1,
    _MIX2,
    RandomStack,
    _mix64,
    _unit_bins_at,
    advance,
    first_indices,
    stream_bases,
    uniform_block,
    uniforms_at,
    unit_uniforms_at,
)


def test_pop_matches_pop_batch():
    a = RandomStack(99, 5)
    b = RandomStack(99, 5)
    singles = [a.pop() for _ in range(2000)]
    batch = b.pop_batch(2000)
    assert np.array_equal(singles, batch)


def test_mixed_pop_and_batch_agree():
    a = RandomStack(1, 0)
    b = RandomStack(1, 0)
    seq = [a.pop(), a.pop()] + list(a.pop_batch(7)) + [a.pop()]
    assert np.array_equal(seq, b.pop_batch(10))


def test_equal_seed_equal_sequence():
    assert np.array_equal(RandomStack(3, 1).pop_batch(100), RandomStack(3, 1).pop_batch(100))


def test_distinct_streams_differ():
    assert not np.array_equal(RandomStack(3, 1).pop_batch(100), RandomStack(3, 2).pop_batch(100))


def test_range_and_moments():
    u = RandomStack(7).pop_batch(200_000)
    assert u.min() >= -1.0 and u.max() < 1.0
    assert abs(u.mean()) < 0.01  # E = 0
    assert abs(u.var() - 1.0 / 3.0) < 0.01  # Var = 1/3


def test_draw_index_increments():
    s = RandomStack(0)
    s.pop()
    assert s.draw_index == 1
    s.pop_batch(10)
    assert s.draw_index == 11


def test_pop_index_is_one_pop_mapped_to_an_index():
    a = RandomStack(11, 4)
    b = RandomStack(11, 4)
    for n in range(1, 9):
        size = 3**n
        want = min(int((b.pop() + 1.0) / 2.0 * size), size - 1)
        k = a.draw_index
        assert a.pop_index(size) == want
        assert a.draw_index == k + 1


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(-(2**65), 2**65),
    streams=st.lists(st.integers(-(2**64), 2**65), max_size=8),
    start=st.integers(0, 1100),
    k=st.integers(0, 40),
    as_array=st.booleans(),
)
def test_uniform_block_rows_equal_stacks(seed, streams, start, k, as_array):
    if as_array:  # the int64 fast path of stream_bases
        streams = [s % 2**64 - 2**63 for s in streams]
    bases = stream_bases(seed, np.array(streams, dtype=np.int64) if as_array else streams)
    assert [int(b) for b in bases] == [RandomStack(seed, s)._base for s in streams]
    block = uniform_block(bases, start, k)
    assert block.shape == (len(streams), k)
    for row, s in zip(block, streams):
        stack = RandomStack(seed, s)
        for _ in range(start):
            stack.pop()
        assert np.array_equal(row, stack.pop_batch(k))


def _reference_draws(seed, stream, start, count):
    """SplitMix64 on Python ints: draw k of a stream is 2 * ((z >> 11) * 2**-53) - 1
    with z = mix64(base + (k + 1) * golden)."""
    base = _mix64((seed & _MASK) ^ _mix64((stream & _MASK) ^ _GOLDEN))
    out = []
    for k in range(start, start + count):
        z = _mix64((base + (k + 1) * _GOLDEN) & _MASK)
        out.append(2.0 * ((z >> 11) * 2.0**-53) - 1.0)
    return out


@pytest.mark.parametrize("seed", [0, -3, 2**64 - 1])
@pytest.mark.parametrize("start", [0, 2**40])
def test_uniform_block_equals_python_int_reference(seed, start):
    streams = [0, 1, 7, -3, 2**64 - 1]
    block = uniform_block(stream_bases(seed, streams), start, 40)
    for row, s in zip(block, streams):
        assert row.tolist() == _reference_draws(seed, s, start, 40)
        stack = RandomStack(seed, s)
        stack.draw_index = start  # pop computes draw k from k alone
        assert [stack.pop() for _ in range(40)] == row.tolist()


@pytest.mark.parametrize("seed", [-3, 2**64 - 1])
@pytest.mark.parametrize("size", [1, 3, 3**13, 2**53, 2**53 + 1, 3**34, 3**646])
def test_first_indices_equal_first_pop_index(seed, size):
    # int64 up to 2**53, exact Python ints above it; 3**646 is the last 3**n below float max
    streams = [0, -3, 2**64 - 1]
    got = first_indices(stream_bases(seed, streams), size)
    assert got.dtype == (np.int64 if size <= 2**53 else object)
    assert got.tolist() == [RandomStack(seed, s).pop_index(size) for s in streams]


def test_uniform_block_literal_draws():
    # values drawn before the kernel worked in place, kept as literals
    assert uniform_block(stream_bases(0, [0, 7, -3]), 0, 2).tolist() == [
        [-0.3238950916089891, -0.46173945754720025],
        [0.8412506702615938, 0.6019433153339226],
        [-0.626343247170484, -0.818961295145761],
    ]
    assert uniform_block(stream_bases(2**64 - 1, [5]), 2**40, 3).tolist() == [
        [-0.3756771829993826, 0.08291540146348408, 0.8550815896269763]
    ]
    assert RandomStack(-3, 2**64 - 1).pop() == -0.7428132257725457


_draw = st.one_of(st.integers(0, 2000), st.integers(2**40 - 50, 2**40 + 50))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(-(2**65), 2**65),
    cells=st.lists(st.tuples(st.integers(-(2**64), 2**65), _draw), min_size=1, max_size=12),
    as_int64=st.booleans(),
)
@example(seed=2**64 - 1, cells=[(-1, 0), (-(2**63), 2**40), (2**64 - 1, 0)], as_int64=True)
@example(seed=-5, cells=[(0, 0), (-7, 2**40 - 1), (3, 1)], as_int64=False)
def test_uniforms_at_equals_block_columns_and_pops(seed, cells, as_int64):
    # arbitrary (stream, draw) cells, repeats and any order included
    streams, draws = zip(*cells)
    bases = stream_bases(seed, list(streams))
    index = np.array(draws, dtype=np.int64 if as_int64 else np.uint64)
    got = uniforms_at(bases, index)
    assert got.shape == (len(cells),)
    for u, b, s, k in zip(got.tolist(), bases, streams, draws):
        assert u == uniform_block(np.array([b]), k, 1)[0, 0]
        if k < 2000:  # the scalar stack, popped up to draw k
            stack = RandomStack(seed, s)
            stack.pop_batch(k)
            assert u == stack.pop()


def test_uniforms_at_on_one_cell_is_an_array():
    # a scalar base and draw still go through uint64 arrays: no overflow warning
    base = stream_bases(2**64 - 1, [-1])[0]
    got = uniforms_at(base, 2**40)
    assert got.shape == (1,)
    assert got[0] == uniform_block(np.array([base]), 2**40, 1)[0, 0]


def _unmix64(z):
    """The inverse of rng._mix64: its steps undone in reverse order."""
    def unshift(z, s):  # x ^ x >> s becomes x ^ x >> 2s, then 4s, then 8s >= 64
        for k in (s, 2 * s, 4 * s):
            z ^= z >> k
        return z

    z = unshift(z, 31)
    z = unshift(z * pow(_MIX2, -1, 2**64) & _MASK, 27)
    return unshift(z * pow(_MIX1, -1, 2**64) & _MASK, 30)


def _edge_bases(edges, low=0):
    """Bases of the streams whose draw 0 has 53-bit integer z for each z in
    edges, with `low` in the 11 bits of its SplitMix64 value below z."""
    return np.array([(_unmix64(z << 11 | low) - _GOLDEN) & _MASK for z in edges], dtype=np.uint64)


def test_unit_uniforms_equal_halved_uniforms_to_the_bit():
    # random search's coordinates: z * 2**-53 straight from the 53-bit integer z
    # of a draw.  The streams whose draw 0 has z = 0, 1, 2**52 and 2**53 - 1
    # (draws -1, -1 + 2**-52, 0 and 1 - 2**-52), then many random cells
    assert all(_mix64(_unmix64(z)) == z for z in (0, 1, 2**63, _MASK, 0x1234_5678_9ABC_DEF0))
    edges = [0, 1, 2**52, 2**53 - 1]
    edge_bases = _edge_bases(edges)
    assert uniforms_at(edge_bases, 0).tolist() == [-1.0, -1.0 + 2.0**-52, 0.0, 1.0 - 2.0**-52]
    assert unit_uniforms_at(edge_bases, 0).tolist() == [z * 2.0**-53 for z in edges]
    bases = advance(stream_bases(3, np.arange(50))[:, None], np.arange(40))
    for s, j in ((edge_bases, 0), (bases, 7), (bases[:, :1], np.arange(12)), (bases[3], 2**40)):
        want = (uniforms_at(s, j) + 1.0) / 2.0
        assert unit_uniforms_at(s, j).tobytes() == want.tobytes()


def test_unit_bins_equal_binned_unit_uniforms():
    # random search's screen reads int(x * 4096) from the top 12 bits of a
    # draw's 64-bit value.  The edge streams above, and the ends of bins 0, 1
    # and 4095 of 4096, each with the 11 bits below z clear and set; then the
    # random cells above, at 2, 4096 and 2**53 bins
    edges = [0, 1, 2**52, 2**53 - 1, 2**41 - 1, 2**41, 2**42 - 1, 2**53 - 2**41]
    edge_bases = np.concatenate([_edge_bases(edges), _edge_bases(edges, 2**11 - 1)])
    assert unit_uniforms_at(edge_bases, 0).tolist() == [z * 2.0**-53 for z in edges] * 2
    assert _unit_bins_at(edge_bases, 0, 4096).tolist() == [z >> 41 for z in edges] * 2
    bases = advance(stream_bases(3, np.arange(50))[:, None], np.arange(40))
    for bins in (2, 4096, 2**53):
        for s, j in ((edge_bases, 0), (bases, 7), (bases[:, :1], np.arange(12)), (bases[3], 2**40)):
            want = (unit_uniforms_at(s, j) * bins).astype(np.intp)
            assert _unit_bins_at(s, j, bins).tobytes() == want.tobytes()
