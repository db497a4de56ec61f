import numpy as np
from hypothesis import given, settings, strategies as st

from plateaulab.rng import RandomStack, stream_bases, uniform_block


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
