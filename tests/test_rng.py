import numpy as np

from plateaulab.rng import RandomStack


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
