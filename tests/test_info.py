import math
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plateaulab import info
from plateaulab.circuits import (
    ShiftedProductFunction,
    h_eval,
    h_eval_array,
    shifted_product_rows,
)
from plateaulab.info import (
    LOG2_3,
    InconsistentOracleError,
    Posterior,
    candidate_block,
    candidate_values,
    identification_rates,
    identify_chunk,
    mi_exact_enumeration,
    mi_transcript_chunk,
    omnipotent_identify,
    posterior_update,
    transcript_mi,
)
from plateaulab.oracles import RandomStack
from plateaulab.torus import GridShift, TorusPoint, wrap01_array


def test_uniform_posterior_entropy():
    assert Posterior.uniform(1).entropy_bits() == pytest.approx(LOG2_3)
    assert Posterior.uniform(3).entropy_bits() == pytest.approx(3 * LOG2_3)


def test_posterior_validation():
    with pytest.raises(ValueError):
        Posterior(1, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        Posterior(1, np.array([0.9, 0.2, -0.1]))


def test_candidate_values_ordering():
    # index order is little-endian trit-lexicographic
    x = TorusPoint([0.1, 0.7])
    vals = candidate_values(2, x)
    for idx in range(9):
        a = GridShift.from_index(2, idx)
        assert vals[idx] == pytest.approx(ShiftedProductFunction(2, a)(x))


def test_posterior_update_hand_values():
    prior = Posterior.uniform(1)
    up = posterior_update(prior, TorusPoint([0.0]), +1)
    assert np.allclose(up.probs, [0.5, 0.25, 0.25])
    down = posterior_update(prior, TorusPoint([0.0]), -1)
    assert np.allclose(down.probs, [0.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        posterior_update(prior, TorusPoint([0.0]), 2)


def test_posterior_zero_mass_is_inconsistent():
    # after outcome -1 at x=0, shift 0 has zero weight; another -1 at a
    # point where only shift 0 has positive likelihood empties the posterior
    p = Posterior(1, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(InconsistentOracleError):
        # outcome -1 at x=0 has likelihood (1 - f_0(0))/2 = 0
        posterior_update(p, TorusPoint([0.0]), -1)


def test_identify_unique_at_generic_point():
    x = 0.123
    vals = [h_eval(x), h_eval(x - 1 / 3), h_eval(x - 2 / 3)]
    assert len({round(v, 9) for v in vals}) == 3  # pairwise distinct

    class _OneShot:
        n = 1

        def __call__(self, pt):
            return h_eval(pt.coords[0] - 1 / 3)

    class _FixedSource:
        def pop_batch(self, k):
            return np.array([2 * x - 1.0])

    res = omnipotent_identify(1, _OneShot(), _FixedSource(), 1e-9)
    assert res.unique and res.shift == GridShift((1,))
    assert res.argmax == GridShift((1,)).to_point()


def test_identify_ambiguous_at_symmetric_point():
    # f_0(1/6) = f_{1/3}(1/6) = 2/3 by the cosine symmetry h(t) = h(-t)
    class _Oracle:
        n = 1

        def __call__(self, pt):
            return h_eval(pt.coords[0])

    class _FixedSource:
        def pop_batch(self, k):
            return np.array([2 * (1 / 6) - 1.0])

    res = omnipotent_identify(1, _Oracle(), _FixedSource(), 1e-9)
    assert not res.unique
    assert {s.trits for s in res.ambiguous} == {(0,), (1,)}


def test_identify_inconsistent_oracle():
    class _Alien:
        n = 1

        def __call__(self, pt):
            return 0.987654  # not in the family's value set at generic points

    with pytest.raises(InconsistentOracleError):
        omnipotent_identify(1, _Alien(), RandomStack(2), 1e-9)


def test_identification_rates_small():
    ur, cr, amb = identification_rates(2, 2000, 1e-9, seed=14)
    assert ur == 1.0 and cr == 1.0 and amb == 0


def test_mi_zero_queries():
    assert transcript_mi(2, "uniform", 0, 100, seed=0) == (0.0, 0.0)


def test_mi_hand_value_small_scale():
    mi, stderr = transcript_mi(1, ("fixed", (0.0,)), 1, 20_000, seed=3)
    exact = LOG2_3 - 4 / 3
    assert abs(mi - exact) <= 4 * stderr


def test_mi_exact_enumeration_hand_value():
    assert mi_exact_enumeration(1, [TorusPoint([0.0])]) == pytest.approx(
        LOG2_3 - 4 / 3, abs=1e-12
    )
    assert mi_exact_enumeration(1, []) == 0.0


def test_mi_monte_carlo_matches_enumeration_tiny_cases():
    for pts in ([TorusPoint([0.2])], [TorusPoint([0.1]), TorusPoint([0.4])]):
        # the batched kernel, asking the fixed sequence
        points = np.array([x.array() for x in pts])
        hs = info._transcript_entropies(1, points, len(pts), 0, 40_000, 8)
        mi_mc, se = LOG2_3 - hs.mean(), hs.std() / math.sqrt(len(hs))
        mi_ex = mi_exact_enumeration(1, pts)
        assert abs(mi_mc - mi_ex) <= 4 * max(se, 1e-6)


def test_mi_monotone_in_m():
    mi5, se5 = transcript_mi(2, "uniform", 5, 5000, seed=10)
    mi6, se6 = transcript_mi(2, "uniform", 6, 5000, seed=10)
    assert mi6 >= mi5 - 3 * math.hypot(se5, se6)


def test_mi_information_range():
    mi, se = transcript_mi(3, "uniform", 8, 2000, seed=1)
    assert -3 * se <= mi <= 3 * LOG2_3 + 3 * se


def test_mi_caps():
    match = r"posterior cap 8: .* Bayes step over all 3\^9 = 19683 shifts"
    with pytest.raises(ValueError, match=match):
        transcript_mi(9, "uniform", 1, 10, seed=0)


def test_mi_refuses_a_callable_strategy():
    def strat(round_idx, stack, outcomes):
        return TorusPoint([0.2])

    for workers in (1, 2):
        with pytest.raises(ValueError, match="unknown strategy spec"):
            transcript_mi(1, strat, 2, 2500, seed=0, workers=workers)


def test_mi_workers_invariance():
    a = transcript_mi(2, "uniform", 4, 2500, seed=6, workers=1)
    b = transcript_mi(2, "uniform", 4, 2500, seed=6, workers=2)
    assert a == b


# --- batched paths against their per-trial references ------------------------

# coordinates in [0, 1), with the grid points and the ties between them
_coord = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.sampled_from([0.0, 1 / 3, 2 / 3, 1 / 6, 0.5, 5 / 6]),
)
# ... and the floats just below them, where an unwrapped x_j - a_j rounds
# differently from a wrapped one
_coord_or_below = st.one_of(
    _coord,
    st.sampled_from([math.nextafter(c, 0.0) for c in (1 / 3, 2 / 3, 1.0, 1 / 6, 0.5, 5 / 6)]),
)
_seed = st.integers(-(2**65), 2**65)


def _points(n, rows, coord=_coord):
    return st.lists(
        st.lists(coord, min_size=n, max_size=n), min_size=rows, max_size=rows
    ).map(lambda p: np.array(p, dtype=np.float64).reshape(rows, n))


def _gathered_candidate_values(points):
    """Reference: one np.prod over a gathered 3**n x n table of h values per point."""
    n = points.shape[1]
    idx = np.arange(3**n)
    trits = np.stack([(idx // 3**j) % 3 for j in range(n)], axis=1)
    out = []
    for x in points:
        htab = h_eval_array(wrap01_array(x[:, None] - np.arange(3)[None, :] / 3))
        out.append(np.prod(htab[np.arange(n)[None, :], trits], axis=1))
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), rows=st.integers(1, 4))
def test_candidate_block_equals_product_gather(data, n, rows):
    points = data.draw(_points(n, rows))
    got = candidate_block(points)
    assert got.shape == (rows, 3**n)
    assert np.array_equal(got, _gathered_candidate_values(points))
    assert candidate_block(points[:0]).shape == (0, 3**n)
    assert np.array_equal(candidate_values(n, TorusPoint(points[0])), got[0])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), rows=st.integers(1, 4))
def test_candidate_block_equals_scalar_oracle_for_every_shift(data, n, rows):
    points = data.draw(_points(n, rows, _coord_or_below))
    got = candidate_block(points)
    for a in range(3**n):
        f = ShiftedProductFunction(n, GridShift.from_index(n, a))
        assert got[:, a].tolist() == [f(TorusPoint(x)) for x in points]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), rows=st.integers(1, 5))
def test_shifted_product_rows_equal_scalar_calls(data, n, rows):
    points = data.draw(_points(n, rows))
    trits = np.array(
        data.draw(st.lists(st.integers(0, 2), min_size=n * rows, max_size=n * rows))
    ).reshape(rows, n)
    want = [
        ShiftedProductFunction(n, GridShift(tuple(int(t) for t in a)))(TorusPoint(x))
        for x, a in zip(points, trits)
    ]
    assert np.array_equal(shifted_product_rows(points, trits), want)
    # points in an (a, b, n) block, with one trit row per point
    block = np.stack([points, points[::-1]])
    assert np.array_equal(
        shifted_product_rows(block, np.stack([trits, trits[::-1]])), [want, want[::-1]]
    )
    # one (n,) shift for every point, and eval_array, which calls it
    f = ShiftedProductFunction(n, GridShift(tuple(int(t) for t in trits[0])))
    one = [f(TorusPoint(x)) for x in points]
    assert np.array_equal(shifted_product_rows(points, trits[0]), one)
    assert np.array_equal(shifted_product_rows(block, trits[0]), [one, one[::-1]])
    assert np.array_equal(f.eval_array(points), one)


def test_h_eval_array_matches_scalar_bits():
    # identify's ties at tol hang on np.cos giving math.cos's bits
    t = (RandomStack(5).pop_batch(200_000) + 1.0) / 2.0
    t = np.concatenate([t, t - 1 / 3, t - 2 / 3, np.arange(0, 13) / 12])
    assert np.array_equal(h_eval_array(t), [h_eval(v) for v in t.tolist()])


def _per_trial_identify_counts(n, tol, start, count, seed):
    """Reference: one RandomStack, hidden-shift draw and omnipotent_identify per trial."""
    unique = correct = ambiguous = 0
    for trial in range(start, start + count):
        stack = RandomStack(seed, trial)
        hidden = GridShift.from_index(n, stack.pop_index(3**n))
        res = omnipotent_identify(n, ShiftedProductFunction(n, hidden), stack, tol)
        if res.unique:
            unique += 1
            correct += res.shift == hidden
        else:
            ambiguous += 1
    return [unique, correct, ambiguous]


def _or_inconsistent(fn, *args):
    try:
        return fn(*args)
    except InconsistentOracleError:
        return "inconsistent"


def test_omnipotent_identify_at_the_smallest_tol():
    # candidate values equal the oracle's to the bit, so the hidden shift
    # matches at any positive tol
    for s in range(300):
        stack = RandomStack(s)
        hidden = GridShift.from_index(4, stack.pop_index(3**4))
        res = omnipotent_identify(4, ShiftedProductFunction(4, hidden), stack, tol=5e-324)
        assert res.shift == hidden


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    tol=st.one_of(
        st.sampled_from([1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.3]),
        st.floats(1e-12, 1.0),
    ),
    seed=_seed,
    start=st.integers(0, 10**6),
    count=st.integers(0, 80),
)
def test_identify_chunk_equals_per_trial_identification(n, tol, seed, start, count):
    got = _or_inconsistent(lambda *a: identify_chunk(*a).tolist(), n, tol, start, count, seed)
    assert got == _or_inconsistent(_per_trial_identify_counts, n, tol, start, count, seed)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 8),
    m=st.integers(0, 10),
    queries=st.sampled_from(["uniform", "fixed", "distinct"]),
    seed=_seed,
    start=st.integers(0, 10**6),
    count=st.integers(0, 30),
)
def test_batched_transcript_entropies_equal_scalar_loop(data, n, m, queries, seed, start, count):
    # the CLI's point at every query, or m drawn points, one per query
    spec = ("fixed", tuple(data.draw(_points(n, 1))[0])) if queries == "fixed" else "uniform"
    points = info._query_points(spec, n, m)
    if queries == "distinct":
        points = data.draw(_points(n, m))
    got = info._transcript_entropies(n, points, m, start, count, seed)
    want = info._transcript_entropies_scalar(n, points, m, start, count, seed)
    # the same float operations in the same order: equal to the bit
    assert got.shape == (count,) and np.array_equal(got, want)
    if queries != "distinct":
        h = want.tolist()
        sums = [reduce(add, h, 0.0), reduce(add, [v * v for v in h], 0.0)]
        assert mi_transcript_chunk(n, spec, m, start, count, seed).tolist() == sums


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 4),
    rows=st.integers(1, 3),
    m=st.integers(0, 10),
    queries=st.sampled_from(["uniform", "fixed", "distinct"]),
    tol=st.sampled_from([1e-12, 1e-9, 0.05]),
    seed=_seed,
    start=st.integers(0, 10**6),
    count=st.integers(0, 12),
)
def test_small_sub_blocks_equal_per_trial_loops(data, n, rows, m, queries, tol, seed, start, count):
    # BLOCK_BYTES of `rows` posterior rows: a new sub-block every 1-3 trials,
    # and each sub-block's queries split into groups of 1-6 (3**(n-1) // n)
    spec = ("fixed", tuple(data.draw(_points(n, 1))[0])) if queries == "fixed" else "uniform"
    points = data.draw(_points(n, m)) if queries == "distinct" else info._query_points(spec, n, m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(info, "BLOCK_BYTES", rows * 8 * 3**n)
        assert info._block_rows(n) == rows
        got = info._transcript_entropies(n, points, m, start, count, seed)
        counts = _or_inconsistent(lambda *a: identify_chunk(*a).tolist(), n, tol, start, count, seed)
    want = info._transcript_entropies_scalar(n, points, m, start, count, seed)
    assert got.shape == (count,) and np.array_equal(got, want)
    assert counts == _or_inconsistent(_per_trial_identify_counts, n, tol, start, count, seed)


@st.composite
def _weight_rows(draw):
    """Rows of unnormalised weights, at least one of each kind: all positive,
    holding zeros, and a single positive entry."""
    size = draw(st.integers(2, 12))
    kinds = draw(st.lists(st.sampled_from(["positive", "zeros", "single"]), max_size=6))
    out = []
    for kind in draw(st.permutations(["positive", "zeros", "single"] + kinds)):
        row = draw(st.lists(st.one_of(st.floats(1e-150, 1.0), st.sampled_from([1 / 3, 0.5])),
                            min_size=size, max_size=size))
        if kind == "zeros":  # at least one zero and one positive entry
            zeros = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=size - 1))
            row = [0.0 if j in zeros else w for j, w in enumerate(row)]
        elif kind == "single":
            keep = draw(st.integers(0, size - 1))
            row = [w if j == keep else 0.0 for j, w in enumerate(row)]
        out.append(row)
    return np.array(out)


@settings(max_examples=100, deadline=None)
@given(weights=_weight_rows())
def test_row_entropies_equal_per_row_entropy(weights):
    def entropy(w):
        p = w / w.sum()
        p = p[p > 0]
        return -np.sum(p * np.log2(p))

    want = [entropy(w) for w in weights]
    assert info._row_entropies(weights).tolist() == want


def test_mi_chunk_rejects_bad_specs():
    with pytest.raises(ValueError, match="wrong dimension"):
        mi_transcript_chunk(2, ("fixed", (0.1,)), 3, 0, 5, 0)
    with pytest.raises(ValueError, match="unknown strategy"):
        mi_transcript_chunk(2, "grid", 3, 0, 5, 0)


def _per_sequence_exact_mi(n, points):
    """Reference: one likelihood vector and one entropy per outcome sequence."""
    size = 3**n
    vals = [candidate_values(n, x) for x in points]
    mi = 0.0
    for mask in range(2 ** len(points)):
        lik = np.ones(size)
        for i, v in enumerate(vals):
            y = 1 if (mask >> i) & 1 else -1
            lik *= (1.0 + y * v) / 2.0
        p_seq = 1.0 / size * lik.sum()
        if p_seq <= 0.0:
            continue
        post = lik / lik.sum()
        post = post[post > 0]
        mi += p_seq * (n * LOG2_3 - float(-np.sum(post * np.log2(post))))
    return mi


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), m=st.integers(1, 8))
def test_mi_exact_enumeration_equals_per_sequence_loop(data, n, m):
    # grid points give outcome sequences of zero likelihood
    points = [TorusPoint(x) for x in data.draw(_points(n, m))]
    assert mi_exact_enumeration(n, points) == _per_sequence_exact_mi(n, points)


@pytest.mark.parametrize("n", [4, 5])
def test_mi_exact_enumeration_across_blocks_equals_per_sequence_loop(n):
    # 2**8 outcome sequences span two blocks at n = 4 and four at n = 5
    assert 2**8 > info._block_rows(n)
    stack = RandomStack(23)
    points = [TorusPoint((stack.pop_batch(n) + 1.0) / 2.0) for _ in range(7)]
    points.append(GridShift.from_index(n, 5).to_point())
    assert mi_exact_enumeration(n, points) == _per_sequence_exact_mi(n, points)


@pytest.mark.parametrize("n, m", [(3, 6), (4, 4), (2, 10)])
def test_mi_matches_mean_exact_enumeration_over_uniform_queries(n, m):
    # uniform queries do not depend on C, so averaging the exact MI of
    # uniformly drawn query sequences estimates the same MI with the
    # outcome noise summed out (Rao-Blackwell)
    stack = RandomStack(17)
    exact = [
        mi_exact_enumeration(n, [TorusPoint((stack.pop_batch(n) + 1.0) / 2.0) for _ in range(m)])
        for _ in range(400)
    ]
    rb, rb_se = np.mean(exact), np.std(exact, ddof=1) / math.sqrt(len(exact))
    mc, mc_se = transcript_mi(n, "uniform", m, 20_000, seed=18)
    assert abs(mc - rb) <= 4 * math.hypot(rb_se, mc_se)

