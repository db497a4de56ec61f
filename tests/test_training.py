import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plateaulab import training
from plateaulab.circuits import ShiftedProductFunction, h_eval_array, shifted_product_rows
from plateaulab.game import PlateauRegion
from plateaulab.oracles import ClampedFunction, RandomStack, coupled_sample, sample_query
from plateaulab.rng import advance, stream_bases, uniforms_at, unit_uniforms_at
from plateaulab.torus import GridShift, TorusPoint, index_trits, wrap01_array
from plateaulab.training import (
    BINS,
    H_BOUND,
    PSHIFT_SHIFT,
    PSHIFT_STEP,
    SPSA_A,
    SPSA_ALPHA_EXP,
    SPSA_C,
    SPSA_GAMMA_EXP,
    SPSA_STABILITY,
    default_alpha,
    divergence_chunk,
    divergence_experiment,
    exit_time_chunk,
    exit_time_experiment,
    points,
    run_trainer,
    trainer_sweep,
    trainer_trials_chunk,
)


def _f(n, trits=None):
    return ShiftedProductFunction(n, GridShift(tuple(trits) if trits else (0,) * n))


# --- per-query references ----------------------------------------------------
# The three trainers as generators, one query per yield (the answer comes back
# through send), written from the textbook steps rather than from rounds.

def _query_engine(algo, n, stack):
    if algo == "random":
        while True:
            yield TorusPoint((stack.pop_batch(n) + 1.0) / 2.0)
    x = (stack.pop_batch(n) + 1.0) / 2.0
    k = 1
    while True:
        if algo == "spsa":
            ck = SPSA_C / k**SPSA_GAMMA_EXP
            ak = SPSA_A / (k + SPSA_STABILITY) ** SPSA_ALPHA_EXP
            delta = np.where(stack.pop_batch(n) < 0.0, -1.0, 1.0)
            y_plus = yield TorusPoint(x + ck * delta)
            y_minus = yield TorusPoint(x - ck * delta)
            x = np.mod(x + ak * ((y_plus - y_minus) / (2.0 * ck) * delta), 1.0)
        else:
            grad = np.zeros(n)
            for j in range(n):
                e = np.zeros(n)
                e[j] = PSHIFT_SHIFT
                y_plus = yield TorusPoint(x + e)
                y_minus = yield TorusPoint(x - e)
                grad[j] = (y_plus - y_minus) / 2.0
            x = np.mod(x + PSHIFT_STEP * grad, 1.0)
        k += 1


def _trial(n, seed, t):
    stack = RandomStack(seed, t)
    return ShiftedProductFunction(n, GridShift.from_index(n, stack.pop_index(3**n))), stack


def _first_exit(algo, n, m, seed, t):
    """First query outside the hidden plateau within m queries, or None."""
    f, stack = _trial(n, seed, t)
    region = PlateauRegion(n, f.shift)
    engine = _query_engine(algo, n, stack)
    x = next(engine)
    for q in range(1, m + 1):
        outcome = sample_query(f, x, stack)
        if not region.contains(x):
            return q
        x = engine.send(outcome)
    return None


def _diverges(algo, n, m, eta, seed, t):
    f, stack = _trial(n, seed, t)
    fbar = ClampedFunction(f, PlateauRegion(n, f.shift), eta)
    engine = _query_engine(algo, n, stack)
    x = next(engine)
    for _ in range(m):
        out_f, _out_fbar, diverged = coupled_sample(f, fbar, x, stack)
        if diverged:
            return True
        x = engine.send(out_f)
    return False


_chunk_args = dict(
    algo=st.sampled_from(["random", "spsa", "pshift"]),
    n=st.integers(1, 8),
    seed=st.integers(-(2**65), 2**65),
    start=st.integers(0, 2**40),
    count=st.integers(0, 60),
)


def test_run_trainer_validation():
    f = _f(4)
    with pytest.raises(ValueError):
        run_trainer("random", f, 0.5, 0, RandomStack(0))
    with pytest.raises(ValueError):
        run_trainer("random", f, -0.1, 10, RandomStack(0))
    with pytest.raises(ValueError):
        run_trainer("random", f, 2.0, 10, RandomStack(0))
    with pytest.raises(ValueError):
        run_trainer("newton", f, 0.5, 10, RandomStack(0))


def test_default_alpha():
    assert default_alpha(4) == pytest.approx(1 / 9)
    with pytest.raises(ValueError):
        default_alpha(3)


def test_budget_exhaustion():
    # alpha tiny: success needs f within alpha of 1, effectively impossible
    res = run_trainer("random", _f(4), 1e-9, 50, RandomStack(1))
    assert not res.succeeded and res.output is None
    assert res.queries_total == 50


@pytest.mark.parametrize("algo", ["random", "spsa", "pshift"])
def test_trainer_reproducible_and_output_queried(algo):
    f = _f(3, (1, 0, 2))
    runs = [
        run_trainer(algo, f, 1.2, 500, RandomStack(8, 2), record_transcript=True)
        for _ in range(2)
    ]
    a, b = runs
    assert a.queries_total == b.queries_total
    assert a.succeeded == b.succeeded
    assert a.output == b.output
    assert a.transcript.entries == b.transcript.entries
    if a.succeeded:
        assert a.output in a.transcript.points()
        assert f(a.output) >= f.max_value - 1.2
    if a.first_exit is not None:
        assert a.first_exit <= a.queries_total


def test_batched_random_path_matches_query_loop():
    # random search over several lockstep steps of many rounds each (two
    # trials succeed late, two spend the budget), against run_trainer
    rows = trainer_trials_chunk("random", 5, 0.2, 4000, 5, 4, 42)
    for trial, queries, succeeded, first_exit in rows:
        f, stack = _trial(5, 42, trial)
        res = run_trainer("random", f, 0.2, 4000, stack, record_transcript=True)
        assert (queries, succeeded, first_exit) == (
            res.queries_total,
            res.succeeded,
            res.first_exit,
        )
    assert [r[0] for r in rows] == [5, 6, 7, 8]


@settings(max_examples=40, deadline=None)
@given(
    **_chunk_args,
    alpha=st.floats(0.05, 1.95),
    budget=st.integers(1, 40),
)
@example(algo="spsa", n=1, seed=0, start=0, count=60, alpha=0.1, budget=3)  # exits at query 4
# targets 1 - alpha where _cells' floor is min(|r|, |target|):
# -0.5 and -0.95 (every f >= -1/3 hits), and 0.05 (small and positive)
@example(algo="pshift", n=6, seed=3, start=0, count=60, alpha=1.5, budget=40)
@example(algo="spsa", n=8, seed=-7, start=2**40, count=60, alpha=1.95, budget=40)
@example(algo="random", n=8, seed=11, start=0, count=60, alpha=0.95, budget=40)
@example(algo="spsa", n=5, seed=11, start=0, count=60, alpha=0.95, budget=40)
# random search's steps end at queries 1, 3, 7, 15, 31 and the budget: one
# step holds two hits of a trial; a trial's first hit is a step's last cell;
# a trial succeeds at the budget query itself
@example(algo="random", n=3, seed=1, start=0, count=60, alpha=0.5, budget=40)
@example(algo="random", n=3, seed=1, start=0, count=60, alpha=0.5, budget=3)
@example(algo="random", n=4, seed=1, start=0, count=60, alpha=0.6, budget=31)
def test_trainer_chunk_equals_run_trainer(algo, n, seed, start, count, alpha, budget):
    # odd budgets cut an SPSA round, and budgets that are not multiples of
    # 2n cut a parameter-shift round
    rows = trainer_trials_chunk(algo, n, alpha, budget, start, count, seed)
    want = []
    for t in range(start, start + count):
        f, stack = _trial(n, seed, t)
        res = run_trainer(algo, f, alpha, budget, stack)
        want.append((t, res.queries_total, res.succeeded, res.first_exit))
    assert rows == want


@settings(max_examples=40, deadline=None)
@given(**_chunk_args, m=st.integers(0, 40))
def test_exit_time_chunk_equals_first_exit_loop(algo, n, seed, start, count, m):
    want = np.zeros(m, dtype=np.int64)
    for t in range(start, start + count):
        q = _first_exit(algo, n, m, seed, t)
        if q is not None:
            want[q - 1] += 1
    got = exit_time_chunk(algo, n, m, start, count, seed)
    assert got.dtype == np.int64 and np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(**_chunk_args, m=st.integers(0, 40), eta=st.floats(-1.0, 1.0))
@example(algo="spsa", n=8, seed=5, start=0, count=60, m=40, eta=0.0)
@example(algo="pshift", n=6, seed=-3, start=0, count=60, m=40, eta=1.0)
@example(algo="random", n=4, seed=9, start=2**40, count=60, m=40, eta=-1.0)
def test_divergence_chunk_equals_coupled_sample_loop(algo, n, seed, start, count, m, eta):
    want = sum(_diverges(algo, n, m, eta, seed, t) for t in range(start, start + count))
    assert divergence_chunk(algo, n, m, eta, start, count, seed) == want


def test_success_is_magic_checked_against_true_function():
    f = _f(4)
    res = run_trainer("random", f, 1.0, 10_000, RandomStack(3), record_transcript=True)
    if res.succeeded:
        assert f(res.output) >= f.max_value - 1.0
        assert res.output in res.transcript.points()


def test_divergence_experiment_trivial_and_bounded():
    assert divergence_experiment("random", 8, 0, 100, 0.0, seed=0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        divergence_experiment("random", 3, 5, 100, 0.0, seed=0)
    phat, stderr = divergence_experiment("random", 12, 10, 2000, 0.0, seed=6)
    delta = (2 / 3) ** 6
    assert phat <= delta * 10 / 2 + 3 * stderr


@pytest.mark.parametrize("algo", ["random", "spsa", "pshift"])
def test_divergence_at_zero_queries_is_zero(algo):
    # no m = 0 shortcut: the lockstep run asks no query, so none diverges
    assert divergence_experiment(algo, 6, 0, 2500, 0.3, seed=1) == (0.0, 0.0)


def test_divergence_workers_invariance():
    a = divergence_experiment("random", 8, 5, 2500, 0.0, seed=4, workers=1)
    b = divergence_experiment("random", 8, 5, 2500, 0.0, seed=4, workers=2)
    assert a == b


@pytest.mark.parametrize("algo", ["random", "spsa"])
def test_exit_time_cdf_bounded(algo):
    rows = exit_time_experiment(algo, 8, 30, 2000, seed=12)
    assert len(rows) == 30
    assert not any(r.exceeded for r in rows)
    cdfs = [r.cdf for r in rows]
    assert cdfs == sorted(cdfs)  # a CDF is nondecreasing


def test_exit_time_refuses_negative_m_max():
    with pytest.raises(ValueError, match="m_max must be >= 0"):
        exit_time_experiment("random", 5, -1, 10, seed=0)


def test_trainer_sweep_rows_in_trial_order():
    rows = trainer_sweep("random", 4, 0.9, 200, 50, seed=2, workers=1)
    assert [r[0] for r in rows] == list(range(50))
    rows2 = trainer_sweep("random", 4, 0.9, 200, 50, seed=2, workers=2)
    assert rows == rows2


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
@example([0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17, 1.0 - 2.0**-53, -(1.0 - 2.0**-53)])
@example([-1.0, -3.0, 1e6, -1e6 - 0.5, 2.0**52 + 1.0, -(2.0**60), 1.7e308, -1.7e308])
def test_update_wraps_as_np_mod_to_the_bit(x):
    # equal answers make a zero step, so update returns its wrap of x + 0.0,
    # which must be np.mod(x, 1.0) bit for bit on every finite float
    x = np.array([x])
    n = x.shape[1]
    for algo, queries in (("spsa", 2), ("pshift", 2 * n)):
        got = training.update(algo, x, 1, np.ones((1, n)), np.ones((1, queries)))
        assert got.tobytes() == np.mod(x, 1.0).tobytes()


def test_random_points_need_no_wrap():
    # the coordinate-major random step skips points' wrap01_array: draws are
    # multiples of 2**-52 in [-1, 1), so (u + 1) / 2 is exact and in [0, 1)
    edges = np.array([-1.0, -1.0 + 2.0**-52, 1.0 - 2.0**-52])
    u = np.concatenate([edges, RandomStack(5, 3).pop_batch(20_001)]).reshape(-1, 4)
    x = points("random", None, 1, u)
    assert x.min() >= 0.0 and x.max() < 1.0
    assert wrap01_array(x).tobytes() == x.tobytes()
    assert x[0, 0, :3].tolist() == [0.0, 2.0**-53, 1.0 - 2.0**-53]


@settings(max_examples=40, deadline=None)
@given(
    experiment=st.sampled_from(["train", "exit", "diverge"]),
    n=st.integers(1, 8),
    seed=st.integers(-(2**65), 2**65),
    start=st.integers(0, 2**40),
    count=st.integers(1, 12),
    m=st.integers(1, 150),
    alpha=st.floats(0.05, 1.95),
    eta=st.floats(-1.0, 1.0),
    cells=st.integers(1, 40),
)
@example(experiment="train", n=1, seed=3, start=0, count=12, m=150, alpha=0.4, eta=0.0, cells=7)
@example(experiment="train", n=5, seed=8, start=9, count=12, m=150, alpha=1.0, eta=0.0, cells=5)
@example(experiment="train", n=6, seed=2, start=0, count=12, m=150, alpha=1.6, eta=0.0, cells=9)
@example(experiment="exit", n=1, seed=4, start=0, count=12, m=150, alpha=0.5, eta=0.0, cells=3)
@example(experiment="diverge", n=4, seed=1, start=0, count=12, m=150, alpha=0.5, eta=0.9, cells=4)
@example(experiment="diverge", n=1, seed=6, start=5, count=12, m=150, alpha=0.5, eta=-1.0, cells=1)
# train steps where one holds two hits of a trial, where a trial's first hit
# is a step's last cell, and where a trial succeeds at query m itself
@example(experiment="train", n=2, seed=1, start=0, count=12, m=150, alpha=0.3, eta=0.0, cells=5)
@example(experiment="train", n=3, seed=1, start=0, count=12, m=150, alpha=0.5, eta=0.0, cells=5)
@example(experiment="train", n=4, seed=1, start=0, count=12, m=50, alpha=0.6, eta=0.0, cells=5)
def test_random_search_across_many_small_steps(
    experiment, n, seed, start, count, m, alpha, eta, cells
):
    # steps of 1-40 cells: each trial spans many steps, trials finish
    # mid-step, and train steps run where every trial already has its first
    # exit.  alpha >= 1 makes target <= 0, where a cut-short cell still hits.
    ts = range(start, start + count)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "BLOCK_BYTES", 16 * cells)
        if experiment == "train":
            got = trainer_trials_chunk("random", n, alpha, m, start, count, seed)
        elif experiment == "exit":
            got = exit_time_chunk("random", n, m, start, count, seed).tolist()
        else:
            got = divergence_chunk("random", n, m, eta, start, count, seed)
    if experiment == "train":
        want = []
        for t in ts:
            f, stack = _trial(n, seed, t)
            res = run_trainer("random", f, alpha, m, stack)
            want.append((t, res.queries_total, res.succeeded, res.first_exit))
    elif experiment == "exit":
        exits = [_first_exit("random", n, m, seed, t) for t in ts]
        want = [exits.count(q) for q in range(1, m + 1)]
    else:
        want = sum(_diverges("random", n, m, eta, seed, t) for t in ts)
    assert got == want


@pytest.mark.parametrize(("n", "alpha"), [(1, 1e-5), (4, 0.05), (7, 0.6)])
def test_random_search_with_budgets_in_the_thousands(n, alpha):
    # three trials run hundreds to thousands of queries through 64-cell
    # steps; some succeed mid-step, some spend the budget
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "BLOCK_BYTES", 16 * 64)
        rows = trainer_trials_chunk("random", n, alpha, 3000, 40, 3, 17)
    for trial, queries, succeeded, first_exit in rows:
        f, stack = _trial(n, 17, trial)
        res = run_trainer("random", f, alpha, 3000, stack)
        assert (queries, succeeded, first_exit) == (res.queries_total, res.succeeded, res.first_exit)
    assert max(r[1] for r in rows) > 1000


def test_random_exit_time_evaluates_no_f():
    # exit-time reads only inside: neither h nor the product may run
    def refuse(*args, **kwargs):
        raise AssertionError("exit-time evaluated f")

    want = np.zeros(30, dtype=np.int64)
    for t in range(500):
        q = _first_exit("random", 6, 30, 4, t)
        if q is not None:
            want[q - 1] += 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "h_eval_array", refuse)
        got = exit_time_chunk("random", 6, 30, 0, 500, 4)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("algo", training.ALGORITHMS)
@pytest.mark.parametrize(("n", "seed", "count"), [(4, 11, 60), (5, 8, 40), (6, 2, 30)])
def test_every_inside_changes_work_not_results(algo, n, seed, count):
    # the train stop reads only f, so inside after a trial's first exit is
    # work that a target alone skips; eta adds inside at every query and r,
    # but under a target it decides no stop.  Each setting has trials that
    # run on after their first exit
    target = 1.0 - default_alpha(n)
    got = [
        training._lockstep(algo, n, 300, 0, count, seed, target=target, eta=eta)
        for eta in (None, 0.0)
    ]
    (stopped, first), (stopped_all, first_all) = got
    assert np.array_equal(stopped, stopped_all) and np.array_equal(first, first_all)
    assert np.any((first > 0) & ((stopped == 0) | (stopped > first)))


@pytest.mark.parametrize("algo", training.ALGORITHMS)
def test_train_stops_obey_the_first_exit_law(algo):
    # exit-time (no target) and train (target 1 - alpha) on the same draws ask
    # the same queries until either stops, so train's T'_A is exit-time's stop
    # unless train succeeds first.  At the default alpha the target 2 delta
    # exceeds sup |f| on the plateau (below delta), so a success lies outside it.
    kinds = np.zeros(3, dtype=np.int64)  # success after an exit, success first, none
    for n in (4, 5, 6, 8):
        for seed in (3, 29):
            stop_e, first_e = training._lockstep(algo, n, 300, 0, 200, seed)
            assert np.array_equal(stop_e, first_e)
            for alpha in (default_alpha(n), 0.9, 1.3):
                stop, first = training._lockstep(algo, n, 300, 0, 200, seed, target=1.0 - alpha)
                same = (first > 0) | (stop == 0)
                assert np.array_equal(first[same], stop_e[same])
                assert np.all((stop_e[~same] == 0) | (stop_e[~same] > stop[~same]))
                if alpha == default_alpha(n):
                    assert np.all((first[stop > 0] > 0) & (first <= stop)[stop > 0])
                kinds += [np.sum(same & (stop > 0)), np.sum(~same), np.sum(stop == 0)]
    assert np.all(kinds > 0), kinds


# TAIL 0 cuts f coordinate by coordinate to the end; 10**9 multiplies out every
# cell left after coordinate 0 as one block
@pytest.mark.parametrize("tail", [0, training.TAIL, 10**9], ids=["cut", "tail", "block"])
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(-(2**65), 2**65),
    done=st.one_of(st.integers(0, 40), st.integers(0, 2**40)),
    width=st.integers(1, 100),
    # 1/3: |h| >= level on the positive lobe only; below 1/3, on both lobes
    level=st.one_of(st.none(), st.sampled_from([1 / 3, 1.0, np.inf]),
                    st.floats(0.0, 1 / 3, exclude_max=True)),
    answers=st.booleans(),
    shifts=st.lists(st.integers(0, 3**8 - 1), min_size=1, max_size=6),
)
@example(n=8, seed=1, done=0, width=100, level=0.1, answers=False, shifts=[5, 0, 6560, 17])
@example(n=5, seed=2, done=2**40, width=37, level=1 / 3, answers=True, shifts=[242, 1, 100])
@example(n=7, seed=4, done=3, width=60, level=1.0, answers=True, shifts=[0, 2186])
@example(n=1, seed=3, done=7, width=1, level=None, answers=True, shifts=[2])
def test_random_cells_equal_whole_points(tail, n, seed, done, width, level, answers, shifts):
    # random search's advanced streams against the same cells built point by
    # point: draws 1 + (n+1)(done+q) + j of each row's stream, j = 0..n.
    # _lockstep's FAR loop reads x_j as unit_uniforms_at(key, j), and _cells'
    # f is the plain product shifted_product_rows
    rows = len(shifts)
    trits = index_trits(np.array(shifts) % 3**n, n)
    bases = stream_bases(seed, np.arange(rows))
    key = advance(bases[:, None], 1 + (n + 1) * np.arange(done, done + width))
    r = uniforms_at(key, n) if answers else None
    draws = 1 + (n + 1) * np.arange(done, done + width)[:, None] + np.arange(n + 1)
    u = uniforms_at(bases[:, None, None], draws)  # (rows, width, n + 1)
    x = (u[..., :n] + 1.0) / 2.0
    assert unit_uniforms_at(key[..., None], np.arange(n)).tobytes() == x.tobytes()
    if answers:
        assert r.tobytes() == u[..., n].tobytes()
    else:
        assert r is None
    if level is None:
        return
    floor = level if r is None else np.minimum(np.abs(r), level)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "TAIL", tail)
        cell, fc = training._cells(n, key, unit_uniforms_at, trits, floor, training._x_bins)
    f = shifted_product_rows(x, trits[:, None, :]).reshape(-1)
    floor = np.minimum(np.abs(u[..., n]), level).reshape(-1) if answers else level
    decided = np.abs(f) >= floor
    # the survivors ascend within the step's cells and hold every cell with
    # |f| >= floor; they read f there and 0.0 at the rest
    assert np.all(np.diff(cell) > 0) and np.all((cell >= 0) & (cell < rows * width))
    assert np.isin(decided.nonzero()[0], cell).all()
    assert fc.tobytes() == np.where(decided[cell], f[cell], 0.0).tobytes()


def test_shifted_bound_covers_h_in_every_x_bin():
    # random search's screen reads _H_SHIFTED[t, int(x * BINS)] as a bound on
    # |fl(h(wrap01(x - t/3)))|.  Checked for every trit at both ends of every
    # bin of the draws x = z * 2**-53, at x = t/3 and the nearest draws and
    # floats around it, near 0 and 1, and at 8 random draws of every bin
    table = training._H_SHIFTED
    assert table.shape == (3, BINS) and not table.flags.writeable
    assert table[0].tobytes() == H_BOUND.tobytes()  # x - 0.0 == x: no shift
    k = np.arange(BINS)
    rng = np.random.default_rng(32)
    z = np.concatenate([k * 2**41, (k + 1) * 2**41 - 1,
                        (k[:, None] * 2**41 + rng.integers(0, 2**41, (BINS, 8))).reshape(-1)])
    wraps = np.arange(3) / 3.0
    near = np.floor(wraps * 2.0**53)[:, None] + np.arange(-2, 3)  # draws around each t/3
    x = np.concatenate([z * 2.0**-53, near.reshape(-1) * 2.0**-53, wraps,
                        np.nextafter(wraps, 0.0), np.nextafter(wraps, 1.0),
                        [2.0**-53, 1.0 - 2.0**-53, 5e-324]])
    x = x[(x >= 0.0) & (x < 1.0)]
    for t in range(3):
        h = np.abs(h_eval_array(wrap01_array(x - t / 3.0)))
        assert np.all(h <= table[t, (x * BINS).astype(np.intp)]), t
    # the premise of its two-end maximum: the d-bins of one x-bin span at most two
    ends = np.array([k / BINS, np.nextafter((k + 1) / BINS, 0.0)])
    for t in range(3):
        dbin = (wrap01_array(ends - t / 3.0) * BINS).astype(np.intp)
        assert np.all((dbin[1] - dbin[0]) % BINS <= 1)


def test_h_bound_covers_h_in_every_bin():
    # _cells' bound pass reads H_BOUND[int(d * BINS)] as a bound on |fl(h(d))|:
    # checked at both ends of every bin, at h's zeros 1/3 and 2/3, its turning
    # point 1/2 and 1/6, each +-1 ulp, and at 8 random points of every bin
    k = np.arange(BINS)
    ends = np.concatenate([k / BINS, np.nextafter((k + 1) / BINS, 0.0)])
    assert np.array_equal((ends * BINS).astype(np.intp), np.tile(k, 2))  # int(d * BINS) is exact
    special = np.array([1 / 3, 2 / 3, 1 / 2, 1 / 6])
    rng = np.random.default_rng(28)
    d = np.concatenate([ends, special, np.nextafter(special, 0.0), np.nextafter(special, 1.0),
                        ((k[:, None] + rng.random((BINS, 8))) / BINS).reshape(-1)])
    assert np.all(np.abs(h_eval_array(d)) <= H_BOUND[(d * BINS).astype(np.intp)])
    # the margin covers h's float error: H_BOUND[k] exceeds the exact max of
    # |h| on bin k, at one of its ends, by more than h's largest error at any
    # d above (h computed in long double as the exact value)
    pi = np.arccos(np.longdouble(-1.0))

    def exact(t):
        return np.longdouble(1) / 3 + np.longdouble(2) / 3 * np.cos(2 * pi * np.longdouble(t))

    err = np.max(np.abs(h_eval_array(d) - exact(d)))
    top = np.abs(exact(np.arange(BINS + 1) / BINS))
    assert np.all(H_BOUND >= np.maximum(top[:-1], top[1:]) + err)
    assert not H_BOUND.flags.writeable


@pytest.mark.parametrize(
    "chunk, args",
    [
        (trainer_trials_chunk, ("random", 7, default_alpha(7), 3000, 0, 1000, 5)),
        (exit_time_chunk, ("random", 8, 50, 0, 1000, 5)),
        (divergence_chunk, ("random", 6, 10, 0.0, 0, 1000, 5)),
        (divergence_chunk, ("spsa", 12, 10, 0.0, 0, 1000, 5)),
        (exit_time_chunk, ("pshift", 8, 50, 0, 1000, 5)),
        (trainer_trials_chunk, ("pshift", 12, default_alpha(12), 3000, 0, 200, 5)),
        # README's SPSA example at a budget of 1,000, which traces in under a second
        (trainer_trials_chunk, ("spsa", 6, default_alpha(6), 1000, 0, 200, 5)),
        # random search at n = 30, within 16 BLOCK_BYTES: _lockstep counts FAR one
        # coordinate at a time, where a (cells, n) block of draws would peak at 46-49
        (exit_time_chunk, ("random", 30, 50, 0, 1000, 5)),
        (divergence_chunk, ("random", 30, 50, 0.0, 0, 1000, 5)),
        (trainer_trials_chunk, ("random", 30, default_alpha(30), 3000, 0, 1000, 5)),
    ],
)
def test_random_search_chunk_peak_traced_allocation(chunk, args):
    tracemalloc.start()
    try:
        chunk(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 16 if args[1] == 30 else 8
    assert peak <= bound * training.BLOCK_BYTES, peak / training.BLOCK_BYTES


# Exact laws of random search.  Its queries are iid uniform points, so a trial
# succeeds at each query with one probability p, and diverges at each query
# with one probability q.  Each run's deviation from its law is bounded at
# level LAW_BETA; the trial counts and seeds were fixed before the first run.
LAW_BETA = 1e-6
TRAIN_LAW_TRIALS, TRAIN_LAW_SEED, TRAIN_LAW_BUDGET = 4000, 1618, 200_000
TRAIN_LAW_EPS = math.sqrt(math.log(2 / LAW_BETA) / (2 * TRAIN_LAW_TRIALS))  # 0.0426
DIVERGE_LAW_TRIALS, DIVERGE_LAW_SEED = 200_000, 577


def _success_bracket(n, t, bins=4096):
    """[lo, hi] around p = P(f_0(U) >= t) for U uniform on the n-torus, t > 1/3.

    Every factor must then be positive (a negative one has |h| <= 1/3), so
    p = P(Y_1 + ... + Y_n <= L) with Y_j = -log h(U_j) >= 0 and L = -log t,
    and each term's law is closed form: P(Y_j <= y) = G(-y) with
    G(s) = arccos((3e^s - 1)/2)/pi.  Cut [0, L] into equal bins; moving each
    bin's mass to its left end can only raise p, and to its right end only
    lower it.  The n-fold convolution of the bin masses is taken by FFT, with
    a margin far above its rounding error.
    """
    edges = np.linspace(0.0, -math.log(t), bins + 1)
    mass = np.diff(np.arccos((3.0 * np.exp(-edges) - 1.0) / 2.0) / np.pi)
    sums = np.fft.irfft(np.fft.rfft(mass, n * bins) ** n, n * bins)  # P(sum of bin indices = s)
    margin = 1e-9
    return sums[: bins - n + 1].sum() - margin, sums[: bins + 1].sum() + margin


@pytest.mark.parametrize("n", [4, 5])
def test_random_search_success_time_follows_its_exact_law(n):
    # T_A is geometric with p in [lo, hi]: against the empirical CDF with the
    # DKW-Massart bound P(sup_m |F_hat(m) - F(m)| > eps) <= 2 exp(-2 N eps^2)
    alpha = default_alpha(n)
    lo, hi = _success_bracket(n, 1.0 - alpha)
    rows = trainer_sweep("random", n, alpha, TRAIN_LAW_BUDGET, TRAIN_LAW_TRIALS, TRAIN_LAW_SEED,
                         workers=2)
    assert all(succeeded for _, _, succeeded, _ in rows)  # a censored run has chance < e^-70
    times = np.sort([queries for _, queries, _, _ in rows])
    m = np.arange(1, times[-1] + 1)
    cdf = np.searchsorted(times, m, side="right") / TRAIN_LAW_TRIALS
    assert np.max(cdf + np.expm1(m * math.log1p(-hi))) <= TRAIN_LAW_EPS  # F_hat - F_hi
    assert np.max(-np.expm1(m * math.log1p(-lo)) - cdf) <= TRAIN_LAW_EPS  # F_lo - F_hat


def _binomial_tails(count, trials, p):
    """P(X <= count) and P(X >= count) for X ~ Bin(trials, p), from the log
    pmf's recurrence pmf(k+1) / pmf(k) = (trials - k) / (k + 1) * p / (1 - p)."""
    k = np.arange(trials)
    steps = np.log((trials - k) / (k + 1)) + math.log(p / (1 - p))
    pmf = np.exp(trials * math.log1p(-p) + np.concatenate([[0.0], np.cumsum(steps)]))
    return pmf[: count + 1].sum(), pmf[count:].sum()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(("n", "m"), [(4, 10), (5, 30)])
def test_random_search_divergence_follows_its_exact_law(n, m, workers):
    # at eta = 0 a query diverges when it is inside and r lies between 0 and
    # f(x), with probability E[1{inside} |f|] / 2; both factor over the
    # coordinates, with A and B the integrals of |h| over FAR and NEAR
    a = math.sqrt(3) / (3 * math.pi)
    b = 1 / 9 + a
    q = sum(math.comb(n, k) * a**k * b ** (n - k) for k in range(n // 2 + 1, n + 1)) / 2
    rate = 1 - (1 - q) ** m
    phat, _ = divergence_experiment("random", n, m, DIVERGE_LAW_TRIALS, 0.0, DIVERGE_LAW_SEED,
                                    workers)
    count = round(phat * DIVERGE_LAW_TRIALS)
    below, above = _binomial_tails(count, DIVERGE_LAW_TRIALS, rate)
    assert min(below, above) > LAW_BETA / 2, (phat, rate)
