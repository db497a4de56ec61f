import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plateaulab.circuits import ShiftedProductFunction
from plateaulab.game import PlateauRegion
from plateaulab.oracles import RandomStack, clamp_to_plateau, coupled_sample, sample_query
from plateaulab.torus import GridShift, TorusPoint
from plateaulab.training import (
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
    fbar = clamp_to_plateau(f, PlateauRegion(n, f.shift), eta)
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
# targets 1 - alpha where shifted_product_rows' floor is min(|r|, |target|):
# -0.5 and -0.95 (every f >= -1/3 hits), and 0.05 (small and positive)
@example(algo="pshift", n=6, seed=3, start=0, count=60, alpha=1.5, budget=40)
@example(algo="spsa", n=8, seed=-7, start=2**40, count=60, alpha=1.95, budget=40)
@example(algo="random", n=8, seed=11, start=0, count=60, alpha=0.95, budget=40)
@example(algo="spsa", n=5, seed=11, start=0, count=60, alpha=0.95, budget=40)
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
