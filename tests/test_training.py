import pytest

from plateaulab.circuits import ShiftedProductFunction
from plateaulab.oracles import RandomStack
from plateaulab.torus import GridShift
from plateaulab.training import (
    default_alpha,
    divergence_experiment,
    exit_time_experiment,
    run_trainer,
    trainer_sweep,
)


def _f(n, trits=None):
    return ShiftedProductFunction(n, GridShift(tuple(trits) if trits else (0,) * n))


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
    f = _f(5, (0, 2, 1, 1, 0))
    fast = run_trainer("random", f, 0.7, 4000, RandomStack(42, 7))
    slow = run_trainer("random", f, 0.7, 4000, RandomStack(42, 7), record_transcript=True)
    assert (fast.queries_total, fast.succeeded, fast.first_exit, fast.output) == (
        slow.queries_total,
        slow.succeeded,
        slow.first_exit,
        slow.output,
    )


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
