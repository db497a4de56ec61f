import math
import os
import signal
import subprocess
import sys
import time
from functools import reduce
from operator import add
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from plateaulab import _parallel
from plateaulab._parallel import TRIAL_CHUNK, pool_size, run_chunks
from plateaulab.cli import EXIT_INTERNAL_ERROR, EXIT_OK, main
from plateaulab.info import identification_rates

SRC = Path(__file__).resolve().parent.parent / "src"

needs_two_cpus = pytest.mark.skipif(
    _parallel._usable_cpus() < 2, reason="a pool needs at least 2 usable CPUs"
)


def _pid_after(seconds, start, count, seed):
    time.sleep(seconds)  # long enough for every worker to take a chunk
    return [os.getpid()]


def _worker_pids(workers=2):
    return set(run_chunks(_pid_after, (0.1,), 6 * TRIAL_CHUNK, 0, workers))


def _chunk(tag, start, count, seed):
    return [(tag, start, count, seed)]


@pytest.mark.parametrize("trials", [0, -5])
def test_run_chunks_refuses_no_trials(trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_chunks(_partial, (), trials, 0)


def _partial(start, count, seed):
    # chunks 1 and 2 cancel and round away the low bits of the sum before
    # them, so a sum in another order mostly differs
    return {1: 1e16, 2: -1e16}.get(start // TRIAL_CHUNK, 1.0 + count / 3 + seed / 10)


@given(st.integers(-3, 70), st.integers(1, 64))
def test_pool_size_never_exceeds_cpus(workers, cpus):
    size = pool_size(workers, cpus)
    assert 1 <= size <= cpus
    assert size == (min(workers, cpus) if workers >= 1 else 1)


@settings(max_examples=40, deadline=None)
@given(
    trials=st.integers(1, 3500),
    workers=st.integers(1, 3),
    cpus=st.integers(1, 3),
    seed=st.integers(-5, 5),
)
@example(trials=100, workers=2, cpus=2, seed=0)
@example(trials=1001, workers=3, cpus=3, seed=1)
@example(trials=2500, workers=2, cpus=2, seed=-1)
def test_run_chunks_covers_trials_in_chunk_order(trials, workers, cpus, seed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_parallel, "_usable_cpus", lambda: cpus)
        chunks = run_chunks(_chunk, ("t",), trials, seed, workers)
        total = run_chunks(_partial, (), trials, seed, workers)
    assert all(tag == "t" and s == seed for tag, _, _, s in chunks)
    # consecutive chunks from 0 of one size, the last one possibly shorter:
    # one chunk per pool process, but never more than TRIAL_CHUNK trials
    ends = [start + count for _, start, count, _ in chunks]
    assert [start for _, start, _, _ in chunks] == [0] + ends[:-1] and ends[-1] == trials
    step = min(TRIAL_CHUNK, math.ceil(trials / min(workers, cpus)))
    assert all(count == step for _, _, count, _ in chunks[:-1])
    assert 0 < chunks[-1][2] <= step
    assert total == reduce(add, [_partial(*c[1:]) for c in chunks])


def test_one_chunk_or_one_worker_runs_in_process():
    assert run_chunks(_pid_after, (0,), 1, 0, 2) == [os.getpid()]
    assert run_chunks(_pid_after, (0,), TRIAL_CHUNK + 1, 0, 1) == [os.getpid()] * 2
    with pytest.MonkeyPatch.context() as patch:  # a pool of one process is no pool
        patch.setattr(_parallel, "_usable_cpus", lambda: 1)
        assert run_chunks(_pid_after, (0,), 2 * TRIAL_CHUNK + 1, 0, 2) == [os.getpid()] * 3


def test_usable_cpus_without_an_affinity_api(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _parallel._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert _parallel._usable_cpus() == 1


@needs_two_cpus
def test_sweep_of_one_fixed_chunk_runs_on_two_processes():
    # 100 trials fit in one TRIAL_CHUNK, yet at --workers 2 they run as 2 x 50
    pids = run_chunks(_pid_after, (0.2,), 100, 0, 2)
    assert len(pids) == 2 and len(set(pids)) == 2 and os.getpid() not in pids


@needs_two_cpus
def test_calls_reuse_one_pool():
    first = _worker_pids()
    pool = _parallel._pool
    second = _worker_pids()
    assert _parallel._pool is pool
    assert second == first
    assert os.getpid() not in first
    assert len(first) == pool_size(2, _parallel._usable_cpus())


@needs_two_cpus
def test_identify_refuses_bad_tol_before_fan_out(monkeypatch):
    def no_pool(size):
        raise AssertionError("a bad tol reached the pool")

    monkeypatch.setattr(_parallel, "_shared_pool", no_pool)
    with pytest.raises(ValueError, match="^tol must be positive$"):
        identification_rates(2, 2500, float("nan"), 0, workers=2)


@needs_two_cpus
def test_broken_pool_fails_one_call_then_recovers(tmp_path, capsys):
    argv = ["game", "--n", "3", "--trials", "2500", "--m-max", "10", "--seed", "5"]
    ref = tmp_path / "w1.csv"
    assert main(argv + ["--workers", "1", "--out", str(ref)]) == EXIT_OK
    assert main(argv + ["--workers", "2", "--out", str(tmp_path / "a.csv")]) == EXIT_OK
    victim = min(_worker_pids())
    os.kill(victim, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:  # the pool reaps its dead worker
        try:
            os.kill(victim, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    else:
        pytest.fail(f"killed worker {victim} was never reaped")

    assert main(argv + ["--workers", "2", "--out", str(tmp_path / "b.csv")]) == EXIT_INTERNAL_ERROR
    assert "error: internal error: BrokenProcessPool" in capsys.readouterr().err
    out = tmp_path / "c.csv"
    assert main(argv + ["--workers", "2", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == ref.read_bytes()


def test_live_pool_does_not_hang_interpreter_exit():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    argv = ["game", "--n", "3", "--trials", "2500", "--workers", "2"]
    proc = subprocess.run([sys.executable, "-m", "plateaulab.cli", *argv],
                          env=env, capture_output=True, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith(b"m,cdf,stderr,bound,exceeded\n")
