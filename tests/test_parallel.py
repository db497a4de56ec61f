import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from plateaulab import _parallel
from plateaulab._parallel import pool_size, run_chunks
from plateaulab.cli import EXIT_INTERNAL_ERROR, EXIT_OK, main

SRC = Path(__file__).resolve().parent.parent / "src"

needs_two_cpus = pytest.mark.skipif(
    _parallel._usable_cpus() < 2, reason="a pool needs at least 2 usable CPUs"
)


def _pid_after(seconds):
    time.sleep(seconds)  # long enough for every worker to take a chunk
    return os.getpid()


def _worker_pids(workers=2):
    return set(run_chunks(_pid_after, [(0.1,)] * 6, workers))


@given(st.integers(-3, 70), st.integers(1, 64))
def test_pool_size_never_exceeds_cpus(workers, cpus):
    size = pool_size(workers, cpus)
    assert 1 <= size <= cpus
    assert size == (min(workers, cpus) if workers >= 1 else 1)


def test_one_chunk_or_one_worker_runs_in_process():
    assert run_chunks(os.getpid, [()], 2) == [os.getpid()]
    assert run_chunks(os.getpid, [(), ()], 1) == [os.getpid()] * 2


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
