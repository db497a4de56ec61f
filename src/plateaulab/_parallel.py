"""Trial chunking with an optional process pool.

run_chunks(fn, args, trials, seed, workers) cuts trials [0, trials) into
chunks of min(TRIAL_CHUNK, ceil(trials / pool_size)) trials and adds
fn(*args, start, count, seed)'s new result for each, in chunk order, with
`+=` into the first.  Boundaries depend on the pool size, so results must
merge exactly: counts and histograms sum, row and per-trial value lists
concatenate (floats are summed after the merge).  Each trial owns its
random stream, so the result is identical for any number of workers.

The pool is started once per process, at the first call that fans out,
and later calls reuse it; it is replaced only when a call needs a
different number of processes, and dropped when one of its workers dies
(that call raises ``BrokenProcessPool``; the next one starts a fresh
pool).  Its workers fork at that first parallel call, so later changes to
module state (a monkeypatched function, say) are not seen by them.  A
pool holds no more processes than this process may run on CPUs.
"""
from __future__ import annotations

import functools
import operator
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

TRIAL_CHUNK = 1000

_pool: ProcessPoolExecutor | None = None
_pool_size = 0
_pool_lock = threading.Lock()  # guards the check-then-create of _pool


def pool_size(workers: int, cpus: int) -> int:
    """Processes to run `workers` on: more than `cpus` would only take turns."""
    return max(1, min(workers, cpus))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _shared_pool(size: int) -> ProcessPoolExecutor:
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool_size != size:
            if _pool is not None:
                _pool.shutdown()
            _pool, _pool_size = ProcessPoolExecutor(max_workers=size), size
        return _pool


def _drop_pool(pool: ProcessPoolExecutor) -> None:
    global _pool
    with _pool_lock:
        if _pool is pool:
            _pool = None
    pool.shutdown(wait=False)


def run_chunks(fn, args: tuple, trials: int, seed: int, workers: int = 1):
    """fn(*args, start, count, seed) on each chunk of [0, trials), fanned
    out if asked; the results added left to right in chunk order."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    size = pool_size(workers, _usable_cpus()) if workers > 1 else 1
    step = min(TRIAL_CHUNK, -(-trials // size))
    chunks = [(*args, s, min(step, trials - s), seed) for s in range(0, trials, step)]
    if size == 1 or len(chunks) == 1:
        results = [fn(*chunk) for chunk in chunks]
    else:
        pool = _shared_pool(size)
        try:
            futures = [pool.submit(fn, *chunk) for chunk in chunks]
            results = [f.result() for f in futures]
        except BrokenProcessPool:
            _drop_pool(pool)
            raise
    return functools.reduce(operator.iadd, results)  # into the first result: lists grow linearly
