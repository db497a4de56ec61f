"""Fixed-size trial chunking with an optional process pool.

Chunk boundaries never depend on the worker count and every trial owns
its own random stream, so merged results are identical for any number of
workers (floating-point sums included: partials are reduced in chunk
order).

The pool is started once per process, at the first call that fans out,
and later calls reuse it; it is replaced only when a call needs a
different number of processes, and dropped when one of its workers dies
(that call raises ``BrokenProcessPool``; the next one starts a fresh
pool).  Its workers fork at that first parallel call, so later changes to
module state (a monkeypatched function, say) are not seen by them.  A
pool holds no more processes than this process may run on CPUs.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

TRIAL_CHUNK = 1000

_pool: ProcessPoolExecutor | None = None
_pool_size = 0
_pool_lock = threading.Lock()  # guards the check-then-create of _pool


def chunk_ranges(total: int, chunk: int = TRIAL_CHUNK) -> list[tuple[int, int]]:
    return [(s, min(chunk, total - s)) for s in range(0, total, chunk)]


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


def run_chunks(fn, arg_tuples: list[tuple], workers: int = 1) -> list:
    """Apply fn to each args tuple, in order; fan out across processes if asked."""
    size = pool_size(workers, _usable_cpus()) if workers > 1 and len(arg_tuples) > 1 else 1
    if size == 1:
        return [fn(*args) for args in arg_tuples]
    pool = _shared_pool(size)
    try:
        futures = [pool.submit(fn, *args) for args in arg_tuples]
        return [f.result() for f in futures]
    except BrokenProcessPool:
        _drop_pool(pool)
        raise
