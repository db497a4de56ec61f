"""A call tracer that patches names where callers look them up.

A patch target is an (owner, attribute) pair: a module global read by the
calling module (``plateaulab.game.hamming_d``) or a class attribute
(``RandomStack.pop``).  Each wrapped call adds to a per-name aggregate:
call count, total time and self time.  Self time is a call's duration minus
the durations of the wrapped calls made inside it, tracked on a stack, so
memory stays bounded however many leaf calls a run makes.  Only targets
marked ``record`` (step, dispatch and chunk level) also keep a full span:
name, start, end, parent span and chunk id.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Target:
    owner: object  # module or class that holds the binding
    attr: str
    name: str  # metric name, "<layer>.<function>"
    record: bool = False  # keep a full span, not only the aggregate
    chunk: bool = False  # a span of this name starts a new chunk id
    hook: Optional[Callable] = None  # hook(counters, args, result)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    chunk: Optional[int]


@dataclass
class Agg:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    aggs: dict = field(default_factory=dict)  # name -> Agg
    edges: Counter = field(default_factory=Counter)  # (parent name, name) -> calls
    counters: Counter = field(default_factory=Counter)  # hook-derived counts
    spans: list = field(default_factory=list)  # Span, recorded targets only
    _stack: list = field(default_factory=list)  # open frames
    _chunk: Optional[int] = None

    def wrap(self, target: Target, fn: Callable) -> Callable:
        name, record, chunk, hook = target.name, target.record, target.chunk, target.hook
        agg = self.aggs.setdefault(name, Agg())
        stack, edges, clock = self._stack, self.edges, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            edges[(parent[0] if parent else None, name)] += 1
            span_id = None
            outer_chunk = self._chunk
            if record:
                span_id = len(self.spans)
                self.spans.append(None)  # placeholder keeps ids in start order
                if chunk:
                    self._chunk = span_id
            # frame: name, start, time covered by children, span id
            frame = [name, 0.0, 0.0, span_id]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                agg.calls += 1
                agg.total_s += dur
                agg.self_s += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if record:
                    parent_span = next(
                        (f[3] for f in reversed(stack) if f[3] is not None), None
                    )
                    self.spans[span_id] = Span(
                        span_id, name, start, end, parent_span, self._chunk
                    )
                    self._chunk = outer_chunk
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets: list[Target]):
        """Patch every target that exists for the duration of the block;
        always restore.  A binding the package no longer has is skipped."""
        saved = []
        try:
            for t in targets:
                if t.attr not in vars(t.owner):
                    continue
                original = vars(t.owner)[t.attr]
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self.wrap(t, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """Call counts and counters so far, for per-step deltas."""
        return {
            "calls": Counter({k: a.calls for k, a in self.aggs.items()}),
            "count": Counter(self.counters),
        }


def delta(before: dict, after: dict) -> dict:
    """Calls and counters added between two snapshots."""
    return {k: after[k] - before[k] for k in ("calls", "count")}
