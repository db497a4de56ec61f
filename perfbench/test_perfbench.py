"""Self-tests of the benchmark harness: tracer arithmetic, failure counting
and patch restoration.  They run in well under a second."""
from __future__ import annotations

import types

import pytest

import checks
import layers
import run
import workloads
from spans import Target, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    mod = types.SimpleNamespace()

    def leaf(dt):
        clock.now += dt

    def chunk():
        clock.now += 1.0
        mod.leaf(2.0)
        clock.now += 0.5
        mod.leaf(3.0)

    def outer():
        mod.chunk()
        clock.now += 4.0
        mod.chunk()

    mod.leaf, mod.chunk, mod.outer = leaf, chunk, outer
    targets = [
        Target(mod, "leaf", "t.leaf"),
        Target(mod, "chunk", "t.chunk", record=True, chunk=True),
        Target(mod, "outer", "t.outer", record=True),
        Target(mod, "gone", "t.gone"),  # a binding the package no longer has
    ]
    with tracer.installed(targets):
        mod.outer()

    agg = tracer.aggs
    assert "t.gone" not in agg and not hasattr(mod, "gone")
    assert (agg["t.leaf"].calls, agg["t.leaf"].self_s) == (4, 10.0)
    assert (agg["t.chunk"].calls, agg["t.chunk"].total_s, agg["t.chunk"].self_s) == (2, 13.0, 3.0)
    assert (agg["t.outer"].total_s, agg["t.outer"].self_s) == (17.0, 4.0)
    assert tracer.edges[("t.chunk", "t.leaf")] == 4
    # leaves keep no span; chunk spans carry their own id, the outer span none
    outer_span, first, second = tracer.spans
    assert [s.name for s in tracer.spans] == ["t.outer", "t.chunk", "t.chunk"]
    assert (first.parent, second.parent) == (outer_span.id, outer_span.id)
    assert (first.chunk, second.chunk, outer_span.chunk) == (first.id, second.id, None)
    assert (second.start, second.end) == (10.5, 17.0)


def test_wrappers_restored_after_a_run_that_raises():
    pl = run.load_package()
    targets = layers.all_targets(pl)
    originals = [vars(t.owner)[t.attr] for t in targets]
    pop = pl.rng.RandomStack.pop

    with pytest.raises(ZeroDivisionError):
        with Tracer().installed(targets):
            assert pl.rng.RandomStack.pop is not pop
            pl.rng.RandomStack(1).pop() / 0

    assert all(vars(t.owner)[t.attr] is o for t, o in zip(targets, originals))


def _game_step():
    return workloads.Step("game-n2", ("game", "--n", "2", "--m-max", "5"), "--trials", 4)


def test_corrupted_csv_counts_as_failed(tmp_path):
    pl = run.load_package()
    step = _game_step()
    runner = run.Runner(pl.cli, 3, tmp_path, machine={})
    rc, _, text = runner.run(step)
    runner.check(step, rc, text)
    assert (runner.tally.attempted, runner.tally.failed) == (1, 0)

    lines = text.splitlines()
    fields = lines[2].split(",")
    fields[1] = "1.5"  # a CDF above 1
    lines[2] = ",".join(fields)
    runner.check(step, rc, "\n".join(lines) + "\n", size=step.size)
    runner.check(step, rc, text[:-5])  # truncated: no longer the first run's bytes
    assert (runner.tally.attempted, runner.tally.failed) == (3, 2)
    assert runner.tally.failed / runner.tally.attempted == pytest.approx(2 / 3)


def test_invariants_accept_the_recorded_references():
    for steps in workloads.WORKLOADS.values():
        for step in steps:
            text = (run.REFERENCE_DIR / f"{step.label}.csv").read_text()
            assert checks.invariants(step, step.size, text) == []
            assert checks.against_reference(step, text, text) == []


def test_mi_reference_allows_only_the_stated_float_bound():
    step = next(s for s in workloads.WORKLOADS["info"] if s.command == "mi")
    ref = (run.REFERENCE_DIR / f"{step.label}.csv").read_text()
    header, (row,) = checks.parse(ref)

    def with_mi(delta):
        r = dict(row, mi_bits=repr(float(row["mi_bits"]) + delta))
        return ",".join(header) + "\n" + ",".join(r[c] for c in header) + "\n"

    assert checks.against_reference(step, with_mi(checks.MI_ABS_TOL / 2), ref) == []
    assert checks.against_reference(step, with_mi(checks.MI_ABS_TOL * 4), ref) != []
