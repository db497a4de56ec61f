#!/usr/bin/env python3
"""Benchmark of the plateaulab command line, end to end and layer by layer.

    python3 perfbench/run.py --workload game --seed 7 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 7     # every workload, one table

The package is imported from ``src/`` of the checkout that holds this file;
nothing is installed.  Each step of a workload calls
``plateaulab.cli.main(argv)`` in this process with ``--format csv`` into a
scratch file under ``.perfbench_out/``, and every output is checked.

``--trace 0`` reports the end-to-end metrics, measured untraced in rounds
until ``--seconds`` are spent: trials_per_s (workers 1) and trials_per_s_w2
(workers 2) are summed trials over summed per-step median wall times;
setup_s is the median wall time of fresh interpreters, one per round, that
import plateaulab and run a 1-trial version of each step; peak_rss_mb is
this process's peak resident memory after the first workers-1 pass.  Every
wall time is scaled to the reference host speed by a calibration kernel
timed around it (see ``scaled``); the unscaled figures are printed too.
``--trace 1`` reports the per-layer metrics of layers.py from traced passes.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import checks
import layers
import workloads
from spans import Tracer, delta

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_DIR = HERE / "reference"

MIN_ROUNDS = 3  # timed rounds per run, however short --seconds is
CHILD_TIMEOUT_S = 120
# calibration_s() on the reference machine when its host is not contended
CALIBRATION_REF_S = 0.0015

END_TO_END = [
    ("trials_per_s", "trials/s"),
    ("trials_per_s_w2", "trials/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# A fresh interpreter's set-up: import the package, then run each argv list.
SETUP_CHILD = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from plateaulab import cli\n"
    "print(json.dumps([cli.main(a) for a in json.loads(sys.argv[2])]))\n"
)


def calibration_s() -> float:
    """Wall time of a fixed pure-Python and small-array kernel.

    It touches no plateaulab code, so it tracks only how fast the host runs
    at the moment: on a shared host that speed drifts by tens of percent
    within minutes.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    a = np.arange(8, dtype=np.float64)
    for _ in range(300):
        a = np.mod(a * 1.0001 + 0.5, 1.0)
    return time.perf_counter() - t0


def scaled(fn):
    """(result, wall s, wall s at reference host speed) of fn().

    The scale is CALIBRATION_REF_S over the mean calibration time taken
    just before and just after the call.
    """
    before = calibration_s()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    speed = CALIBRATION_REF_S / ((before + calibration_s()) / 2)
    return result, wall, wall * speed


def load_package():
    """Import plateaulab from this checkout's src/, refusing any other copy."""
    if not (SRC / "plateaulab" / "__init__.py").is_file():
        raise SystemExit(f"error: no plateaulab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import plateaulab
    import plateaulab.cli

    if not Path(plateaulab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported plateaulab from {plateaulab.__file__}, not {SRC}")
    return plateaulab


@dataclass
class Tally:
    """Steps attempted and failed; a failed step keeps its problems."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


@dataclass
class Runner:
    """Runs steps of one workload at one seed and checks what they write."""

    cli: object
    seed: int
    scratch: Path
    machine: dict
    tally: Tally = field(default_factory=Tally)
    canonical: dict = field(default_factory=dict)  # label -> first CSV text

    def run(self, step, workers: int = 1, size: int | None = None):
        """(exit code or error, wall seconds, CSV text) of one step."""
        out = self.scratch / f"{step.label}-w{workers}.csv"
        out.unlink(missing_ok=True)
        argv = step.cli_argv(self.seed, workers, str(out), size)
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse refused the argv
            rc = exc.code
        except Exception as exc:  # a crash fails the step; the run goes on
            rc = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        return rc, wall, out.read_text() if out.exists() else ""

    def check(self, step, rc, text: str, size: int | None = None, extra=()) -> None:
        """Tally one step: exit 0 or 1 with a valid report completes it.

        The first full-size output of a step is checked against the
        invariants (and the reference, at the pinned seed); every later one
        must repeat it byte for byte, whatever the worker count or tracing.
        """
        problems = list(extra)
        if rc not in (0, 1):
            problems.append(f"{step.label}: exit {rc}")
        if size is not None:
            problems += checks.invariants(step, size, text)
        elif step.label not in self.canonical:
            self.canonical[step.label] = text
            problems += checks.invariants(step, step.size, text)
            ref = REFERENCE_DIR / f"{step.label}.csv"
            if self.seed == self.cli.DEFAULT_SEED and not problems:
                problems += (checks.against_reference(step, text, ref.read_text())
                             if ref.is_file() else [f"{step.label}: no reference recorded"])
        elif text != self.canonical[step.label]:
            problems.append(f"{step.label}: output differs from its first run")
        self.tally.record(problems)

    def warm_up(self, steps) -> None:
        """1-trial steps: fill lazy caches before anything is timed."""
        for step in steps:
            rc, _, text = self.run(step, size=1)
            self.check(step, rc, text, size=1)

    def pass_(self, steps, workers: int) -> dict[str, tuple[float, float]]:
        """Run every step once, in order; (wall s, scaled wall s) per step."""
        walls = {}
        for step in steps:
            (rc, _, text), wall, at_ref = scaled(lambda: self.run(step, workers))
            self.check(step, rc, text)
            walls[step.label] = (wall, at_ref)
        return walls


def setup_time(runner: Runner, steps) -> tuple[float, float]:
    """(wall s, scaled wall s) of a fresh interpreter running the 1-trial steps."""
    argvs = [s.cli_argv(runner.seed, 1, str(runner.scratch / f"setup-{s.label}.csv"), 1)
             for s in steps]
    for argv in argvs:
        Path(argv[-1]).unlink(missing_ok=True)
    proc, wall, at_ref = scaled(lambda: subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(argvs)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    ))
    try:
        codes = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        codes = [f"set-up interpreter exited {proc.returncode}: {proc.stderr[-300:]}"] * len(steps)
    for step, rc, argv in zip(steps, codes, argvs):
        out = Path(argv[-1])
        runner.check(step, rc, out.read_text() if out.exists() else "", size=1)
    return wall, at_ref


def end_to_end(steps, runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    """Rounds of a set-up interpreter, a workers-1 pass and a workers-2 pass,
    until `seconds` are spent; each metric is a median of scaled wall times."""
    runner.warm_up(steps)
    setup: list[tuple[float, float]] = []
    walls = {w: {s.label: [] for s in steps} for w in (1, 2)}
    peak_rss_mb = None
    t_end = time.perf_counter() + seconds
    while len(setup) < MIN_ROUNDS or time.perf_counter() < t_end:
        setup.append(setup_time(runner, steps))
        for workers in (1, 2):
            for label, pair in runner.pass_(steps, workers).items():
                walls[workers][label].append(pair)
            if peak_rss_mb is None:  # the first workers-1 pass sets the peak
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def median(pairs, i=1):  # i = 0: wall s, 1: scaled wall s
        return statistics.median(p[i] for p in pairs)

    trials = sum(s.trials() for s in steps)
    values = {
        "trials_per_s": trials / sum(median(walls[1][s.label]) for s in steps),
        "trials_per_s_w2": trials / sum(median(walls[2][s.label]) for s in steps),
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    lines = [
        f"step {s.label}: {s.trials()} trials, median over {len(setup)} rounds,"
        + "".join(f" workers {w} {median(walls[w][s.label], 0):.4f} s"
                  f" ({median(walls[w][s.label]):.4f} s scaled)" for w in (1, 2))
        for s in steps
    ]
    lines.append(f"setup: median {median(setup, 0):.4f} s ({median(setup):.4f} s scaled)")
    raw_tps = trials / sum(median(walls[1][s.label], 0) for s in steps)
    lines.append(f"unscaled trials_per_s = {raw_tps:.6g} trials/s; host speed"
                 f" {statistics.median(p[1] / p[0] for w in walls.values() for v in w.values() for p in v):.3f}"
                 " of reference (median scale factor)")
    return values, lines


def traced(pl, steps, runner: Runner, workload: str) -> tuple[dict, list[str]]:
    """One untraced pass, one fully traced pass, then dispatch-only passes at
    workers 1 and 2 for chunk times and pool overhead."""
    runner.warm_up(steps)
    untraced_s = {label: wall for label, (wall, _) in runner.pass_(steps, 1).items()}

    full = Tracer()
    traced_s = {}
    with full.installed(layers.all_targets(pl)):
        for step in steps:
            before = full.snapshot()
            rc, wall, text = runner.run(step)
            traced_s[step.label] = wall
            got = delta(before, full.snapshot())
            try:
                want = workloads.derived_counts(step, step.size, checks.parse(text)[1])
                mismatches = count_mismatches(step, got, want)
            except (KeyError, ValueError, IndexError) as exc:
                mismatches = [f"{step.label}: no counts derivable from the output ({exc!r})"]
            runner.check(step, rc, text, extra=mismatches)

    dispatch = {}
    for workers in (1, 2):
        dispatch[workers] = tracer = Tracer()
        with tracer.installed(layers.parallel_targets(pl)):
            runner.pass_(steps, workers)

    spans1, spans2 = dispatch[1].spans, dispatch[2].spans
    chunk_s = [s.end - s.start for s in spans1 if s.chunk == s.id]
    calls1 = [s for s in spans1 if s.name == "parallel.run_chunks"]
    calls2 = [s for s in spans2 if s.name == "parallel.run_chunks"]
    pool_overhead_s = 0.0
    for a, b in zip(calls1, calls2):
        if sum(s.parent == a.id for s in spans1) > 1:  # only a pool can gain
            pool_overhead_s += (b.end - b.start) - (a.end - a.start) / 2
    report_bytes = sum(len(t.encode()) for t in runner.canonical.values())
    overhead = sum(traced_s.values()) / sum(untraced_s.values())
    values = layers.layer_metrics(full, chunk_s, pool_overhead_s, report_bytes, overhead)

    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"trace-{workload}-seed{runner.seed}.json"
    dump.write_text(json.dumps({
        "machine": runner.machine,
        "steps": [{"label": s.label, "untraced_s": untraced_s[s.label],
                   "traced_s": traced_s[s.label]} for s in steps],
        "aggregates": {k: asdict(a) for k, a in full.aggs.items()},
        "counters": dict(full.counters),
        "edges": [[p, n, c] for (p, n), c in full.edges.items()],
        "spans": [asdict(s) for s in full.spans],
        "dispatch_spans_w1": [asdict(s) for s in spans1],
        "dispatch_spans_w2": [asdict(s) for s in spans2],
        "metrics": values,
    }, indent=1))
    lines = [f"step {s.label}: untraced {untraced_s[s.label]:.4f} s, traced {traced_s[s.label]:.4f} s"
             for s in steps]
    lines.append(f"spans and aggregates written to {dump.relative_to(ROOT)}")
    return values, lines


def count_mismatches(step, got: dict, want: dict) -> list[str]:
    """Traced counts that differ from the counts the step's output implies."""
    bad = []
    for key, expected in want.items():
        span, what = key.rsplit(".", 1)
        calls = got["calls"][span]
        if not calls:  # the binding is gone or this step bypasses it
            continue
        value = calls if what == "calls" else got["count"][key]
        lo, hi = expected if isinstance(expected, tuple) else (expected, expected)
        if not lo <= value <= hi:
            bad.append(f"{step.label}: traced {key} = {value}, output implies {expected}")
    return bad


def git_rev() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def machine_facts(loadavg: tuple[float, float, float]) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "plateaulab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": git_rev(),
        "src_sha256": digest.hexdigest(),
        "loadavg_start": loadavg,
        "platform": platform.platform(),
    }


def run_workload(args) -> int:
    loadavg = os.getloadavg()
    pl = load_package()
    steps = workloads.WORKLOADS[args.workload]
    seed = pl.cli.DEFAULT_SEED if args.seed is None else args.seed
    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir()
    runner = Runner(pl.cli, seed, scratch, machine_facts(loadavg))
    try:
        if args.trace:
            values, lines = traced(pl, steps, runner, args.workload)
            names = layers.PER_LAYER
        else:
            values, lines = end_to_end(steps, runner, args.seconds)
            names = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    tally = runner.tally
    print("machine " + json.dumps(runner.machine))
    print(f"workload {args.workload} seed {seed} seconds {args.seconds} trace {args.trace}")
    for line in lines:
        print(line)
    for name, unit in names:
        note = " (workers 2 on a machine with nproc = %d)" % len(os.sched_getaffinity(0)) \
            if name == "trials_per_s_w2" else ""
        print(f"{name} = {values[name]:.6g} {unit}{note}")
    print(f"failed_ratio = {tally.failed / tally.attempted:.6g} ratio"
          f" ({tally.failed} of {tally.attempted} steps failed)")
    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of their metrics."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + 60 + 2 * args.seconds)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(f"\n{'workload':10s} {'metric':34s} {'value':>14s} unit")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:10s} {metric:34s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:10s} {'failed_ratio':34s} {res['failed'] / res['attempted']:14.6g} ratio")
    ok = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for every step (default: plateaulab.cli.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="timed seconds, shared by workers 1 and workers 2 passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
