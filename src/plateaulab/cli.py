"""Batch experiment runner.

Each subcommand runs one verification experiment, writes a CSV table or a
JSON report, and exits 0 if every check passed, 1 if a row of a check lies
more than 3 stderr above its bound (one rule for all, _check; an exact check
has stderr 0), 2 on invalid configuration and 3 on an internal error (any
other exception, an OSError included).  Runs are deterministic: the same
argv (including --seed) produces byte-identical CSV regardless of --workers.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import re
import sys
import time
import traceback
from functools import lru_cache

import numpy as np

from . import circuits, game, info, training
from .rng import BLOCK_BYTES, advance, first_indices, stream_bases, uniform_block
from .torus import N_MAX, index_trits

DEFAULT_SEED = 1234567891
SEED_ENV_VAR = "PLATEAULAB_SEED"

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_BAD_CONFIG = 2
EXIT_INTERNAL_ERROR = 3

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return format(v, ".17g")
    if v is None:
        return ""
    return str(v)


def _write_report(report: dict, fmt: str, out: str | None) -> None:
    if fmt == "csv":
        lines = [",".join(report["columns"])]
        for row in report["rows"]:
            lines.append(",".join(_fmt(row[c]) for c in report["columns"]))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report, indent=2, default=str) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _digest(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()


def _report(config: dict, columns: list[str], rows: list[dict], checks: list[dict], t0: float) -> dict:
    return {
        "config": config,
        "config_digest": _digest(config),
        "columns": columns,
        "rows": rows,
        "checks": checks,
        "wall_time_s": time.monotonic() - t0,
    }


def _check(name: str, rows: list[tuple]) -> dict:
    """A check's JSON entry from its (label, value, bound, stderr) rows.  A row fails when
    value > bound + 3 * stderr, and the check passes when none does.  margin_sigmas is the
    least (bound - value) / stderr over the rows with stderr > 0 (the first on a tie: labels
    may be None), worst its label; the first failing row of stderr 0 is worst, with no margin."""
    failed = [(label, s) for label, v, b, s in rows if v > b + 3 * s]
    flat = [label for label, s in failed if s == 0]
    margins = [((b - v) / s, label) for label, v, b, s in rows if s > 0]
    margin, worst = (None, flat[0]) if flat else min(
        margins, key=lambda t: t[0], default=(None, None))
    return {"name": name, "passed": not failed, "margin_sigmas": margin, "worst": worst}


# --- experiments: each returns (columns, rows, checks) -----------------------

def _verify_circuit(args):
    if args.trials < 1 or args.n_max < 1:
        raise ValueError("trials and n_max must be >= 1")
    if not args.tol >= 0:  # NaN too
        raise ValueError("tol must be >= 0")
    if args.n_max > circuits.TENSOR_SIM_CAP:  # before any trial, not at n = cap + 1
        raise ValueError(f"n_max={args.n_max} exceeds statevector cap {circuits.TENSOR_SIM_CAP}"
                         f": a statevector of 2^{args.n_max} amplitudes")
    rows = []
    for n in range(1, args.n_max + 1):
        # trial i pops draws i(n+1) .. i(n+1)+n of stream n: its shift, then x;
        # sub-blocks keep a block's statevectors and per-row draws within BLOCK_BYTES
        base, block = stream_bases(args.seed, [n]), BLOCK_BYTES // (16 * 2**n + 64 * (n + 1))
        max_dev = 0.0
        for s in range(0, args.trials, block):
            bases = advance(base, (n + 1) * np.arange(s, min(s + block, args.trials)))
            trits = index_trits(first_indices(bases, 3**n), n)
            x = (uniform_block(bases, 1, n) + 1.0) / 2.0
            f = circuits.shifted_product_rows(x, trits)
            max_dev = max(max_dev, float(np.abs(circuits.tensor_sim_rows(x, trits) - f).max()))
        rows.append({"n": n, "trials": args.trials, "max_abs_dev": max_dev})
    agreement = [(r["n"], r["max_abs_dev"], args.tol, 0.0) for r in rows]
    anchors = [(x, abs(circuits.single_qubit_sim(x) - circuits.h_eval(x)), 1e-12, 0.0)
               for x in (0.0, 1.0 / 3.0, 2.0 / 3.0)]
    checks = [_check("tensor-vs-analytic-agreement", agreement),
              _check("single-qubit-anchor-values", anchors)]
    return ["n", "trials", "max_abs_dev"], rows, checks


def _bounds(args):
    if not 1 <= args.n_max <= N_MAX:  # before any row: the exact tails grow as 3^n
        raise ValueError(f"n_max must lie in [1, {N_MAX}], got {args.n_max}")
    bs = [game.bounds(n) for n in range(1, args.n_max + 1)]
    rows = [
        {"n": b.n, "delta": b.delta, "p_exact": b.p_exact, "p_hoeffding": b.p_hoeffding}
        for b in bs
    ]
    checks = [
        _check("p-exact-below-hoeffding", [(b.n, b.p_exact, b.p_hoeffding, 0.0) for b in bs]),
        _check("p-exact-below-tight-exponent",
               [(b.n, b.p_exact, float(np.exp(-b.n / 18)), 0.0) for b in bs]),
    ]
    return ["n", "delta", "p_exact", "p_hoeffding"], rows, checks


def _cdf_table(cdf: list[game.CdfRow], check_name: str):
    checks = [_check(check_name, [(r.m, r.cdf, r.bound, r.stderr) for r in cdf])]
    rows = [vars(r).copy() for r in cdf]  # shallow: dataclasses.asdict deep-copies
    return ["m", "cdf", "stderr", "bound", "exceeded"], rows, checks


def _game(args):
    cdf = game.estimate_win_cdf(
        args.n, args.strategy, args.trials, args.m_max, args.seed, args.workers
    )
    return _cdf_table(cdf, "win-cdf-linear-bound")


def _exit_time(args):
    cdf = training.exit_time_experiment(
        args.algo, args.n, args.m_max, args.trials, args.seed, args.workers
    )
    return _cdf_table(cdf, "exit-cdf-bound")


def _train(args):
    if args.alpha is None:
        # set on args so the report's config records the alpha actually used
        args.alpha = training.default_alpha(args.n)  # raises for n <= 3
    results = training.trainer_sweep(
        args.algo, args.n, args.alpha, args.budget, args.trials, args.seed, args.workers
    )
    columns = ["trial", "queries_total", "succeeded", "first_exit"]
    return columns, [dict(zip(columns, r)) for r in results], []


def _diverge(args):
    phat, stderr = training.divergence_experiment(
        args.algo, args.n, args.m, args.trials, args.eta, args.seed, args.workers
    )
    # in the plateau |f| < delta, and the coupled answers differ with probability |f - eta| / 2
    bound = (game.delta_bound(args.n) + abs(args.eta)) * args.m / 2.0
    check = _check("divergence-rate-bound", [(None, phat, bound, stderr)])
    columns = ["n", "m", "trials", "divergence_rate", "stderr", "bound", "exceeded"]
    exceeded = not check["passed"]
    row = dict(zip(columns, (args.n, args.m, args.trials, phat, stderr, bound, exceeded)))
    return columns, [row], [check]


def _mi(args):
    if args.strategy == "fixed":
        if not args.point:
            raise ValueError("--strategy fixed requires --point")
        spec = ("fixed", tuple(float(v) for v in args.point.split(",")))
    elif args.point is not None:
        raise ValueError("--point applies only to --strategy fixed")
    else:
        spec = "uniform"
    mi, stderr = info.transcript_mi(
        args.n, spec, args.m, args.transcripts, args.seed, args.workers
    )
    top = args.n * info.LOG2_3  # n log2 3 bits: the entropy of the hidden shift
    columns = ["n", "m", "transcripts", "mi_bits", "stderr"]
    row = dict(zip(columns, (args.n, args.m, args.transcripts, mi, stderr)))
    check = _check("mi-information-range", [(None, mi, top, stderr), (None, -mi, 0.0, stderr)])
    return columns, [row], [check]


def _identify(args):
    unique_rate, correct_rate, ambiguous = info.identification_rates(
        args.n, args.trials, args.tol, args.seed, args.workers
    )
    columns = ["n", "trials", "unique_rate", "correct_rate", "ambiguous"]
    row = dict(zip(columns, (args.n, args.trials, unique_rate, correct_rate, ambiguous)))
    check = _check("single-query-identification", [(args.n, 1.0 - correct_rate, 0.0, 0.0)])
    return columns, [row], [check]


def run_experiment(args) -> int:
    """Run the subcommand's experiment, write its report, map checks to an exit code."""
    t0 = time.monotonic()
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValueError(f"--out: directory {os.path.dirname(args.out)!r} does not exist")
    if args.out and os.path.isdir(args.out):
        raise ValueError(f"--out: {args.out!r} is a directory")
    columns, rows, checks = args.func(args)
    config = vars(args).copy()
    config.pop("func", None)
    report = _report(config, columns, rows, checks, t0)
    if args.command == "train":
        report["summary"] = {
            "median_queries": float(np.median([r["queries_total"] for r in rows])),
            "success_rate": sum(1 for r in rows if r["succeeded"]) / len(rows),
        }
    _write_report(report, args.format, args.out)
    return EXIT_OK if all(c["passed"] for c in checks) else EXIT_BOUND_VIOLATION


# --- parser -----------------------------------------------------------------

def _default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    try:
        return int(env) if env else DEFAULT_SEED
    except ValueError:
        raise ValueError(f"${SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _add_common(p: argparse.ArgumentParser, func) -> None:
    """The options every subcommand shares, after its own, and its experiment."""
    p.add_argument(
        "--seed", type=int, default=None,
        help=f"master seed (default ${SEED_ENV_VAR}, then {DEFAULT_SEED})",
    )
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--workers", type=int, default=1, help="worker processes")
    p.set_defaults(func=func)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every token starting with -<digit> or
    -.<digit> as a value, so --eta -1e-3 works as --eta -0.001 does.
    argparse's own negative-number test knows only the -1 and -0.5 forms;
    no option of this command starts with a digit.  Subparsers are built
    with the parser's class, so they inherit the test."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process."""
    parser = _Parser(
        prog="plateaulab",
        description="Verification experiments for plateau-landscape query bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-circuit", help="statevector vs analytic cross-check")
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_common(p, _verify_circuit)

    p = sub.add_parser("bounds", help="delta, exact p and Hoeffding p per n")
    p.add_argument("--n-max", type=int, default=12)
    _add_common(p, _bounds)

    p = sub.add_parser("game", help="plateau-game win-round CDF vs linear bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--strategy", choices=sorted(game.STRATEGIES), default="uniform")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--m-max", type=int, default=50)
    _add_common(p, _game)

    p = sub.add_parser("train", help="run trainers against the sample oracle")
    p.add_argument("--algo", choices=training.ALGORITHMS, default="random")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--budget", type=int, default=100000)
    _add_common(p, _train)

    p = sub.add_parser("exit-time", help="first-exit CDF vs combined bound")
    p.add_argument("--algo", choices=training.ALGORITHMS, default="random")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--m-max", type=int, default=50)
    _add_common(p, _exit_time)

    p = sub.add_parser("diverge", help="coupled-run divergence rate vs bound")
    p.add_argument("--algo", choices=training.ALGORITHMS, default="random")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--eta", type=float, default=0.0)
    _add_common(p, _diverge)

    p = sub.add_parser("mi", help="mutual information of sample transcripts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--transcripts", type=int, default=10000)
    p.add_argument("--strategy", choices=("uniform", "fixed"), default="uniform")
    p.add_argument("--point", default=None, help="comma-separated fixed query point")
    _add_common(p, _mi)

    p = sub.add_parser("identify", help="one-shot identification from an evaluation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_common(p, _identify)

    return parser


@lru_cache(maxsize=None)
def _keep_freed_heap() -> None:
    """On glibc, once per process, keep freed heap for the next array step.
    By default glibc maps each block above 128 KB afresh and trims the heap
    top after a step, so every step of BLOCK_BYTES faults its memory in
    again.  Pool workers fork later and inherit it.  Elsewhere, or with no
    mallopt, it does nothing; no output depends on it."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 * BLOCK_BYTES)  # setting it stops glibc moving it
    mallopt(_M_TRIM_THRESHOLD, 64 * BLOCK_BYTES)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        if args.seed is None:  # read at every call, not when the parser is built
            args.seed = _default_seed()
        return run_experiment(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except Exception as exc:  # exit 1 would read as "bound exceeded"
        traceback.print_exc()
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
