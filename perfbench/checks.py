"""Output checks for one step's CSV: invariants at any seed, and agreement
with the reference recorded at the pinned seed.

Each check returns a list of problems; an empty list means the output is
correct.  Counts and histograms must match the reference byte for byte.
Monte Carlo MI is a float sum whose order a faster implementation may
change, so ``mi_bits`` may differ by MI_ABS_TOL bits and ``stderr`` by a
relative MI_STDERR_REL_TOL.
"""
from __future__ import annotations

import csv
import io
import math

from workloads import Step

MI_ABS_TOL = 1e-9  # bits
MI_STDERR_REL_TOL = 1e-6
VERIFY_TOL = 1e-9  # verify-circuit's default --tol
LOG2_3 = math.log2(3)

HEADERS = {
    "game": ["m", "cdf", "stderr", "bound", "exceeded"],
    "exit-time": ["m", "cdf", "stderr", "bound", "exceeded"],
    "mi": ["n", "m", "transcripts", "mi_bits", "stderr"],
    "identify": ["n", "trials", "unique_rate", "correct_rate", "ambiguous"],
    "diverge": ["n", "m", "trials", "divergence_rate", "stderr", "bound", "exceeded"],
    "train": ["trial", "queries_total", "succeeded", "first_exit"],
    "verify-circuit": ["n", "trials", "max_abs_dev"],
}


def parse(text: str) -> tuple[list[str], list[dict[str, str]]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    return header, [dict(zip(header, r)) for r in reader]


def _is_count(x: float, trials: int) -> bool:
    """x is k / trials for an integer k in [0, trials]."""
    k = round(x * trials)
    return 0 <= k <= trials and k / trials == x


def invariants(step: Step, size: int, text: str) -> list[str]:
    """Problems with the CSV a step wrote for `size` trials, at any seed."""
    try:
        return _invariants(step, size, text)
    except (KeyError, ValueError, IndexError) as exc:
        return [f"{step.label}: unreadable CSV ({type(exc).__name__}: {exc})"]


def _invariants(step: Step, size: int, text: str) -> list[str]:
    header, rows = parse(text)
    cmd, p, trials = step.command, step.params(), size
    if header != HEADERS[cmd]:
        return [f"{step.label}: header {header} != {HEADERS[cmd]}"]
    bad: list[str] = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            bad.append(f"{step.label}: {what}")

    if cmd in ("game", "exit-time"):
        m_max = int(p["--m-max"])
        need([int(r["m"]) for r in rows] == list(range(1, m_max + 1)), "rows are not m = 1..m_max")
        cdf = [float(r["cdf"]) for r in rows]
        need(all(0.0 <= c <= 1.0 for c in cdf), "CDF outside [0, 1]")
        need(all(a <= b for a, b in zip(cdf, cdf[1:])), "CDF decreases")
        need(all(_is_count(c, trials) for c in cdf), "CDF is not a count over the trials")
        need(all(float(r["stderr"]) >= 0.0 for r in rows), "negative stderr")
        need(all(r["exceeded"] in ("true", "false") for r in rows), "exceeded is not a bool")
    elif cmd == "mi":
        (r,) = rows
        n = int(p["--n"])
        need((int(r["n"]), int(r["m"]), int(r["transcripts"])) == (n, int(p["--m"]), trials),
             "config columns differ from the step")
        mi, se = float(r["mi_bits"]), float(r["stderr"])
        need(se >= 0.0, "negative stderr")
        need(-3 * se <= mi <= n * LOG2_3 + 3 * se, f"MI {mi} outside [-3s, n log2 3 + 3s]")
    elif cmd == "identify":
        (r,) = rows
        unique, correct = float(r["unique_rate"]), float(r["correct_rate"])
        ambiguous = int(r["ambiguous"])
        need(int(r["trials"]) == trials, "trials column differs from the step")
        need(0.0 <= correct <= unique <= 1.0, "rates out of order or outside [0, 1]")
        need(_is_count(unique, trials) and _is_count(correct, trials), "rates are not counts")
        need(0 <= ambiguous <= trials, "ambiguous count exceeds trials")
        need(round(unique * trials) + ambiguous == trials, "unique + ambiguous != trials")
    elif cmd == "diverge":
        (r,) = rows
        need(int(r["trials"]) == trials, "trials column differs from the step")
        need(_is_count(float(r["divergence_rate"]), trials), "divergence rate is not a count")
    elif cmd == "train":
        budget = int(p["--budget"])
        need([int(r["trial"]) for r in rows] == list(range(trials)), "rows are not trials 0..T-1")
        for r in rows:
            q, ok = int(r["queries_total"]), r["succeeded"]
            need(1 <= q <= budget and ok in ("true", "false"), f"trial {r['trial']}: bad row")
            need(ok == "true" or q == budget, f"trial {r['trial']}: failed before the budget")
            need(r["first_exit"] == "" or 1 <= int(r["first_exit"]) <= q,
                 f"trial {r['trial']}: first exit after the last query")
    elif cmd == "verify-circuit":
        n_max = int(p["--n-max"])
        need([int(r["n"]) for r in rows] == list(range(1, n_max + 1)), "rows are not n = 1..n_max")
        need(all(int(r["trials"]) == size for r in rows), "trials column differs from the step")
        need(all(0.0 <= float(r["max_abs_dev"]) <= VERIFY_TOL for r in rows),
             "statevector and analytic values disagree")
    return bad


def against_reference(step: Step, text: str, ref: str) -> list[str]:
    """Problems comparing a pinned-seed output with its recorded reference."""
    if step.command != "mi":
        return [] if text == ref else [f"{step.label}: output differs from the reference"]
    (got,), (want,) = parse(text)[1], parse(ref)[1]
    bad = [
        f"{step.label}: {c} {got[c]} != reference {want[c]}"
        for c in ("n", "m", "transcripts") if got[c] != want[c]
    ]
    d_mi = abs(float(got["mi_bits"]) - float(want["mi_bits"]))
    if d_mi > MI_ABS_TOL:
        bad.append(f"{step.label}: mi_bits differs from the reference by {d_mi:.3g} bits")
    se, se_ref = float(got["stderr"]), float(want["stderr"])
    if not math.isclose(se, se_ref, rel_tol=MI_STDERR_REL_TOL):
        bad.append(f"{step.label}: stderr {se!r} != reference {se_ref!r}")
    return bad
