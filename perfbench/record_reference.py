#!/usr/bin/env python3
"""Record every step's CSV at the pinned seed into reference/.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known to be right: the benchmark
compares every later pinned-seed run with these files (checks.py).
"""
from __future__ import annotations

import run
import workloads


def main() -> None:
    pl = run.load_package()
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for steps in workloads.WORKLOADS.values():
        for step in steps:
            out = run.REFERENCE_DIR / f"{step.label}.csv"
            rc = pl.cli.main(step.cli_argv(pl.cli.DEFAULT_SEED, 1, str(out)))
            print(f"{step.label}: exit {rc}")


if __name__ == "__main__":
    main()
