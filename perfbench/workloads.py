"""The benchmark's workloads: each is a fixed list of plateaulab CLI steps.

Every step runs ``plateaulab.cli.main`` with ``--format csv``.  Trial counts
are sized so that a benchmark round (a set-up interpreter, a workers-1 pass
and a workers-2 pass) takes 2-4 s on a 2-core machine, and steps that
should show process-pool gains span two chunks of 1000 trials.  README.md
explains why each workload exists.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

TRIAL_CHUNK = 1000  # plateaulab._parallel.TRIAL_CHUNK, the fixed chunk size


@dataclass(frozen=True)
class Step:
    label: str
    argv: tuple[str, ...]  # subcommand and its options, without the size flag
    size_flag: str  # "--trials" or "--transcripts"
    size: int

    @property
    def command(self) -> str:
        return self.argv[0]

    def params(self) -> dict[str, str]:
        return dict(zip(self.argv[1::2], self.argv[2::2]))

    def cli_argv(self, seed: int, workers: int, out: str, size: int | None = None) -> list[str]:
        return [
            *self.argv, self.size_flag, str(self.size if size is None else size),
            "--seed", str(seed), "--workers", str(workers),
            "--format", "csv", "--out", out,
        ]

    def trials(self) -> int:
        """Trials one run of the step performs (a verify-circuit check per n)."""
        if self.command == "verify-circuit":
            return int(self.params()["--n-max"]) * self.size
        return self.size


def _mi(n: int, transcripts: int) -> Step:
    return Step(f"mi-n{n}", ("mi", "--n", str(n), "--strategy", "uniform", "--m", "10"),
                "--transcripts", transcripts)


WORKLOADS: dict[str, list[Step]] = {
    "game": [
        Step("game-n6-uniform", ("game", "--n", "6", "--strategy", "uniform", "--m-max", "50"),
             "--trials", 2000),
        Step("game-n6-adaptive", ("game", "--n", "6", "--strategy", "adaptive", "--m-max", "50"),
             "--trials", 2000),
        Step("game-n16-uniform", ("game", "--n", "16", "--strategy", "uniform", "--m-max", "50"),
             "--trials", 2000),
    ],
    "info": [
        *[_mi(n, 200) for n in range(1, 6)],
        _mi(8, 50),
        *[Step(f"identify-n{n}", ("identify", "--n", str(n)), "--trials", 2000) for n in (2, 3, 4)],
    ],
    "train": [
        Step("diverge-spsa-n12", ("diverge", "--algo", "spsa", "--n", "12", "--m", "10"),
             "--trials", 2000),
        Step("exit-random-n8", ("exit-time", "--algo", "random", "--n", "8", "--m-max", "50"),
             "--trials", 2000),
        Step("exit-pshift-n8", ("exit-time", "--algo", "pshift", "--n", "8", "--m-max", "50"),
             "--trials", 1000),
        Step("train-random-n7", ("train", "--algo", "random", "--n", "7", "--budget", "200000"),
             "--trials", 100),
        Step("verify-circuit", ("verify-circuit", "--n-max", "10"), "--trials", 10),
    ],
}


def derived_counts(step: Step, size: int, rows: list[dict[str, str]]) -> dict[str, object]:
    """Counts the traced calls must show, derived from the step's CSV output.

    Keys are ``<span name>.calls`` or a hook counter ``<span name>.<what>``;
    a value is an exact count or an inclusive ``(low, high)`` range.
    """
    p = step.params()
    trials = size
    chunks = math.ceil(trials / TRIAL_CHUNK)
    cmd = step.command
    if cmd in ("game", "exit-time"):
        m_max = int(p["--m-max"])
        cum = [round(float(r["cdf"]) * trials) for r in rows]
        hits = [b - a for a, b in zip([0] + cum[:-1], cum)]
        # a trial stops at its hit round, or runs all m_max rounds
        rounds = sum(m * h for m, h in enumerate(hits, 1)) + m_max * (trials - cum[-1])
        if cmd == "game":
            return {
                "game.play_game.calls": trials,
                "game.win_round_counts.calls": chunks,
                "rng.RandomStack.calls": trials,
                "game.play_game.wins": cum[-1],
                "game.play_game.rounds": rounds,
                "torus.hamming_d.calls": rounds,
                "torus.TorusPoint.calls": rounds,
            }
        return {
            "training.exit_time_chunk.calls": chunks,
            "rng.RandomStack.calls": trials,
            "oracles.sample_query.calls": rounds,
            "torus.hamming_d.calls": rounds,
        }
    if cmd == "mi":
        n, m = int(p["--n"]), int(p["--m"])
        return {
            "info.mi_transcript_chunk.calls": chunks,
            "rng.RandomStack.calls": trials,
            "rng.pop.calls": trials * (1 + m),
            "info.candidate_values.calls": trials * m,
            "info.candidate_values.candidates": trials * m * 3**n,
        }
    if cmd == "identify":
        unique = round(float(rows[0]["unique_rate"]) * trials)
        return {
            "info.identify_chunk.calls": chunks,
            "rng.RandomStack.calls": trials,
            "info.omnipotent_identify.calls": trials,
            "info.candidate_values.calls": trials,
            "oracles.eval_query.calls": trials,
            "circuits.f.calls": trials,
            "info.omnipotent_identify.unique": unique,
        }
    if cmd == "diverge":
        m = int(p["--m"])
        return {
            "training.divergence_chunk.calls": chunks,
            "rng.RandomStack.calls": trials,
            "oracles.coupled_sample.divergences": round(float(rows[0]["divergence_rate"]) * trials),
            "oracles.coupled_sample.calls": (trials, trials * m),
        }
    if cmd == "train":
        return {
            "training.trainer_trials_chunk.calls": chunks,
            "rng.RandomStack.calls": trials,
            "training.run_trainer.calls": trials,
            "training.run_trainer.queries": sum(int(r["queries_total"]) for r in rows),
            "training.run_trainer.successes": sum(r["succeeded"] == "true" for r in rows),
        }
    if cmd == "verify-circuit":
        n_max = int(p["--n-max"])
        return {
            "rng.RandomStack.calls": n_max,
            "circuits.tensor_sim.calls": n_max * trials,
            "circuits.f.calls": n_max * trials,
        }
    raise ValueError(f"no derived counts for {cmd!r}")
