"""Which plateaulab bindings the traced run wraps, and the per-layer metrics.

Module globals are patched in the module that reads them (``game`` looks up
``hamming_d`` in its own namespace), class attributes on the class.  Layer
metric names follow the package modules; ``_parallel`` is reported as
``parallel`` because a metric name must start with a letter.  A hook's
counter is named after the span that feeds it: ``<span name>.<what>``.
"""
from __future__ import annotations

import math
import statistics

from spans import Target


def _rows(points) -> int:
    shape = getattr(points, "shape", ())
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


def _count_draws(counters, args, result):
    counters["rng.pop_batch.draws"] += args[1]


def _count_eval_rows(counters, args, result):
    counters["circuits.eval_array.rows"] += _rows(args[1])


def _count_far_rows(counters, args, result):
    counters["torus.far_count_array.rows"] += _rows(args[0])


def _count_game(counters, args, result):
    counters["game.play_game.rounds"] += len(result.queries)
    counters["game.play_game.wins"] += result.win_round is not None


def _count_trainer(counters, args, result):
    counters["training.run_trainer.queries"] += result.queries_total
    counters["training.run_trainer.successes"] += result.succeeded


def _count_divergence(counters, args, result):
    counters["oracles.coupled_sample.divergences"] += result[2]


def _count_candidates(counters, args, result):
    counters["info.candidate_values.candidates"] += 3 ** args[0]


def _count_identify(counters, args, result):
    counters["info.omnipotent_identify.unique"] += result.unique


def parallel_targets(pl) -> list[Target]:
    """Dispatch and chunk level only: cheap enough to time pool overhead."""
    chunk_fns = [
        (pl.game, "win_round_counts"),
        (pl.training, "trainer_trials_chunk"),
        (pl.training, "divergence_chunk"),
        (pl.training, "exit_time_chunk"),
        (pl.info, "mi_transcript_chunk"),
        (pl.info, "identify_chunk"),
    ]
    targets = [
        Target(mod, "run_chunks", "parallel.run_chunks", record=True)
        for mod in (pl.game, pl.training, pl.info)
    ]
    targets += [
        Target(mod, fn, f"{mod.__name__.rsplit('.', 1)[1]}.{fn}", record=True, chunk=True)
        for mod, fn in chunk_fns
    ]
    return targets


def all_targets(pl) -> list[Target]:
    """Every layer boundary the per-layer metrics need."""
    T = Target
    return parallel_targets(pl) + [
        T(pl.cli, "main", "cli.main", record=True),
        # rng
        T(pl.rng.RandomStack, "__init__", "rng.RandomStack"),
        T(pl.rng.RandomStack, "pop", "rng.pop"),
        T(pl.rng.RandomStack, "pop_batch", "rng.pop_batch", hook=_count_draws),
        # torus
        T(pl.torus.TorusPoint, "__init__", "torus.TorusPoint"),
        T(pl.game, "hamming_d", "torus.hamming_d"),
        T(pl.game, "far_count_array", "torus.far_count_array", hook=_count_far_rows),
        # circuits
        T(pl.circuits.ShiftedProductFunction, "__call__", "circuits.f"),
        T(pl.circuits.ShiftedProductFunction, "eval_array", "circuits.eval_array",
          hook=_count_eval_rows),
        T(pl.circuits, "tensor_sim", "circuits.tensor_sim"),
        # oracles
        T(pl.training, "sample_query", "oracles.sample_query"),
        T(pl.training, "coupled_sample", "oracles.coupled_sample", hook=_count_divergence),
        T(pl.info, "eval_query", "oracles.eval_query"),
        # game
        T(pl.game, "play_game", "game.play_game", hook=_count_game),
        # training
        T(pl.training, "run_trainer", "training.run_trainer", hook=_count_trainer),
        # info
        T(pl.info, "candidate_values", "info.candidate_values", hook=_count_candidates),
        T(pl.info, "omnipotent_identify", "info.omnipotent_identify", hook=_count_identify),
    ]


# (metric, unit) in report order; the names BENCHMARK.json lists as per_layer.
PER_LAYER = [
    ("rng.stacks", "count"),
    ("rng.pop.calls", "count"),
    ("rng.pop.self_s", "s"),
    ("rng.pop_batch.calls", "count"),
    ("rng.pop_batch.self_s", "s"),
    ("rng.draws_per_call", "draws/call"),
    ("torus.TorusPoint.calls", "count"),
    ("torus.TorusPoint.self_s", "s"),
    ("torus.hamming_d.calls", "count"),
    ("torus.hamming_d.self_s", "s"),
    ("torus.far_count_array.rows", "count"),
    ("torus.far_count_array.self_s", "s"),
    ("circuits.f.calls", "count"),
    ("circuits.f.self_s", "s"),
    ("circuits.eval_array.rows", "count"),
    ("circuits.eval_array.self_s", "s"),
    ("circuits.tensor_sim.calls", "count"),
    ("circuits.tensor_sim.self_s", "s"),
    ("oracles.sample_query.calls", "count"),
    ("oracles.sample_query.self_s", "s"),
    ("oracles.coupled_sample.calls", "count"),
    ("oracles.coupled_sample.self_s", "s"),
    ("game.play_game.calls", "count"),
    ("game.play_game.self_s", "s"),
    ("game.rounds", "count"),
    ("game.win_ratio", "ratio"),
    ("game.win_round_counts.self_s", "s"),
    ("training.run_trainer.calls", "count"),
    ("training.run_trainer.self_s", "s"),
    ("training.queries", "count"),
    ("training.success_ratio", "ratio"),
    ("training.divergence_chunk.self_s", "s"),
    ("training.exit_time_chunk.self_s", "s"),
    ("info.candidate_values.calls", "count"),
    ("info.candidate_values.self_s", "s"),
    ("info.candidates", "count"),
    ("info.mi_transcript_chunk.self_s", "s"),
    ("info.identify_chunk.self_s", "s"),
    ("info.omnipotent_identify.calls", "count"),
    ("parallel.chunks", "count"),
    ("parallel.chunk_s.p50", "s"),
    ("parallel.chunk_s.max", "s"),
    ("parallel.pool_overhead_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, chunk_s: list[float], pool_overhead_s: float,
                  report_bytes: int, overhead_ratio: float) -> dict[str, float]:
    """Per-layer values from a full traced pass plus the dispatch passes.

    `chunk_s` are chunk durations from the lightly traced pass at workers 1;
    a layer the workload never calls reports 0 calls and 0.0 s.
    """
    aggs, c, edges = tracer.aggs, tracer.counters, tracer.edges

    def calls(name):
        return aggs[name].calls if name in aggs else 0

    def self_s(name):
        return aggs[name].self_s if name in aggs else 0.0

    pops, batches = calls("rng.pop"), calls("rng.pop_batch")
    out = {
        "rng.stacks": calls("rng.RandomStack"),
        "rng.draws_per_call": _ratio(pops + c["rng.pop_batch.draws"], pops + batches),
        "torus.far_count_array.rows": c["torus.far_count_array.rows"],
        "circuits.eval_array.rows": c["circuits.eval_array.rows"],
        "game.rounds": c["game.play_game.rounds"],
        "game.win_ratio": _ratio(c["game.play_game.wins"], calls("game.play_game")),
        # batched random search counts its own queries; every other trainer
        # query is one oracle call made outside run_trainer
        "training.queries": (
            c["training.run_trainer.queries"]
            + calls("oracles.sample_query")
            - edges[("training.run_trainer", "oracles.sample_query")]
            + calls("oracles.coupled_sample")
        ),
        "training.success_ratio": _ratio(c["training.run_trainer.successes"], calls("training.run_trainer")),
        "info.candidates": c["info.candidate_values.candidates"],
        "parallel.chunks": len(chunk_s),
        "parallel.chunk_s.p50": statistics.median(chunk_s) if chunk_s else 0.0,
        "parallel.chunk_s.max": max(chunk_s, default=0.0),
        "parallel.pool_overhead_s": pool_overhead_s,
        "cli.report_bytes": report_bytes,
        "trace.overhead_ratio": overhead_ratio,
    }
    for metric, _unit in PER_LAYER:
        if metric in out:
            continue
        name, kind = metric.rsplit(".", 1)
        out[metric] = calls(name) if kind == "calls" else self_s(name)
    return out
