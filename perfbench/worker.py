"""Run one workload in this process and print its report as JSON.

``run.py`` starts this module in a fresh interpreter per run (pinned
``PYTHONHASHSEED``, so ``peak_rss_mb`` is the workload's own); the tests call
:func:`run_workload` directly at smoke size.

Untraced run (``--trace 0``): set up cold twice, drive the closed-loop
stream on the last engine, then set up cold twice more; ``setup_s`` is the
median of the four.  The stream is a fixed number of operations,
``rate × seconds`` for the workload's nominal rate, so a seed fixes every
operation and every check of a run.  Traced run (``--trace 1``): set up
untraced and traced twice each (the difference of the medians is the tracing
overhead), then drive the stream with the tracer installed.  End-to-end
numbers come only from untraced runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

from repro.chase.segments import clear_segment_stores
from repro.core.answering import clear_engine_cache
from repro.core.engine import WellFoundedEngine

from . import metrics
from .tracing import Tracer
from .workloads import SCALES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Settings:
    #: cold set-ups per untraced run before the stream, and after it
    #: (``setup_s`` is the median of all of them)
    reps_before: int
    reps_after: int
    #: untraced and traced set-ups each, per traced run
    traced_reps: int
    #: queries every run issues at least (at 200, ≥ 10 lie beyond p95)
    min_queries: int


SETTINGS = {"full": Settings(2, 2, 2, 200), "smoke": Settings(1, 1, 1, 20)}
#: Wall-clock cap on one stream, whatever the query count.
STREAM_WALL_LIMIT_S = 90.0


def cold() -> None:
    """Forget every process-global cache, so the next set-up starts cold."""
    clear_segment_stores()
    clear_engine_cache()
    gc.collect()


def timed_setup(workload, seed: int, tracer: Optional[Tracer] = None):
    inputs = workload.inputs(seed)
    cold()
    started = perf_counter()
    if tracer is None:
        state = workload.setup(inputs)
    else:
        state = tracer.span("bench.setup", workload.setup, inputs)
    return perf_counter() - started, state, inputs


class Tally:
    """Operations attempted and failed; failures of known defects kept apart."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.known: list[dict] = []

    def record(self, label: str, ok: bool, known_defect: Optional[str] = None) -> None:
        self.attempted += 1
        if ok:
            return
        self.failures.append(label)
        if known_defect is not None:
            self.known.append({"check": label, "defect": known_defect})

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        """No answer disagreed with its oracle, apart from documented defects."""
        return self.failed == len(self.known)


def stream_length(workload, seconds: float) -> int:
    """Timed operations in a stream of nominally *seconds* of engine time."""
    return round(workload.rate * seconds)


def run_stream(workload, state, inputs, seed, seconds, min_queries, tally, tracer=None) -> dict:
    latencies: dict[str, list[float]] = {"query": [], "update": []}
    by_label: dict[str, list[float]] = {}
    observed: dict[str, float] = {}
    length = stream_length(workload, seconds)
    wall_start = perf_counter()
    for op in workload.stream(state, inputs, seed):
        if op.kind == "check":
            with tracer.suspended() if tracer is not None else contextlib.nullcontext():
                results = op.call()
            for label, ok in results:
                tally.record(label, ok)
            continue
        index = tracer.begin("bench." + op.kind) if tracer is not None else None
        error = None
        started = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an engine error is a failed operation, not a crash
            error = exc
        elapsed = perf_counter() - started
        if tracer is not None:
            tracer.end(index)
        latencies[op.kind].append(elapsed)
        by_label.setdefault(op.label, []).append(elapsed)
        ok = error is None and (op.expect is None or op.expect(result))
        tally.record(op.label if error is None else f"{op.label}: {error!r}", ok)
        if op.observe is not None and error is None:
            for key, value in op.observe().items():
                observed[key] = observed.get(key, 0) + value
        done = len(latencies["query"]) + len(latencies["update"])
        if done >= length and len(latencies["query"]) >= min_queries:
            break
        if perf_counter() - wall_start > STREAM_WALL_LIMIT_S:
            print(f"stream stopped at the {STREAM_WALL_LIMIT_S:.0f} s wall limit", file=sys.stderr)
            break
    return {"latencies": latencies, "by_label": by_label, "observed": observed}


def latency_metrics(latencies: dict[str, list[float]]) -> dict[str, Optional[float]]:
    queries, updates = latencies["query"], latencies["update"]
    ms = lambda samples, q: 1000.0 * metrics.percentile(samples, q) if samples else None  # noqa: E731
    return {
        "query_p50_ms": ms(queries, 50),
        "query_p95_ms": ms(queries, 95),
        "update_p50_ms": ms(updates, 50),
        "update_p95_ms": ms(updates, 95),
        "ops_per_s": (len(queries) + len(updates)) / (sum(queries) + sum(updates)),
    }


def _view_totals(workload, state) -> dict[str, int]:
    totals: dict[str, int] = {}
    for engine in workload.engines(state):
        for key, value in getattr(engine, "total_stats", {}).items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _setup_counters(workload, state, counters: dict) -> dict[str, float]:
    nodes = hits = misses = spliced = rounds = 0
    for engine in workload.engines(state):
        if isinstance(engine, WellFoundedEngine):
            nodes += len(engine.chase_forest())
            cache = engine.segment_cache_stats()
            hits += cache.get("hits", 0)
            misses += cache.get("misses", 0)
            spliced += cache.get("nodes_spliced", 0)
            rounds += engine.model().iterations or 0
    resolved = counters.get("lp.wfs.components_resolved", 0)
    reused = counters.get("lp.wfs.components_reused", 0)
    return {
        "lp.ground.add_s": counters.get("lp.ground.add_s", 0.0),
        "chase.nodes": nodes,
        "chase.segment_hit_rate": metrics.ratio(hits, hits + misses),
        "chase.nodes_spliced": spliced,
        "core.deepen.rounds": rounds,
        "lp.ground.rules": counters.get("lp.ground.add.calls", 0),
        "lp.columnar.rules_emitted": counters.get("lp.columnar.rules_emitted", 0),
        "lp.wfs.components_resolved": resolved,
        "lp.wfs.components_reused": reused,
        "lp.wfs.reuse_rate": metrics.ratio(reused, resolved + reused),
    }


def _stream_counters(stream: dict, counters: dict, views: dict) -> dict[str, float]:
    queries = len(stream["latencies"]["query"])
    updates = len(stream["latencies"]["update"])
    ops = queries + updates
    observed = stream["observed"]
    resolved = counters.get("lp.wfs.components_resolved", 0)
    reused = counters.get("lp.wfs.components_reused", 0)
    overdeleted = views.get("overdeleted", 0)
    rederived = views.get("rederived", 0)
    return {
        "stream.lp.ground.add_ms": 1000.0 * counters.get("lp.ground.add_s", 0.0) / ops,
        "stream.lp.columnar.rules_emitted": counters.get("lp.columnar.rules_emitted", 0) / ops,
        "stream.lp.wfs.components_resolved": resolved / ops,
        "stream.lp.wfs.reuse_rate": metrics.ratio(reused, resolved + reused),
        "rewrite.ground_rules": metrics.ratio(
            observed.get("rewrite.ground_rules", 0), observed.get("rewrite.queries", 0)
        ),
        "rewrite.cache_hit_rate": metrics.ratio(
            observed.get("rewrite.cache_hits", 0), observed.get("rewrite.queries", 0)
        ),
        "views.overdeleted": metrics.ratio(overdeleted, updates),
        "views.rederived": metrics.ratio(rederived, updates),
        "views.rederive_ratio": metrics.ratio(rederived, overdeleted),
        "views.counting_kept": metrics.ratio(views.get("counting_kept", 0), updates),
    }


def _traced(workload, seed, seconds, settings, untraced_setups, tally, spans_path):
    """Traced set-ups and stream; returns the per-layer metrics and the stream."""
    per_layer: dict[str, float] = {}
    with Tracer() as tracer:
        traced_setups = []
        for _ in range(settings.traced_reps):
            state = inputs = None
            tracer.take_counters()
            first = len(tracer.spans)
            seconds_taken, state, inputs = timed_setup(workload, seed, tracer)
            traced_setups.append(seconds_taken)
            setup_counters = tracer.take_counters()
            setup_spans = (first, len(tracer.spans))
        per_layer["trace.overhead_s"] = statistics.median(traced_setups) - statistics.median(
            untraced_setups
        )
        self_times = tracer.self_times(*setup_spans)
        for layer, metric in metrics.LAYER_TIMES:
            per_layer[metric] = self_times.get(layer, 0.0)
        per_layer.update(_setup_counters(workload, state, setup_counters))

        views_before = _view_totals(workload, state)
        first = len(tracer.spans)
        stream = run_stream(
            workload, state, inputs, seed, seconds, settings.min_queries, tally, tracer
        )
        stream_counters = tracer.take_counters()
        views_after = _view_totals(workload, state)
        ops = len(stream["latencies"]["query"]) + len(stream["latencies"]["update"])
        self_times = tracer.self_times(first)
        for layer, metric in metrics.LAYER_TIMES:
            per_layer[metrics.stream_name(metric)] = 1000.0 * self_times.get(layer, 0.0) / ops
        views = {key: views_after[key] - views_before.get(key, 0) for key in views_after}
        per_layer.update(_stream_counters(stream, stream_counters, views))
        per_layer["trace.spans"] = len(tracer.spans)
    if spans_path is not None:
        tracer.write_spans(str(spans_path))
    return per_layer, stream, state, inputs


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: str = "full",
    spans_path: Optional[Path] = None,
) -> dict:
    """Run one workload; return its report (metrics, tallies, environment)."""
    workload = WORKLOADS[name](SCALES[scale])
    settings = SETTINGS[scale]
    tally = Tally()
    untraced_setups = []
    for _ in range(settings.traced_reps if trace else settings.reps_before):
        state = inputs = None
        seconds_taken, state, inputs = timed_setup(workload, seed)
        untraced_setups.append(seconds_taken)

    per_layer: dict[str, float] = {}
    if trace:
        per_layer, stream, state, inputs = _traced(
            workload, seed, seconds, settings, untraced_setups, tally, spans_path
        )
    else:
        stream = run_stream(workload, state, inputs, seed, seconds, settings.min_queries, tally)

    for label, ok, known_defect in workload.checks(state, inputs):
        tally.record(label, ok, known_defect)
    if not trace:
        # set-ups a stream apart see the machine at two moments, not one
        state = inputs = None
        for _ in range(settings.reps_after):
            untraced_setups.append(timed_setup(workload, seed)[0])

    end_to_end = {
        "setup_s": statistics.median(untraced_setups), **latency_metrics(stream["latencies"])
    }
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end["error_rate"] = tally.failed / tally.attempted
    traced_stream = None
    if trace:
        # a traced stream's latencies include the wrappers: not end-to-end numbers
        traced_stream, end_to_end = end_to_end, None
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:20],
        "known_defects": tally.known,
        "samples": {kind: len(values) for kind, values in stream["latencies"].items()},
        "p50_ms_by_label": {
            label: [len(values), 1000.0 * metrics.percentile(values, 50)]
            for label, values in sorted(stream["by_label"].items())
        },
        "setup_samples_s": untraced_setups,
        "end_to_end": end_to_end,
        "traced_stream": traced_stream,
        "per_layer": per_layer,
        "environment": metrics.environment(ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), scale=args.scale,
        spans_path=OUT / f"{stem}-spans.json" if args.trace else None,
    )
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
