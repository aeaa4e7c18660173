"""The benchmark's own tests, at smoke size (a few seconds in all)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro
from perfbench import metrics, oracles, tracing, workloads
from perfbench.worker import latency_metrics, run_workload, stream_length

ROOT = Path(__file__).resolve().parent.parent

#: Layers each workload must reach: its set-up and its stream metrics.
EXERCISED = {
    "chain-cold": (
        "lang.parse.self_s", "chase.expand.self_s", "core.deepen.self_s", "lp.wfs.solve_s",
        "lp.ground.add_s", "stream.rewrite.plan_ms", "stream.rewrite.ground_magic_ms",
        "stream.lp.columnar.run_ms", "stream.lang.queries.evaluate_ms",
    ),
    "paper-deepening": (
        "chase.expand.self_s", "core.deepen.self_s", "lp.wfs.solve_s", "core.deepen.rounds",
        "stream.lang.parse.self_ms", "stream.lang.queries.evaluate_ms",
    ),
    "scenario-serve": (
        "analysis.analyze.self_s", "lp.columnar.run_s", "views.add_facts.self_s",
        "stream.lang.parse.self_ms", "stream.views.add_facts.self_ms",
        "stream.views.retract_facts.self_ms", "stream.views.model.self_ms",
    ),
    "edb-serve": (
        "lp.columnar.run_s", "views.add_facts.self_s", "lp.wfs.solve_s",
        "stream.views.model.self_ms", "stream.views.retract_facts.self_ms",
        "stream.lp.wfs.solve_ms",
    ),
}


def smoke(name: str, trace: bool) -> dict:
    return run_workload(name, 1, 0.2, trace, scale="smoke")


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_workload_checks_its_answers_and_reports_every_metric(name):
    report = smoke(name, trace=False)
    end_to_end = report["end_to_end"]
    assert set(end_to_end) == {n for n, _ in metrics.END_TO_END + metrics.END_TO_END_EXTRA}
    assert all(end_to_end[n] > 0 for n, _ in metrics.END_TO_END)
    assert (end_to_end["update_p50_ms"] is not None) == name.endswith("-serve")
    assert report["samples"]["query"] >= 20
    # only the parity probe fails, and it is a documented defect
    assert report["correct"], report["failures"]
    expected_failures = 1 if name == "paper-deepening" else 0
    assert report["failed"] == len(report["known_defects"]) == expected_failures
    assert end_to_end["error_rate"] == expected_failures / report["attempted"]


def test_a_run_issues_a_fixed_number_of_operations():
    counts = set()
    for seed in (1, 2):
        report = run_workload("paper-deepening", seed, 0.2, False, scale="smoke")
        counts.add((report["samples"]["query"], report["attempted"], report["failed"]))
    length = stream_length(workloads.WORKLOADS["paper-deepening"], 0.2)
    assert counts == {(length, length + 1, 1)}  # the stream, then the parity probe


def test_latency_metrics():
    got = latency_metrics({"query": [0.001, 0.002, 0.004], "update": [0.003]})
    assert got["query_p50_ms"] == pytest.approx(2.0)
    assert got["update_p50_ms"] == pytest.approx(3.0)
    assert got["ops_per_s"] == pytest.approx(4 / 0.010)
    assert latency_metrics({"query": [0.001], "update": []})["update_p95_ms"] is None


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_traced_run_reports_every_layer_metric(name):
    report = smoke(name, trace=True)
    assert report["end_to_end"] is None  # traced latencies are not end-to-end numbers
    per_layer = report["per_layer"]
    assert {n for n, _ in metrics.PER_LAYER} <= set(per_layer)
    for metric in EXERCISED[name]:
        assert per_layer[metric] > 0, metric


@pytest.mark.parametrize("name", ["chain-cold", "edb-serve"])
def test_a_wrong_expected_answer_raises_the_error_rate(monkeypatch, name):
    real = oracles.reachable

    def off_by_one(sources, successors):
        reach = real(sources, successors)
        reach.discard(max(reach))
        return reach

    monkeypatch.setattr(oracles, "reachable", off_by_one)
    report = smoke(name, trace=False)
    assert report["end_to_end"]["error_rate"] > 0
    assert not report["correct"]


def _patchable_attributes() -> dict[str, dict]:
    snapshot = {
        name: dict(vars(module))
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    }
    for _, module_name, path in tracing.ENTRY_POINTS + tracing.AGGREGATE_POINTS:
        owner, _ = tracing._resolve(module_name, path)
        if isinstance(owner, type):
            snapshot[f"{module_name}:{owner.__qualname__}"] = dict(vars(owner))
    return snapshot


def test_tracer_patches_every_alias_and_restores_them():
    import repro.core.engine as core_engine
    import repro.lang.parser as parser

    original = parser.parse_program
    before = _patchable_attributes()
    # stands for a module first imported while the tracer is installed
    late = types.ModuleType("repro._imported_while_traced")
    sys.modules[late.__name__] = late
    try:
        with tracing.Tracer() as tracer:
            assert core_engine.parse_program is parser.parse_program
            assert core_engine.parse_program.__wrapped__ is original
            late.parse_program = parser.parse_program
            repro.WellFoundedEngine("a(x). a(X) -> b(X).").holds("? b(x)")
        assert late.parse_program is original
    finally:
        del sys.modules[late.__name__]
    assert {span[0] for span in tracer.spans} >= {
        "lang.parse", "chase.expand", "core.deepen", "lp.wfs.solve", "lang.queries.evaluate",
    }
    smoke("scenario-serve", trace=True)
    after = _patchable_attributes()
    for owner, attributes in before.items():
        for attribute, value in attributes.items():
            assert after[owner].get(attribute) is value, f"{owner}.{attribute}"


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["a", -1, 0.0, 10.0],
        ["b", 0, 1.0, 4.0],
        ["b", 1, 2.0, 3.0],
        ["c", 0, 5.0, 6.0],
    ]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


@pytest.mark.parametrize("trace", [0, 1])
def test_run_py_prints_every_metric_with_its_unit(trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-deepening", "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(wanted)


def test_run_py_fails_without_the_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
