"""Metric names and units, percentiles, and the environment of a result.

``BENCHMARK.json`` at the repository root lists the same names; the tests
check the two agree.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path
from typing import Optional, Sequence

#: The workloads, in the order ``BENCHMARK.json`` lists them.
WORKLOADS = ("chain-cold", "paper-deepening", "scenario-serve", "edb-serve")

#: Printed on the result line of an untraced run (every workload has each).
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("ops_per_s", "op/s"),
    ("peak_rss_mb", "MB"),
)

#: Reported with the end-to-end metrics but absent from the result line:
#: they are ``None`` (printed ``—``) or 0 on some workloads.
END_TO_END_EXTRA: tuple[tuple[str, str], ...] = (
    ("update_p50_ms", "ms"),
    ("update_p95_ms", "ms"),
    ("error_rate", "ratio"),
)

#: Layers that have spans, with the name of their set-up self-time metric.
LAYER_TIMES: tuple[tuple[str, str], ...] = (
    ("lang.parse", "lang.parse.self_s"),
    ("analysis.analyze", "analysis.analyze.self_s"),
    ("chase.expand", "chase.expand.self_s"),
    ("core.deepen", "core.deepen.self_s"),
    ("lp.columnar.run", "lp.columnar.run_s"),
    ("lp.wfs.solve", "lp.wfs.solve_s"),
    ("rewrite.plan", "rewrite.plan_s"),
    ("rewrite.ground_magic", "rewrite.ground_magic_s"),
    ("views.add_facts", "views.add_facts.self_s"),
    ("views.retract_facts", "views.retract_facts.self_s"),
    ("views.model", "views.model.self_s"),
    ("lang.queries.evaluate", "lang.queries.evaluate_s"),
)


def stream_name(setup_name: str) -> str:
    """``lang.parse.self_s`` -> ``stream.lang.parse.self_ms`` (per operation)."""
    return "stream." + setup_name[: -len("_s")] + "_ms"


#: Printed on the result line of a traced run.  Unprefixed names describe one
#: cold set-up; ``stream.`` names are means per stream operation (or per
#: update / per query where the unit says so).
PER_LAYER: tuple[tuple[str, str], ...] = (
    *((name, "s") for _, name in LAYER_TIMES),
    ("lp.ground.add_s", "s"),
    ("chase.nodes", "count"),
    ("chase.segment_hit_rate", "ratio"),
    ("chase.nodes_spliced", "count"),
    ("core.deepen.rounds", "count"),
    ("lp.ground.rules", "count"),
    ("lp.columnar.rules_emitted", "count"),
    ("lp.wfs.components_resolved", "count"),
    ("lp.wfs.components_reused", "count"),
    ("lp.wfs.reuse_rate", "ratio"),
    *((stream_name(name), "ms/op") for _, name in LAYER_TIMES),
    ("stream.lp.ground.add_ms", "ms/op"),
    ("stream.lp.columnar.rules_emitted", "count/op"),
    ("stream.lp.wfs.components_resolved", "count/op"),
    ("stream.lp.wfs.reuse_rate", "ratio"),
    ("rewrite.ground_rules", "count/query"),
    ("rewrite.cache_hit_rate", "ratio"),
    ("views.overdeleted", "count/update"),
    ("views.rederived", "count/update"),
    ("views.rederive_ratio", "ratio"),
    ("views.counting_kept", "count/update"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0–100), linearly interpolated between ranks."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _git_sha(root: Path) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _source_digest(root: Path) -> str:
    """SHA-256 over the engine's source files (identifies a checkout without git)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _version(package: str) -> Optional[str]:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment(root: Path) -> dict:
    """Where a result was measured: code, interpreter, machine and its load."""
    return {
        "git_sha": _git_sha(root),
        "source_digest": _source_digest(root),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": _version("numpy"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "load_average": list(os.getloadavg()) if hasattr(os, "getloadavg") else None,
        "platform": platform.platform(),
    }
