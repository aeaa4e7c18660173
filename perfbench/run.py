"""The repository's benchmark: run one workload once and print its metrics.

    python3 perfbench/run.py --workload chain-cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The workload runs in a fresh interpreter
(``perfbench/worker.py``) with ``PYTHONHASHSEED`` pinned and ``src`` on the
path, so set-ups start cold and ``peak_rss_mb`` is the workload's own.  The
output is a table of every metric with its unit, then one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

carrying the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  The full report, with the environment it was measured in,
is written to ``perfbench/out/``.  Exits non-zero, printing no result line,
when the run fails or the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import metrics  # noqa: E402 - needs the checkout root on the path

HASH_SEED = "0"
#: The run must end within 180 s; the worker is killed a little before.
TIMEOUT_S = 170


def _show(value) -> str:
    return "—" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input sizes (smoke: the benchmark's own tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no engine sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))))
    command = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale,
    ]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{args.workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"{args.workload} failed with exit code {done.returncode}", file=sys.stderr)
        return done.returncode if done.returncode > 0 else 1
    report = json.loads(done.stdout.strip().splitlines()[-1])

    env_info = report["environment"]
    print(f"{report['workload']}  seed {report['seed']}  trace {int(report['trace'])}  "
          f"queries {report['samples']['query']}  updates {report['samples']['update']}  "
          f"python {env_info['python']}  nproc {env_info['nproc']}  "
          f"load {env_info['load_average']}")
    if not report["trace"]:
        for name, unit in metrics.END_TO_END + metrics.END_TO_END_EXTRA:
            print(f"  {name:<40} {_show(report['end_to_end'][name]):>14} {unit}")
    else:
        for name, unit in metrics.PER_LAYER:
            print(f"  {name:<40} {_show(report['per_layer'][name]):>14} {unit}")
    for known in report["known_defects"]:
        print(f"  known defect: {known['check']} ({known['defect']})")
    for failure in report["failures"]:
        print(f"  failed: {failure}")

    wanted = metrics.PER_LAYER if report["trace"] else metrics.END_TO_END
    values = report["per_layer"] if report["trace"] else report["end_to_end"]
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
