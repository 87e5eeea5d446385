#!/usr/bin/env python3
"""Self-check of the layer trace.

    python3 bench/check_layers.py [--seed N]

Runs the traced benchmark twice on every workload, each run in its own
process, and exits 1 unless

* every run checks its outputs correct (the traced outputs equal the
  untraced ones, byte for byte);
* every count metric repeats exactly between the two runs;
* every per-layer metric agrees with the interaction map in layers.py:
  non-zero on the workloads that exercise it, zero where the map says idle;
* BENCHMARK.json lists exactly the per-layer metrics that layers.py derives.

It also prints the share of `pipeline.patching_s` in a traced
certify-d10 pass.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_run(workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        return None, [f"exit code {proc.returncode}: {proc.stderr.strip()}"], proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    problems = [] if result["correct"] else [f"outputs not correct: {proc.stderr.strip()}"]
    return values, problems, proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description="self-check of the layer trace")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    derived = [{"name": l.name, "unit": l.unit, "better": l.better} for l in layers.LAYERS]
    if declared != derived:
        problems.append("BENCHMARK.json per_layer differs from layers.LAYERS")

    for workload in WORKLOADS:
        runs = []
        for k in (1, 2):
            values, found, stdout = traced_run(workload, args.seed)
            problems += [f"{workload} run {k}: {p}" for p in found]
            if values is not None:
                runs.append(values)
                for line in stdout.splitlines():
                    if line.startswith("patching share"):
                        print(f"{workload} run {k}: {line}")
        if len(runs) < 2:
            continue
        for layer in layers.LAYERS:
            if layer.unit != "s" and runs[0][layer.name] != runs[1][layer.name]:
                problems.append(
                    f"{workload}: {layer.name} reads {runs[0][layer.name]}"
                    f" then {runs[1][layer.name]}"
                )
        problems += [f"{workload}: {p}" for p in layers.map_mismatches(workload, runs[0])]
        print(f"{workload}: traced twice")

    for problem in problems:
        print(f"FAIL {problem}")
    print("layer self-check:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
