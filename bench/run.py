#!/usr/bin/env python3
"""Benchmark of the equichow engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this process, on one thread, as a
closed loop: each pass starts when the previous one has returned.  The
engine is imported from `src/` of the checkout that holds this file.

With `--trace 0` it times passes until S seconds have gone by and reports
the end-to-end metrics.  With `--trace 1` it alternates two untraced
passes with two passes whose engine functions are wrapped from outside
(layers.py), and reports the per-layer metrics; the spans go to
`.bench_work/spans/<workload>.tsv.gz`.

Every pass checks the engine's outputs.  The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
TRACED_PASSES = 2  # each after an untraced pass, for trace.overhead_s


def load_engine():
    """Import the engine from this checkout's src/, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import equichow
    except ImportError as exc:
        sys.exit(f"error: cannot import equichow from {SRC}: {exc}")
    if Path(equichow.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: equichow was imported from {equichow.__file__}, not {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("certify-d10", "push-mix", "ideal-mix")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def workdir(workload: str) -> Path:
    path = WORK / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def probe_setup(args) -> int:
    """Child side of setup_s: import the engine and build the inputs."""
    start = time.perf_counter()
    load_engine()
    from workloads import WORKLOADS

    work = workdir(args.workload)
    try:
        WORKLOADS[args.workload].setup(args.seed, work)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def measure_setup(args) -> float:
    """Median set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def tail(samples):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value).  With ten samples or fewer no percentile has ten
    beyond it, and the slowest sample (p100) stands in."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


class Tally:
    """Items attempted and failed over every pass, and output agreement."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.problems = []

    def add(self, result, label: str):
        self.attempted += result.attempted
        self.failed += result.failed
        self.problems += [f"{label}: {e}" for e in result.errors]
        if self.reference is None:
            self.reference = result.output
        elif result.output != self.reference:
            self.problems.append(f"{label}: outputs differ from the first pass")


def timed(workload, state):
    start = time.perf_counter()
    result = workload.run(state)
    return result, time.perf_counter() - start


def run_untraced(args, workload, state, tally: Tally):
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        result, wall = timed(workload, state)
        tally.add(result, f"pass {len(walls) + 1}")
        walls.append(wall)
    setup_s = measure_setup(args)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pct, slow = tail(walls)
    print("pass wall_s: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"wall_s_tail is p{pct:.1f} of {len(walls)} passes")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "wall_s_tail": (slow, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def run_traced(args, workload, state, tally: Tally):
    import layers
    from spans import Tracer

    tracer = Tracer()
    untraced, recordings = [], []
    for k in range(TRACED_PASSES):
        result, wall = timed(workload, state)
        tally.add(result, f"untraced pass {k + 1}")
        untraced.append(wall)
        layers.install(tracer)
        try:
            result, wall = timed(workload, state)
        finally:
            tracer.restore()
        tally.add(result, f"traced pass {k + 1}")
        recordings.append((tracer.take(), wall))
    for name in sorted(set(tracer.missing)):
        print(f"note: boundary {name} not found; its metrics read 0", file=sys.stderr)

    overhead = statistics.mean(w for _, w in recordings) - statistics.mean(untraced)
    views = [layers.View(rec, overhead) for rec, _ in recordings]
    values = [layers.metrics(v) for v in views]
    if any(v.counts != views[0].counts for v in views):
        tally.problems.append("traced passes gave different counters")
    metrics = {}
    for layer in layers.LAYERS:
        if layer.unit == "s":
            value = statistics.mean(v[layer.name] for v in values)
        else:
            value = values[0][layer.name]
            if any(v[layer.name] != value for v in values):
                tally.problems.append(f"{layer.name} differs between traced passes")
        metrics[layer.name] = (value, layer.unit)

    for problem in layers.map_mismatches(args.workload, {k: v for k, (v, _) in metrics.items()}):
        print(f"layer map: {problem}", file=sys.stderr)
    if args.workload == "certify-d10":
        share = metrics["pipeline.patching_s"][0] / statistics.mean(w for _, w in recordings)
        print(f"patching share of a traced pass: {share:.1%}")

    out = WORK / "spans"
    out.mkdir(parents=True, exist_ok=True)
    with gzip.open(out / f"{args.workload}.tsv.gz", "wt", compresslevel=1) as fh:
        fh.write("pass\tid\tparent\tname\tstart\tend\n")
        for k, (rec, _) in enumerate(recordings):
            rec.write(fh, str(k + 1))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("EQUICHOW_SEED", None)
    if args.probe_setup:
        return probe_setup(args)
    load_engine()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = workdir(args.workload)
    tally = Tally()
    try:
        state = workload.setup(args.seed, work)
        run = run_traced if args.trace else run_untraced
        metrics = run(args, workload, state, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    failed_frac = tally.failed / tally.attempted
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"  failed_frac {failed_frac:.6g} ratio ({tally.failed} of {tally.attempted} items)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
