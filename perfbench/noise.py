#!/usr/bin/env python3
"""Run-to-run noise of the benchmark, the way its driver measures it.

``python3 perfbench/noise.py --runs 5`` runs every workload ``--runs``
times, each time with another seed, and prints per (metric, workload)
the median, min, max, ``(max-min)/median`` and the distance between the
first and third quartile as a share of the median.  The regression
bounds in ``BENCHMARK.json`` are set from this table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=100, help="seed of the first run; run i uses seed+i")
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = [workload["name"] for workload in spec["workloads"]]

    values: dict[tuple[str, str], list[float]] = {}
    for run in range(args.runs):
        for workload in workloads:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(args.seed + run), "--seconds", str(seconds), "--trace", str(args.trace)]
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 2
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {args.seed + run}: {result['failed']} failed ops", file=sys.stderr)
            for metric, cell in result["metrics"].items():
                values.setdefault((metric, workload), []).append(cell["value"])
            print(f"run {run + 1}/{args.runs} {workload} done", file=sys.stderr, flush=True)

    print(f"{'metric':<42}{'workload':<21}{'median':>13}{'min':>13}{'max':>13}{'range/med':>11}{'iqr/med':>9}")
    for (metric, workload), series in values.items():
        mid = statistics.median(series)
        if not mid:
            continue
        quartiles = statistics.quantiles(series, n=4)
        print(f"{metric:<42}{workload:<21}{mid:>13.6g}{min(series):>13.6g}{max(series):>13.6g}"
              f"{(max(series) - min(series)) / mid:>11.3f}{(quartiles[2] - quartiles[0]) / mid:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
