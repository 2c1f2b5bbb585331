#!/usr/bin/env python3
"""perfbench entry point.

Two ways to call it, one code path:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process.  The last line of standard output is
    one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
    with ``--trace 0`` the end-to-end metrics (tracing off), with
    ``--trace 1`` the per-layer metrics (each round adds a traced pass).

``run.py --seed N [--workload W] [--smoke] [--out FILE]``
    The report: every selected workload, each in a fresh interpreter
    running the line above with ``--trace 1``, then one table of every
    metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Import as the package `perfbench` next to the program's `src`, and keep
# this directory itself off the path: its trace.py would shadow the
# standard library's.
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != HERE]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, REPORT_ONLY, UNITS  # noqa: E402

# One round per workload unless --seconds asks for more.
REPORT_SECONDS = 0.0


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True, help="seed of the op-stream generators")
    parser.add_argument("--workload", choices=list(harness.WORKLOADS), help="run only this workload")
    parser.add_argument("--seconds", type=float, help="measured time per workload (rounds repeat until it has passed)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="run in this process and print the result line")
    parser.add_argument("--smoke", action="store_true",
                        help="op and episode counts divided by 20; the numbers are not comparable")
    parser.add_argument("--out", help="write the full result as JSON to this file")
    parser.add_argument("--trace-out", help="write the first traced pass's spans here, one JSON line each")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    return args


def run_one(args: argparse.Namespace) -> int:
    """One workload, here; prints the result line last."""
    seconds = args.seconds if args.seconds is not None else REPORT_SECONDS
    result = harness.run_workload(
        harness.WORKLOADS[args.workload], args.seed, seconds, traced=bool(args.trace),
        smoke=args.smoke, trace_out=args.trace_out,
    )
    for note in result.failures:
        print(f"FAILED {note}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(vars(result), indent=1))
    names = PER_LAYER if args.trace else END_TO_END
    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        # A per-layer metric that does not apply to the workload reads 0.
        "metrics": {name: {"value": result.metrics.get(name, 0.0), "unit": UNITS[name]} for name in names},
    }
    print(json.dumps(line))
    return 0


def report(args: argparse.Namespace) -> int:
    """Every selected workload in its own interpreter, then the table."""
    names = [args.workload] if args.workload else list(harness.WORKLOADS)
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".report-") as scratch:

        def run_child(name: str) -> int:
            command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                       "--trace", "1", "--out", str(Path(scratch) / f"{name}.json")]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            if args.trace_out:
                command += ["--trace-out", f"{args.trace_out}.{name}"]
            print(f"perfbench: {name} ...", file=sys.stderr, flush=True)
            return subprocess.run(command, stdout=subprocess.DEVNULL).returncode

        # One at a time, so no workload's timing sees another; a smoke
        # run's times mean nothing, so it uses both cores.
        with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
            codes = dict(zip(names, pool.map(run_child, names)))
        for name, code in codes.items():
            if code != 0:
                print(f"perfbench: {name} could not run (exit {code})", file=sys.stderr)
                return 2
        results = {name: json.loads((Path(scratch) / f"{name}.json").read_text()) for name in names}

    full = {"seed": args.seed, "smoke": args.smoke, "comparable": not args.smoke, "workloads": results}
    if args.out:
        Path(args.out).write_text(json.dumps(full, indent=1))
    print_table(results, args)
    failed = sum(result["failed"] for result in results.values())
    return 1 if failed else 0


def print_table(results: dict, args: argparse.Namespace) -> None:
    names = list(results)
    width = max(len(name) for name in UNITS) + 2
    print(f"perfbench seed={args.seed}" + ("  SMOKE RUN: counts divided by 20, numbers not comparable" if args.smoke else ""))
    print(f"{'metric':<{width}}{'unit':<11}" + "".join(f"{name:>21}" for name in names))
    for section, catalogue in (("end to end (tracing off)", END_TO_END), ("per layer", PER_LAYER),
                               ("only where it applies", REPORT_ONLY)):
        print(f"-- {section}")
        for metric in catalogue:
            cells = []
            for name in names:
                value = results[name]["metrics"].get(metric)
                cells.append(f"{'-':>21}" if value is None else f"{value:>21.6g}")
            print(f"{metric:<{width}}{UNITS[metric]:<11}" + "".join(cells))
    for name in names:
        result = results[name]
        print(f"{name}: {result['failed']} failed of {result['attempted']} checked")
        for note in result["failures"]:
            print(f"  FAILED {note}")


def main(argv: list[str] | None = None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    return run_one(args) if args.trace is not None else report(args)


if __name__ == "__main__":
    sys.exit(main())
