"""``rae-sweep`` — run the crash-point sweep from the command line.

Exit codes follow the repo's lint/gate convention:

* ``0`` — every swept case recovered clean;
* ``1`` — non-clean outcomes, or a scenario whose unarmed run already
  fails (bugs to triage);
* ``2`` — bad arguments (an unknown scenario or profile).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.sweep.device import CRASH_KINDS
from repro.sweep.engine import PROFILES, SCENARIOS, SweepConfig, SweepEngine, SweepError
from repro.sweep.suites import case_groups, format_report, name_cases, select_cases


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rae-sweep",
        description="Record each scenario's device writes and flushes, crash "
        "after each of them under both crash kinds, and classify recovery.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="single sweep seed; all per-case seeds derive from it")
    parser.add_argument("--ops", nargs="*", default=None, choices=list(SCENARIOS),
                        metavar="OP", help="only sweep these scenarios")
    parser.add_argument("--kinds", nargs="*", default=None, choices=CRASH_KINDS,
                        metavar="KIND", help="crash kinds (default: both)")
    parser.add_argument("--profiles", nargs="*", default=None,
                        choices=sorted(PROFILES), metavar="PROFILE",
                        help="workload profiles for workload-driven scenarios")
    parser.add_argument("--groups", "-g", nargs="*", default=None, metavar="GROUP",
                        help="fstests-style group selection (op, kind, call, profile, auto)")
    parser.add_argument("--nops", type=int, default=20,
                        help="workload length per case (default: %(default)s)")
    parser.add_argument("--block-count", type=int, default=1024)
    parser.add_argument("--journal-blocks", type=int, default=16)
    parser.add_argument("--max-cases", type=int, default=None,
                        help="cap the number of cases, spread evenly over every "
                        "scenario and crash kind (smoke runs)")
    parser.add_argument("--smoke", action="store_true",
                        help="bounded sweep for CI: short workloads, one "
                        "profile, capped case count")
    parser.add_argument("--no-minimize", action="store_true",
                        help="skip delta-minimization of failing cases")
    parser.add_argument("--bundle-dir", default=None,
                        help="write reproducer bundles for failing cases here")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of the listing")
    parser.add_argument("--list", action="store_true", dest="list_only",
                        help="list the case work-list without running it")
    return parser


def _config(args: argparse.Namespace) -> SweepConfig:
    profiles = tuple(args.profiles) if args.profiles else ("fileserver", "varmail")
    nops = args.nops
    max_cases = args.max_cases
    if args.smoke:
        profiles = profiles[:1]
        nops = min(nops, 10)
        if max_cases is None:
            max_cases = 24
    return SweepConfig(
        seed=args.seed,
        profiles=profiles,
        nops=nops,
        block_count=args.block_count,
        journal_blocks=args.journal_blocks,
        crash_kinds=tuple(args.kinds) if args.kinds else CRASH_KINDS,
        ops=tuple(args.ops) if args.ops else None,
        max_cases=max_cases,
        minimize=not args.no_minimize,
    )


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    engine = SweepEngine(_config(args))
    started = time.perf_counter()
    try:
        cases = engine.build_cases()
    except SweepError as exc:
        print(f"rae-sweep: {exc}", file=sys.stderr)
        return 1
    named = select_cases(name_cases(cases), tuple(args.groups) if args.groups else None)

    if args.list_only:
        for name, case in named:
            print(f"{name:<28} {case.ident()}  groups={','.join(case_groups(case))}")
        print(f"{len(named)} cases")
        return 0

    report = engine.run(cases=[case for _, case in named])
    elapsed = time.perf_counter() - started

    if args.bundle_dir and report.reproducers:
        from repro.obs import write_bundle

        for bundle in report.reproducers:
            path = write_bundle(bundle, args.bundle_dir)
            print(f"rae-sweep: wrote reproducer bundle {path}", file=sys.stderr)

    if args.json:
        print(json.dumps({
            "cases": len(report.results),
            "counts": report.outcome_counts(),
            "distinct_final_images": len(report.image_digests),
            "failures": [
                {**result.case.params(), "outcome": result.outcome, "detail": result.detail}
                for result in report.failures
            ],
            "reproducers": len(report.reproducers),
            "seconds": round(elapsed, 2),
        }, indent=2, sort_keys=True))
    else:
        named_results = list(zip((name for name, _ in named), report.results))
        print(format_report(named_results, report))
        print(f"{len(report.results)} cases in {elapsed:.1f} s "
              f"({len(report.results) / elapsed:.1f} cases/s, traces included)")
        print(f"explored: {len(report.results) / elapsed:.1f} cases/s, "
              f"{len(report.image_digests)} distinct final durable images")

    return 1 if report.failures else 0
