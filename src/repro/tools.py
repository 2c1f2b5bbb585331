"""Command-line toolbox: ``python -m repro.tools <command>``.

Operates on image files (the :class:`FileBlockDevice` format):

* ``mkfs <image> [--blocks N]`` — create and format an image;
* ``fsck <image> [--repair]`` — check (and optionally repair) an image;
* ``inspect <image>`` — superblock, accounting, and namespace dump;
* ``ls <image> <path>`` / ``cat <image> <path>`` — read-only access
  through the *shadow* implementation (never writes, checks everything:
  the safe way to look at an untrusted image);
* ``bugstudy`` — print Table 1 and Figure 1 from the study dataset;
* ``verify [--depth N]`` — run the bounded-exhaustive shadow-vs-spec
  refinement check;
* ``trustbase`` — the §4.3 trusted-code-size report;
* ``report`` (also installed as ``rae-report``) — run a seeded workload
  with fault injection under the supervisor and print the observability
  report: metrics snapshot, per-layer self-time table and the recovery
  span timeline (docs/OBSERVABILITY.md);
* ``bundle <file>`` — pretty-print a forensic bundle written with
  ``report --bundle`` (or ``--json`` to re-emit it normalized);
* ``timeline <file>`` — merge the spans and events of a snapshot
  written with ``report --json`` into one causally-ordered timeline.

``rae-report`` dispatches to ``report``/``bundle``/``timeline`` when the
first argument names one of them, and defaults to ``report`` otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.blockdev.device import FileBlockDevice
from repro.errors import FsError
from repro.ondisk.layout import BLOCK_SIZE
from repro.ondisk.mkfs import mkfs
from repro.ondisk.superblock import Superblock


def _open_image(path: str, readonly: bool = True) -> FileBlockDevice:
    if not os.path.exists(path):
        sys.exit(f"error: image {path!r} does not exist")
    with open(path, "rb") as f:
        sb = Superblock.unpack(f.read(BLOCK_SIZE), verify=False)
    block_count = sb.block_count if sb.block_count else os.path.getsize(path) // BLOCK_SIZE
    return FileBlockDevice(path, block_count=max(block_count, 1), readonly=readonly)


def cmd_mkfs(args) -> int:
    device = FileBlockDevice(args.image, block_count=args.blocks)
    sb = mkfs(device)
    device.close()
    print(f"formatted {args.image}: {sb.block_count} blocks, {sb.free_blocks} free, {sb.free_inodes} inodes free")
    return 0


def cmd_fsck(args) -> int:
    from repro.fsck import Fsck, repair_image

    if args.repair:
        device = _open_image(args.image, readonly=False)
        for action in repair_image(device):
            print(f"repair: {action}")
    device = _open_image(args.image, readonly=not args.repair)
    report = Fsck(device).run()
    for finding in report.findings:
        print(finding)
    status = "clean" if report.clean else f"{len(report.errors)} errors"
    print(f"{args.image}: {status} ({report.inodes_scanned} inodes, {report.blocks_referenced} blocks referenced)")
    device.close()
    return 0 if report.clean else 1


def cmd_inspect(args) -> int:
    from repro.ondisk.image import describe, dump_tree

    device = _open_image(args.image)
    info = describe(device)
    sb = info.superblock
    print(f"image          : {args.image}")
    print(f"geometry       : {sb.block_count} blocks x {sb.block_size} B, {sb.group_count} groups")
    print(f"journal        : {sb.journal_blocks} blocks")
    print(f"mount state    : {'clean' if sb.mount_state == 1 else 'DIRTY'} (mounted {sb.mount_count} times)")
    print(f"free           : {sb.free_blocks} blocks / {sb.free_inodes} inodes (superblock)")
    print(f"free (bitmaps) : {info.free_blocks_by_bitmap} blocks / {info.free_inodes_by_bitmap} inodes")
    print(f"live inodes    : {info.live_inodes}")
    print("namespace:")
    for path, ino in sorted(dump_tree(device).items()):
        print(f"  {path}  (ino {ino})")
    device.close()
    return 0


def _shadow_for(args):
    from repro.shadowfs.filesystem import ShadowFilesystem

    return ShadowFilesystem(_open_image(args.image))


def cmd_ls(args) -> int:
    shadow = _shadow_for(args)
    for name in shadow.readdir(args.path):
        full = args.path.rstrip("/") + "/" + name
        st = shadow.lstat(full)
        print(f"{st.ftype.name.lower():9s} {st.nlink:3d} {st.size:10d}  {name}")
    return 0


def cmd_cat(args) -> int:
    shadow = _shadow_for(args)
    fd = shadow.open(args.path)
    try:
        size = shadow.lstat(args.path).size if not args.path else shadow.stat(args.path).size
        sys.stdout.buffer.write(shadow.read(fd, size))
    finally:
        shadow.close(fd)
    return 0


def cmd_replay(args) -> int:
    """Replay a JSON-lines trace against an image through the shadow
    (read-only: effects land in the overlay, the image is untouched) and
    diff actual vs recorded outcomes — the §4.3 post-error workflow."""
    from repro.workloads.trace import replay_trace

    shadow = _shadow_for(args)
    with open(args.trace, "r") as stream:
        results = replay_trace(shadow, stream)
    mismatches = [
        (index, actual, recorded)
        for index, actual, recorded in results
        if recorded is not None and not actual.same_outcome_as(recorded)
    ]
    print(f"replayed {len(results)} operations from {args.trace}")
    for index, actual, recorded in mismatches[:20]:
        print(f"  DISCREPANCY at op {index}: recorded {recorded}, shadow produced {actual}")
    print(f"{len(mismatches)} discrepancies" if mismatches else "no discrepancies")
    return 1 if mismatches else 0


def cmd_bugstudy(args) -> int:
    from repro.bugstudy import build_dataset, build_figure1, build_table1

    records = build_dataset()
    print(build_table1(records).render())
    print()
    print(build_figure1(records).render())
    return 0


def cmd_verify(args) -> int:
    from repro.spec.verifier import BoundedVerifier

    result = BoundedVerifier(max_depth=args.depth).run()
    print(f"checked {result.sequences_checked} sequences ({result.ops_executed} ops) at depth {args.depth}")
    for divergence in result.divergences[:20]:
        print(f"  DIVERGENCE: {divergence}")
    print("refinement holds" if result.ok else f"{len(result.divergences)} divergences")
    return 0 if result.ok else 1


def cmd_trustbase(args) -> int:
    from repro.core.trustbase import trusted_code_report

    print(trusted_code_report().render())
    return 0


def cmd_scrub(args) -> int:
    from repro.core.scrubber import Scrubber
    from repro.ondisk.superblock import Superblock
    from repro.shadowfs.checks import CheckLevel

    device = _open_image(args.image)
    layout = Superblock.unpack(device.read_block(0), verify=False).layout()
    level = CheckLevel.FULL if args.full else CheckLevel.BASIC
    scrubber = Scrubber(device, layout, check_level=level)
    findings = scrubber.full_pass()
    print(
        f"scrubbed {scrubber.stats.inodes_scanned} inodes, "
        f"{scrubber.stats.dir_blocks_scanned} directory blocks ({level.name} checks)"
    )
    for finding in findings:
        print(f"  FINDING: {finding}")
    print(f"{len(findings)} findings" if findings else "image is sound")
    device.close()
    return 1 if findings else 0


def cmd_report(args) -> int:
    """rae-report: run a seeded workload under the supervisor (with a
    deterministic injected BUG every ``--fault-every`` directory inserts)
    and print the full observability report — supervisor summary, metric
    snapshot, per-layer self-time table, recovery span timeline —
    optionally exporting JSON."""
    from repro.basefs.hooks import HookPoints
    from repro.bench import format_table, make_device
    from repro.core.supervisor import RAEConfig, RAEFilesystem
    from repro.errors import KernelBug, RecoveryFailure
    from repro.obs import write_snapshot
    from repro.workloads import WorkloadGenerator, varmail_profile

    hooks = HookPoints()
    if args.fault_every > 0:
        fired = {"count": 0}

        def inject(point, ctx):
            fired["count"] += 1
            if fired["count"] % args.fault_every == 0:
                raise KernelBug(f"injected dir.insert bug #{fired['count']}", bug_id="report-demo")

        hooks.register("dir.insert", inject)

    fs = RAEFilesystem(make_device(16384), RAEConfig(), hooks=hooks)
    operations = WorkloadGenerator(varmail_profile(), seed=args.seed).ops(args.ops)
    failed = 0
    for index, operation in enumerate(operations):
        try:
            operation.apply(fs, opseq=index + 1)
        except RecoveryFailure as exc:
            print(f"recovery failed at op {index}: {exc}", file=sys.stderr)
            failed += 1
            break
    fs.unmount()

    print(fs.report())
    snapshot = fs.obs.snapshot()
    print()
    print("metrics snapshot")
    for section in ("counters", "gauges", "collected"):
        for name, value in snapshot[section].items():
            if isinstance(value, float):
                value = f"{value:.6g}"
            print(f"  {name} = {value}")
    for name, hist in snapshot["histograms"].items():
        mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
        print(
            f"  {name}: count={hist['count']} mean={mean * 1e6:.1f}us "
            f"p50={(hist['p50'] or 0) * 1e6:.1f}us p95={(hist['p95'] or 0) * 1e6:.1f}us "
            f"p99={(hist['p99'] or 0) * 1e6:.1f}us "
            f"min={(hist['min'] or 0) * 1e6:.1f}us max={(hist['max'] or 0) * 1e6:.1f}us"
        )
    if fs.profiler is not None:
        print()
        print(format_table(
            ["layer", "self_s", "share", "calls", "p50us", "p95us", "p99us"],
            [
                [
                    layer,
                    entry["self_seconds"],
                    f"{entry['share'] * 100:.1f}%",
                    entry["calls"],
                    *((entry[q] or 0.0) * 1e6 for q in ("p50", "p95", "p99")),
                ]
                for layer, entry in fs.profiler.layer_summary().items()
            ],
            title="per-layer self-time (percentiles are of per-op self-time in that layer)",
        ))
    timeline = fs.obs.tracer.timeline()
    if timeline:
        print()
        print("recovery timeline")
        print(timeline)
    if args.json:
        path = write_snapshot(args.json, fs.obs, meta={"ops": args.ops, "seed": args.seed})
        print(f"\nwrote {path}")
    if args.bundle:
        from repro.obs import write_bundle

        if fs.last_bundle is None:
            print("no recoveries ran; no forensic bundle to write", file=sys.stderr)
            return 1
        path = write_bundle(args.bundle, fs.last_bundle)
        print(f"wrote forensic bundle {path}")
    return 1 if failed else 0


def cmd_bundle(args) -> int:
    """rae-report bundle: pretty-print (or re-emit as JSON) a forensic
    bundle file written by ``report --bundle``."""
    import json

    from repro.obs import load_bundle, render_bundle

    try:
        bundle = load_bundle(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        json.dump(bundle, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(render_bundle(bundle))
    return 0


def cmd_timeline(args) -> int:
    """rae-report timeline: merge a snapshot's spans and events into one
    causally-ordered timeline.  Accepts either a ``report --json`` file
    ({"meta", "snapshot"}) or a raw registry snapshot."""
    import json

    from repro.obs import merge_timeline, render_timeline

    try:
        with open(args.file, "r", encoding="utf-8") as f:
            payload = json.load(f)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.file}: not valid JSON: {exc}", file=sys.stderr)
        return 2
    snapshot = payload.get("snapshot", payload) if isinstance(payload, dict) else None
    if not isinstance(snapshot, dict) or "spans" not in snapshot or "events" not in snapshot:
        print(
            f"error: {args.file}: not a registry snapshot (expected 'spans' and 'events')",
            file=sys.stderr,
        )
        return 2
    merged = merge_timeline(snapshot["spans"], snapshot["events"])
    if args.json:
        json.dump(merged, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(render_timeline(merged))
    return 0


def cmd_experiments(args) -> int:
    """Regenerate every paper table/figure and ablation in one command
    (wraps the pytest benchmark suite with output unbuffered)."""
    import subprocess

    here = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    benchmarks = os.path.join(here, "benchmarks")
    if not os.path.isdir(benchmarks):
        sys.exit("error: benchmarks/ not found; run from a source checkout")
    return subprocess.call(
        [sys.executable, "-m", "pytest", benchmarks, "--benchmark-only", "-q", "-s"]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.tools", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mkfs", help="create and format an image file")
    p.add_argument("image")
    p.add_argument("--blocks", type=int, default=8192)
    p.set_defaults(func=cmd_mkfs)

    p = sub.add_parser("fsck", help="check (optionally repair) an image")
    p.add_argument("image")
    p.add_argument("--repair", action="store_true")
    p.set_defaults(func=cmd_fsck)

    p = sub.add_parser("inspect", help="superblock + namespace dump")
    p.add_argument("image")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("ls", help="list a directory via the shadow")
    p.add_argument("image")
    p.add_argument("path")
    p.set_defaults(func=cmd_ls)

    p = sub.add_parser("cat", help="print a file via the shadow")
    p.add_argument("image")
    p.add_argument("path")
    p.set_defaults(func=cmd_cat)

    p = sub.add_parser("replay", help="replay a trace via the shadow, diff outcomes")
    p.add_argument("image")
    p.add_argument("trace")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("bugstudy", help="print Table 1 and Figure 1")
    p.set_defaults(func=cmd_bugstudy)

    p = sub.add_parser("verify", help="bounded shadow-vs-spec refinement")
    p.add_argument("--depth", type=int, default=2)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("trustbase", help="trusted-code-size report (§4.3)")
    p.set_defaults(func=cmd_trustbase)

    p = sub.add_parser("scrub", help="integrity-patrol an image (read-only)")
    p.add_argument("image")
    p.add_argument("--full", action="store_true", help="cross-structure checks too")
    p.set_defaults(func=cmd_scrub)

    p = sub.add_parser("report", help="run a workload under RAE, print the observability report")
    p.add_argument("--ops", type=int, default=300, help="workload length (default 300)")
    p.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    p.add_argument(
        "--fault-every",
        type=int,
        default=40,
        help="inject a KernelBug every Nth directory insert (0 disables; default 40)",
    )
    p.add_argument("--json", metavar="PATH", help="also export the snapshot as JSON")
    p.add_argument(
        "--bundle", metavar="PATH",
        help="also export the last recovery's forensic bundle as JSON",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("bundle", help="pretty-print a forensic bundle file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="re-emit the bundle as JSON")
    p.set_defaults(func=cmd_bundle)

    p = sub.add_parser("timeline", help="merge a snapshot's spans + events into one timeline")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="emit the merged timeline as JSON")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("experiments", help="regenerate all tables/figures/ablations")
    p.set_defaults(func=cmd_experiments)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FsError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def rae_report_main() -> int:
    """Console-script entry: ``rae-report`` dispatches to its own
    subcommands (``report``/``bundle``/``timeline``) when named, and
    defaults to ``report`` so ``rae-report --ops 500`` keeps
    working."""
    argv = sys.argv[1:]
    if argv and argv[0] in ("report", "bundle", "timeline"):
        return main(argv)
    return main(["report", *argv])


if __name__ == "__main__":
    sys.exit(main())
