"""The metric catalogue: every name the benchmark reports, its unit and
which direction is better.  ``BENCHMARK.json`` lists the same names (a
self-test keeps the two in step); README.md says what each one means and
which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

# The benchmark's driver requires every listed metric from every
# workload, an end-to-end metric never to be 0, and a time never to read
# the same on every run.  So END_TO_END and PER_LAYER hold what every
# workload measures, and REPORT_ONLY what only some do (a time that does
# not apply would read 0 forever); the report shows all three.

# name -> (unit, better, regression bound).  Measured with tracing off;
# reported by ``--trace 0``.
END_TO_END = {
    "ops_per_s": ("ops/s", "higher", 0.25),
    "op_p50_us": ("us", "lower", 0.25),
    "op_p99_us": ("us", "lower", 0.25),
    "rae_overhead_ratio": ("ratio", "lower", 0.10),
    "recovery_stall_p50_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.05),
    "setup_s": ("s", "lower", 0.25),
}

# The layers of perfbench.trace.BOUNDARIES.  basefs.writeback's self time
# is the tick without the commit it triggers and is named so; the layers
# that run only inside a recovery are stated per recovery.
COMMON_LAYERS = (
    "api", "core.oplog", "basefs.filesystem", "basefs.commit", "basefs.journal_mgr",
    "basefs.dentry_cache", "basefs.inode_cache", "basefs.page_cache", "basefs.allocator",
    "blockdev.cache", "blockdev.blkmq", "blockdev.device",
)
RECOVERY_LAYERS = ("core.reboot", "shadowfs.mount", "shadowfs.replay", "core.handoff", "obs.forensics")
OP_TYPES = ("stat", "readdir", "open", "close", "read", "write", "create", "unlink",
            "rename", "mkdir", "fsync")

# name -> (unit, better).  Reported by ``--trace 1``.
PER_LAYER = {
    "dev_write_amp": ("bytes/byte", "lower"),
    "failed_ops_share": ("fraction", "lower"),
    # traced pass: self time and calls
    **{f"{layer}.self_us_per_op": ("us", "lower") for layer in COMMON_LAYERS},
    "basefs.writeback.tick_self_us_per_op": ("us", "lower"),
    **{f"{layer}.self_ms_per_recovery": ("ms", "lower") for layer in RECOVERY_LAYERS},
    "basefs.commit.self_us_per_commit": ("us", "lower"),
    "basefs.journal_mgr.self_us_per_commit": ("us", "lower"),
    "api.calls_per_op": ("count", "lower"),
    "basefs.allocator.calls_per_op": ("count", "lower"),
    "core.oplog.window_entries_p50": ("count", "lower"),
    "core.oplog.bytes_per_record": ("bytes", "lower"),
    "shadowfs.mount.ms_p50": ("ms", "lower"),
    "obs.forensics.bundle_ms_p50": ("ms", "lower"),
    "harness.trace_overhead_ratio": ("ratio", "lower"),
    "harness.trace_self_coverage": ("ratio", "higher"),
    "harness.traced_op_mean_us": ("us", "lower"),
    # untraced pass: deltas of the program's own stats over the measured region
    "core.oplog.records_per_op": ("count", "lower"),
    "basefs.dentry_cache.hit_rate": ("fraction", "higher"),
    "basefs.inode_cache.hit_rate": ("fraction", "higher"),
    "basefs.inode_cache.evictions": ("count", "lower"),
    "basefs.page_cache.hit_rate": ("fraction", "higher"),
    "basefs.page_cache.evictions": ("count", "lower"),
    "basefs.page_cache.readahead_loads": ("count", "lower"),
    "basefs.writeback.commits_per_kop": ("count", "lower"),
    "basefs.writeback.pressure_commit_share": ("fraction", "lower"),
    "basefs.journal_mgr.blocks_per_commit": ("count", "lower"),
    "basefs.journal_mgr.chunks_per_commit": ("count", "lower"),
    "blockdev.cache.hit_rate": ("fraction", "higher"),
    "blockdev.cache.writebacks": ("count", "lower"),
    "blockdev.cache.forced_evictions": ("count", "lower"),
    "blockdev.blkmq.submitted_per_op": ("count", "lower"),
    "blockdev.blkmq.merged_share": ("fraction", "higher"),
    "blockdev.blkmq.max_queue_depth": ("count", "lower"),
    "blockdev.device.reads_per_op": ("count", "lower"),
    "blockdev.device.writes_per_op": ("count", "lower"),
    "blockdev.device.flushes_per_op": ("count", "lower"),
    "blockdev.device.image_copy_s": ("s", "lower"),
    # untraced pass: recovery phases as the supervisor times them
    "core.reboot.ms_p50": ("ms", "lower"),
    "basefs.filesystem.mount_ms": ("ms", "lower"),
    "core.reboot.post_recovery_p50_ratio": ("ratio", "lower"),
    "shadowfs.replay.ms_p50": ("ms", "lower"),
    "shadowfs.replay.us_per_replayed_op": ("us", "lower"),
    "shadowfs.replay.checks_per_op": ("count", "lower"),
    "core.recovery.replayed_ops": ("count", "lower"),
    "core.handoff.ms_p50": ("ms", "lower"),
    "core.recovery.other_ms_p50": ("ms", "lower"),
    # what explains a moved setup_s or a noisy run
    "bare.ops_per_s": ("ops/s", "higher"),
    "harness.calibration_per_s": ("1/s", "higher"),
    "harness.gen_s": ("s", "lower"),
    "harness.image_build_s": ("s", "lower"),
    "harness.oracle_s": ("s", "lower"),
    "harness.rounds": ("count", "higher"),
}

# name -> (unit, better).  In the report and ``--out`` only.
REPORT_ONLY = {
    "recovery_stall_p90_ms": ("ms", "lower"),
    **{f"op.{kind}.p50_us": ("us", "lower") for kind in OP_TYPES},
}

UNITS = {name: spec[0] for name, spec in {**END_TO_END, **PER_LAYER, **REPORT_ONLY}.items()}

# Metrics that are exact counts of the program's own work: the same seed
# gives the same value on every run.
COUNT_TYPED = frozenset(
    name
    for name, (unit, _better) in PER_LAYER.items()
    if unit in ("count", "fraction", "bytes", "bytes/byte") and not name.startswith("harness.")
)


def benchmark_json(workloads) -> dict:
    """The content of ``BENCHMARK.json`` for this catalogue."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 8,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }
