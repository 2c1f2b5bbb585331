"""Ablation — recovery time (§4.3).

"Even though recovery performance is not a primary concern for the
shadow filesystem, recovery time does impact the expected response time
observed by applications with in-flight operations."

Two sweeps:

* recovery latency vs **op-log length** (the window since the last
  commit): replay dominates, so latency grows roughly linearly;
* recovery latency vs **image size**: mount/replay touch per-group
  metadata, so the dependence is mild — the shadow only reads what the
  window needs.

And one machine-independent budget: what the shadow spends replaying an
op, relative to what the base spent executing it (same window, same
process).  The shadow re-reads and re-checks everything, so the ratio
is above 1 by design; the budget keeps it the price of those checks and
not of waste in the format primitives under them.
"""

import gc
import random
import time
import tracemalloc

from repro.api import OpenFlags, op
from repro.basefs.filesystem import BaseFilesystem
from repro.basefs.hooks import HookPoints
from repro.basefs.writeback import WritebackPolicy
from repro.bench import make_device
from repro.bench.reporting import format_table, print_banner
from repro.core.supervisor import RAEConfig, RAEFilesystem
from repro.errors import KernelBug
from repro.workloads import WorkloadGenerator, fileserver_profile

HUGE_INTERVAL = WritebackPolicy(
    dirty_page_high_water=10_000, dirty_metadata_high_water=10_000, commit_interval_ops=100_000
)


def trigger_hooks() -> HookPoints:
    """Hooks under which ``mkdir("/trigger-now")`` meets a kernel bug."""
    hooks = HookPoints()

    def bomb(point, ctx):
        if ctx.get("name") == "trigger-now":
            raise KernelBug("measured failure")

    hooks.register("dir.insert", bomb)
    return hooks


def recovery_latency(window_ops: int, block_count: int = 16384) -> tuple[float, int]:
    """Build a window of ``window_ops`` uncommitted ops, then trigger a
    bug and measure the recovery the supervisor performs."""
    hooks = trigger_hooks()
    # A journal sized for the giant uncommitted window this sweep builds
    # (the clamped write-back policy would otherwise commit early).
    device = make_device(block_count, journal_blocks=768)
    fs = RAEFilesystem(device, RAEConfig(), hooks=hooks, writeback_policy=HUGE_INTERVAL)
    operations = WorkloadGenerator(fileserver_profile(), seed=55).ops(window_ops, include_prepopulation=False)
    for operation in operations:
        if operation.name == "fsync":
            continue  # an fsync is a durability point: it would truncate the window
        try:
            operation.apply(fs)
        except Exception:  # noqa: BLE001 — errno noise is fine
            pass
    window = len(fs.oplog)
    fs.mkdir("/trigger-now")
    assert fs.recovery_count == 1
    return fs.stats.recovery.total_seconds[0], window


# Measured 1.66-2.03x over twelve runs on a shared 2-core VM (65-81 vs
# 33-43 us per op); the budget is the worst run plus ~40 %.  It was
# 2.46-2.75x (89-125 vs 35-51 us) while every inode read and directory
# lookup made several passes over its block, and 7.5x (259 vs 34) while
# Bitmap.find_free walked bit by bit.
REPLAY_COST_BUDGET = 2.8
REPLAY_COST_ROUNDS = 5


def _replay_and_base_us_per_op(window_ops: int = 200) -> tuple[float, float, int]:
    """One long-window recovery: (shadow replay µs per replayed op, bare
    base µs per op over the ops that were replayed, replayed ops)."""
    operations = [
        operation
        for operation in WorkloadGenerator(fileserver_profile(), seed=57).ops(window_ops)
        if operation.name != "fsync"  # a durability point would truncate the window
    ]
    fs = RAEFilesystem(
        make_device(16384, journal_blocks=768), RAEConfig(), hooks=trigger_hooks(), writeback_policy=HUGE_INTERVAL
    )
    base = BaseFilesystem(make_device(16384, journal_blocks=768), writeback_policy=HUGE_INTERVAL)
    base_seconds = 0.0
    for index, operation in enumerate(operations):
        operation.apply(fs)
        start = time.perf_counter()
        operation.apply(base, opseq=index + 1)
        if operation.is_mutation:  # what the op log records and replay re-executes
            base_seconds += time.perf_counter() - start
    window = len(fs.oplog)
    fs.mkdir("/trigger-now")
    assert fs.recovery_count == 1
    replayed = fs.stats.events[0].replayed_ops
    assert replayed == window + 1
    return fs.stats.recovery.replay_seconds[0] * 1e6 / replayed, base_seconds * 1e6 / window, replayed


def test_replay_cost_relative_to_base(benchmark):
    benchmark(_replay_and_base_us_per_op)

    runs = [_replay_and_base_us_per_op() for _ in range(REPLAY_COST_ROUNDS)]
    # min is the noise-robust estimator; both sides come from one process.
    replay_us = min(run[0] for run in runs)
    base_us = min(run[1] for run in runs)
    ratio = replay_us / base_us
    print_banner(f"Replay cost relative to the base ({runs[0][2]} replayed ops, best of {REPLAY_COST_ROUNDS})")
    print(
        format_table(
            ["side", "us per op", "relative"],
            [["base (caches, no checks)", base_us, 1.0], ["shadow replay (no caches, FULL checks)", replay_us, ratio]],
        )
    )
    assert ratio <= REPLAY_COST_BUDGET, (
        f"shadow replay costs {ratio:.2f}x the base per op (budget {REPLAY_COST_BUDGET}x): "
        "replay should cost what its checks cost"
    )


FEW_PAGES = 64
MANY_PAGES = 4000
STALL_ROUNDS = 15
# A ratio of two stalls from one process, so it does not depend on the
# machine.  Measured 1.38-1.54 over twelve best-of-15 repetitions, and
# 2.30-2.61 while the reboot copied and re-sorted the page cache and the
# hand-off scanned all of it for the window's files.  The budget leaves
# headroom for a noisy runner and still fails the whole-cache stall.
STALL_COST_BUDGET = 2.0


def _stall_rig(clean_pages: int) -> RAEFilesystem:
    """A supervisor whose page cache holds ``clean_pages`` clean pages of
    one file, cached in random order as a cold-data workload's LRU holds
    them, with an empty op-log window."""
    hooks = HookPoints()

    def bomb(point, ctx):
        if str(ctx.get("name", "")).startswith("trigger-"):
            raise KernelBug("measured failure")

    hooks.register("dir.insert", bomb)
    fs = RAEFilesystem(make_device(16384), RAEConfig(), hooks=hooks)
    fd = fs.open("/cold", OpenFlags.CREAT)
    fs.write(fd, b"c" * (clean_pages * 4096))
    fs.fsync(fd)
    fs.base.page_cache.drop_all()
    for logical in random.Random(7).sample(range(clean_pages), clean_pages):
        fs.lseek(fd, logical * 4096, 0)
        fs.read(fd, 4096)
    fs.close(fd)
    fs.base.commit()  # the reads leave no window behind
    assert len(fs.base.page_cache) == clean_pages and fs.base.dirty_page_count() == 0
    return fs


def _timed_stall(fs: RAEFilesystem, round_: int) -> float:
    """Build a three-op window, then time the trigger call as the
    application sees it: detection, reboot, replay, hand-off, bundle and
    the post-recovery commit."""
    fd = fs.open(f"/w{round_}", OpenFlags.CREAT)
    fs.write(fd, b"w" * 100)
    fs.close(fd)
    recoveries = fs.recovery_count
    start = time.perf_counter()
    fs.mkdir(f"/trigger-{round_}")
    elapsed = time.perf_counter() - start
    assert fs.recovery_count == recoveries + 1
    return elapsed


def test_recovery_cost_follows_the_window(benchmark):
    """One recovery of the same three-op window with 4 000 clean pages
    cached costs about what it costs with 64 cached: a stall pays for
    what its window touched, not for what the page cache holds.  What is
    left of the page cache's size is the reboot's dirty-flag clear and
    the post-commit and post-op passes that look for dirty pages."""
    crowded = _stall_rig(MANY_PAGES)
    sparse = _stall_rig(FEW_PAGES)
    rounds = iter(range(10_000))
    benchmark.pedantic(lambda: _timed_stall(crowded, next(rounds)), rounds=3, iterations=1)
    # min is the noise-robust estimator; the two sides alternate so
    # machine drift hits both alike.
    runs = [(_timed_stall(crowded, next(rounds)), _timed_stall(sparse, next(rounds))) for _ in range(STALL_ROUNDS)]
    many = min(run[0] for run in runs)
    few = min(run[1] for run in runs)
    ratio = many / few
    print_banner(f"Recovery stall of a 3-op window vs clean pages cached (best of {STALL_ROUNDS})")
    print(
        format_table(
            ["pages cached", "stall ms", "relative"],
            [[FEW_PAGES, few * 1000, 1.0], [MANY_PAGES, many * 1000, ratio]],
        )
    )
    assert ratio <= STALL_COST_BUDGET, (
        f"a 3-op recovery stalls {ratio:.2f}x longer with {MANY_PAGES} clean pages cached than with "
        f"{FEW_PAGES} (budget {STALL_COST_BUDGET}x): nothing in a stall should walk the whole page cache"
    )


RETAIN_WARMUP = 20
RETAIN_RECOVERIES = 50
# Bytes counted by tracemalloc, so the figure does not depend on the
# machine's speed.  Measured 18.5 KiB in each of twelve repetitions
# (Python 3.11): the bounded rings and the detector history filling, and
# the last rebooted base's caches.  163.0 KiB in each of twelve while
# every failed base stayed alive with its allocation bitmaps, pinned by
# the detector history's traceback frames and by its own reference
# cycles.  Only Python 3.11 was measured; CI runs 3.12.  The budget
# covers that: the 18.5 KiB is ~160 small heap blocks, and 3.12
# lays objects and frames out as 3.11 does, so it would take per-object
# sizes more than twice 3.11's to reach 40 KiB.  A leaked base costs at
# least its 32 bitmap bytearrays, 128 KiB of data on any interpreter.
RETAIN_BUDGET_KIB = 40.0


def _retained_kib_per_recovery() -> float:
    """Heap bytes still allocated per recovery after ``RETAIN_RECOVERIES``
    recoveries of a window that writes no new data (a directory made and
    removed), once the collector has run."""
    fs = RAEFilesystem(make_device(16384), RAEConfig(), hooks=trigger_hooks())

    def recover():
        fs.mkdir("/d")
        fs.rmdir("/d")
        fs.mkdir("/trigger-now")
        fs.rmdir("/trigger-now")

    for _ in range(RETAIN_WARMUP):
        recover()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(RETAIN_RECOVERIES):
            recover()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert fs.recovery_count == RETAIN_WARMUP + RETAIN_RECOVERIES
    return retained / RETAIN_RECOVERIES / 1024


def test_recovery_retains_nothing(benchmark):
    """A recovery leaves nothing of the base it discarded: what the heap
    keeps per recovery is the supervisor's own bounded rings filling up
    and its per-recovery timing lists, not a dead filesystem."""
    kib = benchmark.pedantic(_retained_kib_per_recovery, rounds=1, iterations=1)
    print_banner(f"Heap retained per recovery ({RETAIN_RECOVERIES} recoveries, no new data)")
    print(format_table(["KiB per recovery", "budget KiB"], [[kib, RETAIN_BUDGET_KIB]]))
    assert kib <= RETAIN_BUDGET_KIB, (
        f"each recovery leaves {kib:.1f} KiB on the heap (budget {RETAIN_BUDGET_KIB} KiB): "
        "something still keeps the failed base alive"
    )


def test_recovery_time_vs_oplog_length(benchmark):
    benchmark(recovery_latency, 50)

    rows = []
    latencies = {}
    for window_ops in (10, 50, 200, 800):
        latency, window = recovery_latency(window_ops)
        latencies[window_ops] = latency
        rows.append([window_ops, window, latency * 1000])
    print_banner("Recovery time vs op-log length (uncommitted window)")
    print(format_table(["workload ops", "recorded entries", "recovery ms"], rows))
    # Longer windows must cost more to replay (generous 1.5x guard
    # against timer noise at the small end).
    assert latencies[800] > latencies[10] * 1.5


def test_recovery_time_vs_image_size(benchmark):
    benchmark(recovery_latency, 100, 4096)
    rows = []
    latencies = {}
    for block_count in (4096, 16384, 65536):
        latency, _ = recovery_latency(100, block_count=block_count)
        latencies[block_count] = latency
        rows.append([f"{block_count * 4 // 1024} MiB", block_count, latency * 1000])
    print_banner("Recovery time vs image size (fixed 100-op window)")
    print(format_table(["image", "blocks", "recovery ms"], rows))
    # Image size must matter far less than linearly (16x size, < 8x time).
    assert latencies[65536] < latencies[4096] * 8


def test_recovery_phase_breakdown_is_replay_dominated(benchmark):
    benchmark(recovery_latency, 50)
    device = make_device(16384, journal_blocks=768)
    fs = RAEFilesystem(device, RAEConfig(), hooks=trigger_hooks(), writeback_policy=HUGE_INTERVAL)
    for operation in WorkloadGenerator(fileserver_profile(), seed=56).ops(400, include_prepopulation=False):
        if operation.name == "fsync":
            continue
        try:
            operation.apply(fs)
        except Exception:  # noqa: BLE001
            pass
    fs.mkdir("/trigger-now")
    recovery = fs.stats.recovery
    print_banner("Recovery phase breakdown (400-op window)")
    print(
        format_table(
            ["phase", "ms", "share"],
            [
                ["contained reboot", recovery.reboot_seconds[0] * 1000,
                 f"{recovery.reboot_seconds[0] / recovery.total_seconds[0]:.0%}"],
                ["shadow replay", recovery.replay_seconds[0] * 1000,
                 f"{recovery.replay_seconds[0] / recovery.total_seconds[0]:.0%}"],
                ["hand-off", recovery.handoff_seconds[0] * 1000,
                 f"{recovery.handoff_seconds[0] / recovery.total_seconds[0]:.0%}"],
            ],
        )
    )
    assert recovery.replay_seconds[0] > recovery.handoff_seconds[0]
