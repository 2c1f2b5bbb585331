"""Set-up, the measured passes, and the metrics of one workload.

Load shape: closed loop, one client, one process, one thread.  A *round*
restores the committed image into fresh devices, mounts the RAE arm and
the bare arm, runs the untimed warm-up prefix on both, and then runs the
measured region on both, interleaved in blocks of
:data:`perfbench.streams.BLOCK_OPS` ops so machine drift hits both alike.  Rounds repeat on the same image and
stream, each in a child forked from the prepared parent, until
``--seconds`` of measured time have passed (and at least three rounds);
every count comes from the
first round (all rounds give the same counts), every latency and block
time is the best of its repeats over the rounds, the traced numbers are
those of the fastest traced pass, and set-up times are medians over
rounds.
"""

from __future__ import annotations

import gc
import os
import pickle
import random
import resource
import time
import traceback
import zlib
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from statistics import median

from repro.api import FsOp, OpenFlags, OpResult
from repro.basefs import BaseFilesystem, HookPoints
from repro.basefs.writeback import WritebackPolicy
from repro.blockdev import MemoryBlockDevice
from repro.core.supervisor import RAEConfig, RAEFilesystem
from repro.errors import KernelBug
from repro.ondisk.mkfs import mkfs

from perfbench import oracle, streams
from perfbench.metrics import COMMON_LAYERS, OP_TYPES, RECOVERY_LAYERS
from perfbench.stats import percentile_or_none
from perfbench.trace import Tracer

BLOCK_COUNT = 16384
BLOCK_BYTES = 4096
SMOKE_DIVISOR = 20
POST_RECOVERY_OPS = 20
# Best-of-rounds needs repeats: over ten seeds the spread of every timing
# halves from one round to three and barely moves after four.
MIN_ROUNDS = 3
# Episodes of the recovery probe that ends a throughput workload: the
# fewest a p50 can be taken from.
PROBE_EPISODES = 21

# Opened so that nothing commits inside an episode; the image's journal
# is sized for it (BaseFilesystem clamps the marks to a quarter of the
# journal), as benchmarks/test_ablation_recovery_time.py does.
LONG_WINDOW = WritebackPolicy(
    dirty_page_high_water=10_000, dirty_metadata_high_water=10_000, commit_interval_ops=100_000
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    count: int  # measured ops, or episodes when episode_ops is set
    warmup: int  # untimed prefix, in the same unit
    episode_ops: int = 0
    traced_episodes: int = 0
    journal_blocks: int | None = None
    policy: WritebackPolicy | None = None
    durability_ops: int = 0  # leading ops the power-loss check runs over

    @property
    def recovery(self) -> bool:
        return self.episode_ops > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "meta_lookup",
            "cheapest ops on a fully cached tree: supervisor dispatch, path walk and the per-op "
            "write-back tick are nearly all of the time; commit and data path do nothing",
            8_000, 800,
        ),
        Workload(
            "create_churn",
            "namespace writes: allocator, bitmaps, directory blocks, dentry invalidation and a "
            "metadata-pressure commit every few dozen ops",
            4_000, 600,
        ),
        Workload(
            "fsync_mail",
            "one commit per message: journal, blkmq and device writes and flushes dominate; "
            "the workload the power-loss durability check runs on",
            6_000, 500, durability_ops=3_000,
        ),
        Workload(
            "data_cold",
            "24 MiB of files against a 16 MiB page cache: misses, evictions, dirty write-back, "
            "device reads, and read payloads in the op log",
            3_000, 200,
        ),
        Workload(
            "recovery_longwindow",
            "recoveries with ~187-entry op-log windows: shadow replay is most of the stall and "
            "the commit path is bypassed",
            110, 5, episode_ops=200, traced_episodes=20, journal_blocks=768, policy=LONG_WINDOW,
        ),
        Workload(
            "recovery_default",
            "recoveries under the default write-back policy (windows of ~35 entries): reboot, "
            "shadow mount, hand-off and the post-recovery commit are the fixed cost of a stall",
            220, 10, episode_ops=37, traced_episodes=60,
        ),
    )
}


def calibration_per_s() -> float:
    """A fixed pure-Python kernel (CRC over a rolling window plus dict
    churn), best of three; reported so a reader can tell a slow machine
    from a slow program, never used to normalise a metric."""
    payload = bytes(range(256)) * 64
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        crc, table = 0, {}
        for i in range(1500):
            crc = zlib.crc32(payload, crc)
            offset = (i * 97) % (len(payload) - 64)
            table[i & 255] = payload[offset : offset + 64]
        best = min(best, time.perf_counter() - start)
    return 1.0 / best


def _bomb(_point, ctx) -> None:
    if ctx.get("name") == streams.TRIGGER_NAME:
        raise KernelBug("perfbench recovery trigger")


class Prepared:
    """Everything one (workload, seed) needs before an arm can mount:
    the stream, the spec's reference run over it, and the committed,
    cleanly unmounted image."""

    def __init__(self, workload: Workload, seed: int, smoke: bool = False):
        self.workload = workload
        self.image_copy_s = 0.0
        counts = [workload.count, workload.warmup, PROBE_EPISODES]
        if smoke:
            counts = [max(1, count // SMOKE_DIVISOR) for count in counts]

        start = time.perf_counter()
        # One generator per (workload, seed): the seed alone fixes the stream.
        rng = random.Random(f"{workload.name}/{seed}")
        self.stream = streams.make_stream(workload.name, rng, *counts, workload.episode_ops)
        self.gen_s = time.perf_counter() - start

        start = time.perf_counter()
        self.reference = oracle.Reference(self.stream.prepop, self.stream.ops)
        self.oracle_s = time.perf_counter() - start

        start = time.perf_counter()
        device = self._device()
        kwargs = {"journal_blocks": workload.journal_blocks} if workload.journal_blocks else {}
        mkfs(device, **kwargs)
        base = BaseFilesystem(device)
        numbered = oracle.SupervisorNumbering(base)
        for operation in self.stream.prepop:
            operation.apply(numbered)
            base.writeback.tick()
        base.unmount()
        copy_start = time.perf_counter()
        self.image = device.snapshot()
        self.image_copy_s += time.perf_counter() - copy_start
        self.image_build_s = time.perf_counter() - start

        self.op_types = [_op_type(operation) for operation in self.stream.ops]

    def _device(self, image: bytes | None = None) -> MemoryBlockDevice:
        start = time.perf_counter()
        device = MemoryBlockDevice(block_count=BLOCK_COUNT)
        if image is not None:
            device.restore(image)
        self.image_copy_s += time.perf_counter() - start
        return device

    def restored(self) -> MemoryBlockDevice:
        """A fresh device holding the pre-populated image."""
        return self._device(self.image)

    def mount_rae(self, device: MemoryBlockDevice) -> RAEFilesystem:
        """The program as benchmarked: ``RAEConfig(profile=False)``,
        every other field at its default; the bug the triggers trip is
        armed from the start."""
        hooks = HookPoints()
        hooks.register("dir.insert", _bomb)
        return RAEFilesystem(
            device, RAEConfig(profile=False), hooks=hooks, writeback_policy=self.workload.policy
        )

    def mount_bare(self, device: MemoryBlockDevice) -> BaseFilesystem:
        return BaseFilesystem(device, writeback_policy=self.workload.policy)


def _op_type(operation: FsOp) -> str:
    """The op's row in the per-type latency table; a recovery trigger is
    a stall, not a ``mkdir``."""
    if operation.name == "open" and operation.args.get("flags", 0) & OpenFlags.CREAT:
        return "create"
    if operation.args.get("path") == streams.TRIGGER_PATH:
        return "trigger"
    return operation.name


# ----------------------------------------------------------------------
# the timed loops


def _rae_block(fs, ops, lo, hi, lat, out) -> float:
    """Ops ``lo..hi`` on the supervisor; per-op latency around
    ``FsOp.apply``.  An op that raises is left as ``None`` in ``out``."""
    perf = time.perf_counter
    begin = perf()
    i = lo
    while i < hi:
        try:
            for i in range(i, hi):
                operation = ops[i]
                t0 = perf()
                out[i] = operation.apply(fs)
                lat[i] = perf() - t0
        except Exception:  # noqa: BLE001 — boundary that must keep running: the op is counted as failed
            lat[i] = perf() - t0
        i += 1
    return perf() - begin


def _bare_block(base, ops, lo, hi, lat, out, seq) -> tuple[float, int]:
    """The same ops on a bare :class:`BaseFilesystem`, with the per-op
    write-back tick the supervisor would issue and the supervisor's
    numbering (``FsOp.apply`` stats a new directory, which the supervisor
    numbers as a call of its own)."""
    perf = time.perf_counter
    tick = base.writeback.tick
    begin = perf()
    i = lo
    while i < hi:
        try:
            for i in range(i, hi):
                operation = ops[i]
                seq += 1
                t0 = perf()
                out[i] = operation.apply(base, opseq=seq)
                tick()
                lat[i] = perf() - t0
                if operation.name == "mkdir":
                    seq += 1
        except Exception:  # noqa: BLE001 — as in _rae_block
            lat[i] = perf() - t0
        i += 1
    return perf() - begin, seq


def _traced_block(tracer: Tracer, fs, ops, lo, hi, out) -> None:
    for i in range(lo, hi):
        try:
            out[i] = tracer.run_op(i, "api", ops[i].apply, fs)
        except Exception:  # noqa: BLE001 — as in _rae_block
            pass


# ----------------------------------------------------------------------
# counters of the program's own stats objects


class LayerCounters:
    """Deltas of the program's public ``stats`` objects over a region,
    summed across the base instances contained reboots replace."""

    def __init__(self, fs: RAEFilesystem):
        self.fs = fs
        self.totals: Counter = Counter()
        self.max_queue_depth = 0
        self._base = fs.base
        self._base_mark = self._read_base(fs.base)
        self._outer_mark = self._read_outer()
        fs.on_reboot.append(self._rebooted)

    @staticmethod
    def _read_base(base: BaseFilesystem) -> dict[str, int]:
        flat = {}
        for prefix, stats in (
            ("dentry", base.dentry_cache.stats),
            ("inode", base.inode_cache.stats),
            ("page", base.page_cache.stats),
            ("buffer", base.cache.stats),
            ("journal", base.journal.stats),
            ("writeback", base.writeback.stats),
            ("blkmq", base.blkmq.stats),
        ):
            for key, value in vars(stats).items():
                flat[f"{prefix}.{key}"] = value
        return flat

    def _read_outer(self) -> dict[str, int]:
        io, log = self.fs.device.io_stats, self.fs.oplog.stats
        return {
            "device.reads": io.reads, "device.writes": io.writes, "device.flushes": io.flushes,
            "oplog.recorded": log.recorded, "oplog.truncations": log.truncations,
        }

    def _fold_base(self) -> None:
        now = self._read_base(self._base)
        for key, value in now.items():
            self.totals[key] += value - self._base_mark[key]
        self.max_queue_depth = max(self.max_queue_depth, now["blkmq.max_queue_depth"])

    def _rebooted(self, new_base: BaseFilesystem) -> None:
        self._fold_base()
        self._base = new_base
        # The new base's mount-time reads belong to the recovery.
        self._base_mark = dict.fromkeys(self._base_mark, 0)

    def finish(self) -> Counter:
        self._fold_base()
        self.fs.on_reboot.remove(self._rebooted)
        for key, value in self._read_outer().items():
            self.totals[key] += value - self._outer_mark[key]
        return self.totals


# ----------------------------------------------------------------------
# one round


@dataclass
class Round:
    """What one round measured; small enough to send through a pipe."""

    rae_blocks: list[float]  # seconds per block, RAE arm
    bare_blocks: list[float]
    lat: array  # seconds per op of the measured region, RAE arm
    arm_setup_s: float  # restore + mount + warm-up, both arms
    mount_s: float
    image_copy_s: float
    oracle_s: float
    peak_rss_kb: int  # of the round's process, before any traced pass
    counters: Counter
    max_queue_depth: int
    phases: dict[str, list[float]]  # reboot/replay/handoff seconds per measured episode
    replayed_ops: list[int]
    checks_per_replayed_op: float | None
    attempted: int
    failures: oracle.Failures
    trace: dict | None = None


def run_round(prepared: Prepared, traced: bool = False, trace_out: str | None = None) -> Round:
    """One interleaved pass of both arms over the measured region, checked
    against the reference; with ``traced``, the traced pass after it."""
    stream = prepared.stream
    ops, warmup, total = stream.ops, stream.warmup, len(stream.ops)
    reference = prepared.reference
    failures = oracle.Failures()
    copy_mark = prepared.image_copy_s

    setup_start = time.perf_counter()
    device, bare_device = prepared.restored(), prepared.restored()
    mount_start = time.perf_counter()
    fs = prepared.mount_rae(device)
    mount_s = time.perf_counter() - mount_start
    base = prepared.mount_bare(bare_device)
    lat = [0.0] * total
    bare_lat = [0.0] * total
    out: list[OpResult | None] = [None] * total
    bare_out: list[OpResult | None] = [None] * total
    _rae_block(fs, ops, 0, warmup, lat, out)
    _elapsed, seq = _bare_block(base, ops, 0, warmup, bare_lat, bare_out, 0)
    arm_setup_s = time.perf_counter() - setup_start

    warm_recoveries = fs.recovery_count
    counters = LayerCounters(fs)
    # Keep the harness's own long-lived objects (the stream, the
    # reference outcomes) out of the collector's way while timing.
    gc.collect()
    gc.freeze()
    rae_blocks, bare_blocks = [], []
    for lo, hi in stream.blocks:
        rae_blocks.append(_rae_block(fs, ops, lo, hi, lat, out))
        elapsed, seq = _bare_block(base, ops, lo, hi, bare_lat, bare_out, seq)
        bare_blocks.append(elapsed)
    totals = counters.finish()
    # The recovery probe (a throughput workload's last ops): the RAE arm
    # is timed op by op, the bare arm only keeps up for the final check.
    _rae_block(fs, ops, stream.probe, total, lat, out)
    _bare_block(base, ops, stream.probe, total, bare_lat, bare_out, seq)
    gc.unfreeze()

    recovery = fs.stats.recovery
    phases = {
        "reboot": recovery.reboot_seconds[warm_recoveries:],
        "replay": recovery.replay_seconds[warm_recoveries:],
        "handoff": recovery.handoff_seconds[warm_recoveries:],
    }
    replayed_ops = [event.replayed_ops for event in fs.stats.events][warm_recoveries:]
    # The supervisor keeps the bundles of its last 16 recoveries.
    checks = replayed = 0
    for bundle in fs.forensics.bundles:
        checks += bundle["replay"]["checks_run"]
        replayed += bundle["replay"]["constrained_ops"] + bundle["replay"]["autonomous_ops"]

    oracle_start = time.perf_counter()
    reference.check_outcomes(out[warmup:], warmup, "rae", failures)
    reference.check_outcomes(bare_out[warmup:], warmup, "bare", failures)
    missing = len(stream.triggers) - fs.recovery_count
    if missing:
        failures.add(f"rae: {fs.recovery_count} recoveries for {len(stream.triggers)} triggers", abs(missing))
    reference.check_final(fs, device, "rae", failures)
    reference.check_final(base, bare_device, "bare", failures)
    attempted = 2 * (total - warmup) + 2
    oracle_s = time.perf_counter() - oracle_start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    trace = None
    if traced:
        trace, traced_ops = run_traced(prepared, lat, failures, trace_out)
        attempted += traced_ops
    return Round(
        rae_blocks=rae_blocks,
        bare_blocks=bare_blocks,
        lat=array("d", lat[warmup:]),
        arm_setup_s=arm_setup_s,
        mount_s=mount_s,
        image_copy_s=prepared.image_copy_s - copy_mark,
        oracle_s=oracle_s,
        peak_rss_kb=peak_rss_kb,
        counters=totals,
        max_queue_depth=counters.max_queue_depth,
        phases=phases,
        replayed_ops=replayed_ops,
        checks_per_replayed_op=checks / replayed if replayed else None,
        attempted=attempted,
        failures=failures,
        trace=trace,
    )


def run_traced(prepared: Prepared, untraced_lat: list[float], failures: oracle.Failures,
               trace_out: str | None) -> tuple[dict, int]:
    """The traced pass: the RAE arm alone over the measured region and
    the probe (the first ``traced_episodes`` episodes on a recovery
    workload) with every layer boundary wrapped.  Returns the per-layer
    summary and the number of ops traced."""
    stream = prepared.stream
    ops, warmup = stream.ops, stream.warmup
    end = len(ops)
    measured_triggers = [index for index in stream.triggers if index >= warmup]
    limit = prepared.workload.traced_episodes
    if len(measured_triggers) > limit > 0:
        end = measured_triggers[limit - 1] + 2  # the trigger mkdir and its rmdir
    device = prepared.restored()
    fs = prepared.mount_rae(device)
    out: list[OpResult | None] = [None] * len(ops)
    _rae_block(fs, ops, 0, warmup, [0.0] * len(ops), out)
    gc.collect()
    gc.freeze()
    with Tracer() as tracer:
        _traced_block(tracer, fs, ops, warmup, end, out)
    gc.unfreeze()
    prepared.reference.check_outcomes(out[warmup:end], warmup, "traced", failures)
    if end == len(ops):
        prepared.reference.check_final(fs, device, "traced", failures)
    if trace_out:
        tracer.write(trace_out)
    # Per op over the measured region; per recovery over everything
    # traced, the probe included (one region on a recovery workload).
    main_end = min(end, stream.probe)
    main, whole = tracer.summary(warmup, main_end), tracer.summary(warmup, end)
    windows = main.notes.get("core.oplog", [])
    return {
        "ops": main.ops,
        "top_level_s": main.top_level_s,
        "untraced_s": sum(untraced_lat[warmup:main_end]),
        "traced_s": whole.top_level_s,
        "self_coverage": main.self_total_s / main.top_level_s,
        "self_s": dict(main.self_s),
        "calls": dict(main.calls),
        "recoveries": whole.calls.get("core.reboot", 0),
        "recovery_self_s": {layer: whole.self_s.get(layer, 0.0) for layer in RECOVERY_LAYERS},
        "p50_s": {
            layer: median(whole.durations[layer])
            for layer in ("shadowfs.mount", "obs.forensics")
            if whole.durations.get(layer)
        },
        "window_entries": [entries for entries, _bytes in windows],
        "window_bytes": sum(nbytes for _entries, nbytes in windows),
    }, end - warmup


def in_child(call, *args):
    """``call(*args)`` in a forked child; returns its (pickled) result.

    Every round runs in a child forked from the prepared parent, so each
    starts from the same heap: in one process, later rounds of the
    cache-heavy workloads run up to 1.6x slower than the first as the
    allocator's free lists scatter the new objects.  The child is waited
    for before this returns."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(call(*args), pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        except BaseException:  # noqa: BLE001 — report, then leave without the parent's cleanup
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    _pid, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"{call.__name__} failed in its child process (wait status {status})")
    return pickle.loads(payload)


# ----------------------------------------------------------------------
# one workload


@dataclass
class Result:
    workload: str
    seed: int
    smoke: bool
    correct: bool
    attempted: int
    failed: int
    failures: list[str]
    metrics: dict[str, float]  # only the metrics that apply to the workload


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool,
                 smoke: bool = False, trace_out: str | None = None) -> Result:
    """Set up, run rounds until ``seconds`` of measured time have passed
    and there are :data:`MIN_ROUNDS` of them (``seconds`` 0: one round),
    check, and reduce to metrics."""
    prepare_start = time.perf_counter()
    prepared = Prepared(workload, seed, smoke)
    prepare_s = time.perf_counter() - prepare_start

    rounds: list[Round] = []
    measured_s = 0.0
    min_rounds = MIN_ROUNDS if seconds > 0 else 1
    while len(rounds) < min_rounds or measured_s < seconds:
        # Only the first round's spans are written out.
        rounds.append(in_child(run_round, prepared, traced, trace_out if not rounds else None))
        measured_s += sum(rounds[-1].rae_blocks) + sum(rounds[-1].bare_blocks)
        if rounds[-1].trace:
            measured_s += rounds[-1].trace["traced_s"]

    failures = oracle.Failures()
    attempted = 0
    for rd in rounds:
        attempted += rd.attempted
        failures.merge(rd.failures)
    durability_start = time.perf_counter()
    if workload.durability_ops:
        stream = prepared.stream
        attempted += oracle.durability_check(
            prepared.image, BLOCK_COUNT, stream.prepop,
            # Short of the probe: a recovery ends in a commit of everything.
            stream.ops[: min(workload.durability_ops, stream.probe)],
            prepared.mount_rae, failures,
        )
    durability_s = time.perf_counter() - durability_start

    metrics = reduce_rounds(prepared, rounds)
    metrics["setup_s"] = prepare_s + median(rd.arm_setup_s for rd in rounds)
    metrics["harness.oracle_s"] = prepared.oracle_s + median(rd.oracle_s for rd in rounds) + durability_s
    metrics["failed_ops_share"] = failures.count / attempted
    metrics["peak_rss_mb"] = max(rd.peak_rss_kb for rd in rounds) / 1024.0
    metrics["harness.calibration_per_s"] = calibration_per_s()
    return Result(workload.name, seed, smoke, failures.count == 0, attempted, failures.count,
                  failures.notes, metrics)


def _best(rounds: list[Round], pick) -> list[float]:
    """Element-wise minimum over rounds of ``pick(round)``.

    Rounds are replicas: the same stream on the same image from the same
    heap.  Each block and each op is compared only with its own repeats,
    so what the stream makes expensive stays in the result, and what a
    busy neighbour added to one round goes.  On the shared two-core
    machines this runs on, the noise is additive and comes in phases of
    seconds; over ten seeds the minimum spread 3-8 % where the median
    over rounds spread 4-17 % (README.md, "Noise")."""
    return [min(values) for values in zip(*(pick(rd) for rd in rounds))]


def reduce_rounds(prepared: Prepared, rounds: list[Round]) -> dict[str, float]:
    """Counts from the first round (every round gives the same counts);
    each op's latency and each block's time as the best over rounds."""
    stream = prepared.stream
    warmup = stream.warmup
    measured = stream.measured
    first = rounds[0]
    m: dict[str, float | None] = {}

    rae_blocks = _best(rounds, lambda rd: rd.rae_blocks)
    bare_blocks = _best(rounds, lambda rd: rd.bare_blocks)
    lat = _best(rounds, lambda rd: rd.lat)
    rae_s, bare_s = sum(rae_blocks), sum(bare_blocks)
    m["ops_per_s"] = measured / rae_s
    m["bare.ops_per_s"] = measured / bare_s
    m["rae_overhead_ratio"] = rae_s / bare_s
    main = lat[:measured]  # without the probe
    m["op_p50_us"] = _us(percentile_or_none(main, 0.50))
    m["op_p99_us"] = _us(percentile_or_none(main, 0.99))

    by_type = defaultdict(list)
    for offset, seconds in enumerate(main):
        by_type[prepared.op_types[warmup + offset]].append(seconds)
    for kind in OP_TYPES:
        m[f"op.{kind}.p50_us"] = _us(percentile_or_none(by_type[kind], 0.50))

    # -- counts over the measured region (first round) -------------------
    c = first.counters
    user_bytes = sum(
        len(operation.args["data"])
        for operation in stream.ops[warmup : stream.probe]
        if operation.name == "write"
    )
    if user_bytes:
        m["dev_write_amp"] = c["device.writes"] * BLOCK_BYTES / user_bytes
    commits = c["journal.commits"]
    m["core.oplog.records_per_op"] = c["oplog.recorded"] / measured
    m["basefs.dentry_cache.hit_rate"] = _share(c["dentry.hits"] + c["dentry.negative_hits"], c["dentry.misses"])
    m["basefs.inode_cache.hit_rate"] = _share(c["inode.hits"], c["inode.misses"])
    m["basefs.inode_cache.evictions"] = c["inode.evictions"]
    m["basefs.page_cache.hit_rate"] = _share(c["page.hits"], c["page.misses"])
    m["basefs.page_cache.evictions"] = c["page.evictions"]
    m["basefs.page_cache.readahead_loads"] = c["page.readahead_loads"]
    m["basefs.writeback.commits_per_kop"] = 1000.0 * c["writeback.commits"] / measured
    if c["writeback.commits"]:
        m["basefs.writeback.pressure_commit_share"] = c["writeback.pressure_commits"] / c["writeback.commits"]
    if commits:
        m["basefs.journal_mgr.blocks_per_commit"] = c["journal.blocks_journaled"] / commits
        m["basefs.journal_mgr.chunks_per_commit"] = c["journal.chunks"] / commits
    m["blockdev.cache.hit_rate"] = _share(c["buffer.hits"], c["buffer.misses"])
    m["blockdev.cache.writebacks"] = c["buffer.writebacks"]
    m["blockdev.cache.forced_evictions"] = c["buffer.forced_evictions"]
    m["blockdev.blkmq.submitted_per_op"] = c["blkmq.submitted"] / measured
    if c["blkmq.submitted"]:
        m["blockdev.blkmq.merged_share"] = c["blkmq.merged"] / c["blkmq.submitted"]
    m["blockdev.blkmq.max_queue_depth"] = first.max_queue_depth
    m["blockdev.device.reads_per_op"] = c["device.reads"] / measured
    m["blockdev.device.writes_per_op"] = c["device.writes"] / measured
    m["blockdev.device.flushes_per_op"] = c["device.flushes"] / measured

    # -- recovery (untraced): the episodes of a recovery workload, the
    # probe of a throughput workload ----------------------------------------
    triggers = [index - warmup for index in stream.triggers if index >= warmup]
    stalls = [lat[index] for index in triggers]
    m["recovery_stall_p50_ms"] = _ms(percentile_or_none(stalls, 0.50))
    m["recovery_stall_p90_ms"] = _ms(percentile_or_none(stalls, 0.90))
    phases = {name: _best(rounds, lambda rd, name=name: rd.phases[name])
              for name in ("reboot", "replay", "handoff")}
    other = [stall - sum(phases[name][i] for name in phases) for i, stall in enumerate(stalls)]
    m["core.reboot.ms_p50"] = _ms(percentile_or_none(phases["reboot"], 0.50))
    m["shadowfs.replay.ms_p50"] = _ms(percentile_or_none(phases["replay"], 0.50))
    m["core.handoff.ms_p50"] = _ms(percentile_or_none(phases["handoff"], 0.50))
    m["core.recovery.other_ms_p50"] = _ms(percentile_or_none(other, 0.50))
    m["shadowfs.replay.us_per_replayed_op"] = 1e6 * sum(phases["replay"]) / sum(first.replayed_ops)
    m["core.recovery.replayed_ops"] = median(first.replayed_ops)
    m["shadowfs.replay.checks_per_op"] = first.checks_per_replayed_op
    # Cold caches after a reboot: only where ops follow a recovery inside
    # the measured region.
    stalled = set(triggers)
    after = set()
    for index in triggers:
        after.update(range(index + 1, min(index + 1 + POST_RECOVERY_OPS, measured)))
    after -= stalled
    cold = percentile_or_none([lat[i] for i in after], 0.50)
    warm = percentile_or_none([lat[i] for i in range(measured) if i not in after and i not in stalled], 0.50)
    if cold is not None and warm is not None:
        m["core.reboot.post_recovery_p50_ratio"] = cold / warm

    # -- set-up and harness ----------------------------------------------
    m["basefs.filesystem.mount_ms"] = 1e3 * median(rd.mount_s for rd in rounds)
    m["blockdev.device.image_copy_s"] = prepared.image_copy_s + median(rd.image_copy_s for rd in rounds)
    m["harness.gen_s"] = prepared.gen_s
    m["harness.image_build_s"] = prepared.image_build_s
    m["harness.rounds"] = len(rounds)

    # -- traced pass: the fastest one, whole, so its layers still sum ------
    traces = [rd.trace for rd in rounds if rd.trace]
    if traces:
        t = min(traces, key=lambda trace: trace["top_level_s"])
        ops, calls = t["ops"], t["calls"]
        for layer in COMMON_LAYERS:
            m[f"{layer}.self_us_per_op"] = 1e6 * t["self_s"].get(layer, 0.0) / ops
        m["basefs.writeback.tick_self_us_per_op"] = 1e6 * t["self_s"].get("basefs.writeback", 0.0) / ops
        for layer in ("basefs.commit", "basefs.journal_mgr"):
            if calls.get(layer):
                m[f"{layer}.self_us_per_commit"] = 1e6 * t["self_s"][layer] / calls[layer]
        if t["recoveries"]:
            for layer in RECOVERY_LAYERS:
                m[f"{layer}.self_ms_per_recovery"] = 1e3 * t["recovery_self_s"][layer] / t["recoveries"]
        m["harness.traced_op_mean_us"] = 1e6 * t["top_level_s"] / ops
        m["api.calls_per_op"] = calls.get("api", 0) / ops
        m["basefs.allocator.calls_per_op"] = calls.get("basefs.allocator", 0) / ops
        m["core.oplog.window_entries_p50"] = percentile_or_none(t["window_entries"], 0.50)
        if sum(t["window_entries"]):
            m["core.oplog.bytes_per_record"] = t["window_bytes"] / sum(t["window_entries"])
        for layer, name in (("shadowfs.mount", "shadowfs.mount.ms_p50"),
                            ("obs.forensics", "obs.forensics.bundle_ms_p50")):
            if layer in t["p50_s"]:
                m[name] = 1e3 * t["p50_s"][layer]
        m["harness.trace_overhead_ratio"] = t["top_level_s"] / t["untraced_s"]
        m["harness.trace_self_coverage"] = t["self_coverage"]

    return {name: value for name, value in m.items() if value is not None}


def _us(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1e6


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1e3


def _share(hits: int, misses: int) -> float | None:
    return hits / (hits + misses) if hits + misses else None
