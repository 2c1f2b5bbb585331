"""The RAE supervisor: what applications actually mount.

:class:`RAEFilesystem` implements :class:`repro.api.FilesystemAPI` by
delegating to a :class:`BaseFilesystem` in the common case — adding only
operation recording and a write-back tick — and running the full
recovery procedure when the detector classifies an escaped exception as
a runtime error.  From the application's perspective, a deterministic
kernel bug looks like a slightly slow operation that nonetheless returns
the correct result: "high performance in the common case; correctness
and high-availability despite bugs and errors in rare cases" (§5).

New operations are not admitted during recovery (§3.2); since the
supervisor is the single entry point and recovery runs synchronously
inside the failed call, this holds by construction.

If recovery itself fails (:class:`RecoveryFailure`), the exception
propagates: the paper's design has no further fallback, and the caller
decides between remounting from the last durable state or giving up.
The availability benchmark compares exactly these two worlds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field

from repro.api import FilesystemAPI, FsOp, OpenFlags, OpResult, StatResult
from repro.basefs.filesystem import BaseFilesystem
from repro.basefs.hooks import HookPoints
from repro.basefs.writeback import WritebackPolicy
from repro.blockdev.device import BlockDevice
from repro.core.detector import DetectedError, Detector, WarnPolicy
from repro.core.oplog import OpLog
from repro.core.recovery import RecoveryStats, run_recovery
from repro.errors import Errno, FsError, RecoveryFailure
from repro.obs import BundleStore, CrossCheckCapture, FlightRecorder, Registry, build_bundle
from repro.obs.prof import LayerProfiler
from repro.shadowfs.checks import CheckLevel


@dataclass
class RAEConfig:
    """Supervisor policy knobs, mirroring the paper's configurables."""

    check_level: CheckLevel = CheckLevel.FULL
    strict_crosscheck: bool = True
    warn_policy: WarnPolicy = WarnPolicy.RECOVER
    shadow_in_process: bool = True
    commit_after_recovery: bool = True
    auto_writeback: bool = True
    # Observability: per-op latency/errno instruments plus the recovery
    # span timeline.  Disabled costs one boolean test per operation.
    metrics: bool = True
    # Layer-attribution profiling (repro.obs.prof): wraps the live
    # supervisor/base/device methods to split each op's wall time into
    # per-layer self-time.  On by default at a measured ~1.25x on an
    # all-RAM device (benchmarks/test_ablation_prof_overhead.py enforces
    # a 1.50x budget), and implied off when ``metrics`` is off (the
    # breakdown lands in registry histograms).
    profile: bool = True
    # Ring-buffer caps for supervisor-lifetime histories (cumulative
    # counts are kept separately and never dropped).  The detector's cap
    # bounds bytes too: a handled entry keeps its exception and file:line
    # traceback, not the frames' locals — so not the base that raised.
    event_history_limit: int = 256
    detector_history_limit: int = 256
    # Flight recorder: an always-on, fixed-cost ring of recent ops that
    # is frozen at detection time, before the contained reboot discards
    # the failed base's state.  Independent of `metrics` — forensic
    # bundles are produced even when push instruments are off.
    flight: bool = True
    flight_ring_size: int = 64
    # How many forensic bundles to keep in memory (one per recovery;
    # the count of bundles ever built is never lost).
    bundle_history_limit: int = 16


@dataclass
class RAEEvent:
    """One recovery episode, for reporting and examples."""

    seq: int | None
    detected: str
    replayed_ops: int
    total_seconds: float
    discrepancies: int


@dataclass
class RAEStats:
    ops: int = 0
    recoveries: int = 0
    recovery: RecoveryStats = field(default_factory=RecoveryStats)
    # Bounded ring (deque with maxlen); recoveries above keeps the
    # lifetime total when old events have been evicted.
    events: deque[RAEEvent] = field(default_factory=deque)


def _stats_dict(stats, **extra) -> dict:
    """A stats dataclass as a flat snapshot dict, plus any derived
    values (``hit_rate`` properties, caller-supplied extras)."""
    data = asdict(stats)
    rate = getattr(stats, "hit_rate", None)
    if rate is not None:
        data["hit_rate"] = rate
    data.update(extra)
    return data


class RAEFilesystem(FilesystemAPI):
    def __init__(
        self,
        device: BlockDevice,
        config: RAEConfig | None = None,
        hooks: HookPoints | None = None,
        writeback_policy: WritebackPolicy | None = None,
        obs: Registry | None = None,
        **base_kwargs,
    ):
        self.device = device
        self.config = config or RAEConfig()
        self.base = BaseFilesystem(
            device, hooks=hooks, writeback_policy=writeback_policy, **base_kwargs
        )
        self.oplog = OpLog()
        self.detector = Detector(
            warn_policy=self.config.warn_policy,
            history_limit=self.config.detector_history_limit,
        )
        self.stats = RAEStats(events=deque(maxlen=self.config.event_history_limit))
        self.seq = 0
        self._in_recovery = False
        self.obs = obs if obs is not None else Registry(enabled=self.config.metrics)
        # Hot-path guard: a single attribute test keeps the disabled
        # configuration within the <5% overhead budget.
        self._obs_on = self.obs.enabled
        # op name -> (latency histogram, counter), bound at the name's
        # first op so the hot path neither formats nor looks up names.
        self._op_instruments: dict[str, tuple] = {}
        # Flight recorder + forensic bundle store: the recorder's ring
        # append is the only always-on per-op cost; stat deltas are
        # sampled at baseline/freeze time, never per op.
        self.flight = FlightRecorder(
            clock=self.obs.clock,
            size=self.config.flight_ring_size,
            enabled=self.config.flight,
            stats_source=self._flight_stat_sample,
        )
        self._flight_on = self.flight.enabled
        self.forensics = BundleStore(limit=self.config.bundle_history_limit)
        # Called with the new base after every contained reboot; the fault
        # injector registers its retarget() here so payload bugs keep
        # pointing at live state.
        self.on_reboot: list = []
        # The superblock write generation as of the current window's
        # durability point.  Updated at every commit callback and at a
        # durable-window truncation; run_recovery compares it against
        # the remounted disk to detect windows the crashing commit
        # sealed before the truncation callback could run.
        self._window_generation = self.base.sb.write_generation
        self._wire_base()
        # Layer-attribution profiler: wraps this supervisor's hot path
        # (and re-wraps after every contained reboot via on_reboot).
        self.profiler = None
        if self.config.profile and self.obs.enabled:
            self.profiler = LayerProfiler(self.obs)
            self.profiler.attach(self)
        self._register_collectors()
        self.flight.rebaseline()

    def _wire_base(self) -> None:
        self.base.on_commit.append(self._on_commit)

    def _on_commit(self, _epoch: int) -> None:
        """Durability point: discard the replayable window (§3.2)."""
        self.oplog.truncate(self.base.fd_table.states())
        self._window_generation = self.base.sb.write_generation

    def _flight_stat_sample(self) -> dict:
        """Cheap subsystem tallies for the flight ring's stat deltas.

        Sampled only at baseline and freeze time (the closure reads
        ``self.base``, so a contained reboot's base swap is picked up);
        the frozen deltas show what the failed base did in its final
        window — journal/writeback/cache/device activity the reboot is
        about to discard."""
        base = self.base
        return {
            "journal.commits": base.journal.stats.commits,
            "journal.blocks_journaled": base.journal.stats.blocks_journaled,
            "writeback.ticks": base.writeback.stats.ticks,
            "writeback.commits": base.writeback.stats.commits,
            "cache.page.hits": base.page_cache.stats.hits,
            "cache.page.misses": base.page_cache.stats.misses,
            "cache.page.evictions": base.page_cache.stats.evictions,
            "oplog.recorded": self.oplog.stats.recorded,
            "device.reads": self.device.io_stats.reads,
            "device.writes": self.device.io_stats.writes,
            "device.flushes": self.device.io_stats.flushes,
        }

    def _register_collectors(self) -> None:
        """Pull-based observability: every subsystem keeps its existing
        stats dataclass and stays free of ``repro.obs`` imports; the
        registry reads them on demand at snapshot time.  The lambdas
        close over ``self`` (not ``self.base``) so a contained reboot's
        base swap is picked up automatically."""
        reg = self.obs.register_collector
        reg("op", lambda: {
            "total": self.stats.ops,
            "recoveries": self.stats.recoveries,
            "window_entries": len(self.oplog),
            "window_bytes": self.oplog.approximate_bytes(),
            "since_reboot": sum(self.base.stats.ops.values()),
        })
        reg("oplog", lambda: _stats_dict(self.oplog.stats))
        reg("cache.page", lambda: _stats_dict(self.base.page_cache.stats))
        reg("cache.inode", lambda: _stats_dict(self.base.inode_cache.stats))
        reg("cache.dentry", lambda: _stats_dict(self.base.dentry_cache.stats))
        reg("cache.buffer", lambda: _stats_dict(self.base.cache.stats))
        reg("journal", lambda: _stats_dict(self.base.journal.stats))
        reg("writeback", lambda: _stats_dict(
            self.base.writeback.stats,
            dirty_pages=self.base.dirty_page_count(),
            dirty_metadata=self.base.dirty_metadata_count(),
            commits_total=self.base.stats.commits,
        ))
        reg("device", lambda: _stats_dict(self.device.io_stats))
        reg("blkmq", lambda: _stats_dict(self.base.blkmq.stats, depth=self.base.blkmq.depth))
        reg("detector", lambda: {
            "total": self.detector.stats.total,
            "history_kept": len(self.detector.history),
            "history_limit": self.detector.history_limit,
            **{f"kind.{kind}": count
               for kind, count in sorted(self.detector.stats.detections.items())},
        })
        reg("forensics", lambda: {
            "bundles_built": self.forensics.built,
            "bundles_kept": len(self.forensics),
            "bundles_dropped": self.forensics.dropped,
            "flight.enabled": self.flight.enabled,
            "flight.entries": len(self.flight),
            "flight.ops_seen": self.flight.ops_seen,
            "flight.freezes": self.flight.freezes,
        })
        if self.profiler is not None:
            reg("prof", self.profiler.collector_snapshot)
        reg("recovery", lambda: {
            "attempts": self.stats.recovery.attempts,
            "successes": self.stats.recovery.successes,
            "failures": self.stats.recovery.failures,
            "ops_replayed": self.stats.recovery.ops_replayed,
            "failure_phases": list(self.stats.recovery.failure_phases),
            **{f"phase.{phase}.mean_seconds": seconds
               for phase, seconds in self.stats.recovery.mean_seconds().items()},
        })

    # ------------------------------------------------------------------

    def unmount(self) -> None:
        """Unmount with the same protection as any operation: a runtime
        error in the final commit triggers recovery, then one retry."""
        try:
            self.base.unmount()
        except Exception as exc:  # raelint: disable=ERRNO-DISCIPLINE — detector boundary: must see UNEXPECTED faults (§2.1)
            detected = self.detector.classify(exc, op_name="unmount")
            if not self.detector.should_recover(detected):
                raise
            self._recover(detected, inflight=None)
            self.detector.release(detected)
            self.base.unmount()
        if self.profiler is not None:
            # The device outlives this supervisor; leave no wrappers on it.
            self.profiler.detach()

    @property
    def recovery_count(self) -> int:
        return self.stats.recoveries

    @property
    def last_bundle(self) -> dict | None:
        """The most recent recovery's forensic bundle (JSON-able dict)."""
        return self.forensics.last

    def _call(self, name: str, **args):
        """Execute one operation with recording, detection, recovery."""
        if self._in_recovery:
            raise RecoveryFailure("operation submitted during recovery", phase="admission")
        op = FsOp(name, args)
        self.seq = seq = self.seq + 1
        self.stats.ops += 1
        obs_on = self._obs_on
        clock = self.obs.clock
        start = clock() if obs_on else 0.0
        try:
            outcome = op.apply(self.base, seq)
        except Exception as exc:  # raelint: disable=ERRNO-DISCIPLINE — detector boundary: must see UNEXPECTED faults (§2.1)
            detected = self.detector.classify(exc, seq=seq, op_name=name)
            if not self.detector.should_recover(detected):
                # Ignored WARN: the operation aborted midway; its partial
                # effects stay in base state (as after a real WARN_ON that
                # taints state) and EIO — the kernel's catch-all for "it
                # broke" — is surfaced.  The tainted state must not leak
                # into a later replay window: record the op with its EIO
                # outcome (replay skips errno records, so the shadow never
                # re-executes it) and immediately commit, anchoring the
                # next window *after* the partial effects.  Without this,
                # a later recovery would replay a window whose recorded
                # reads saw the partial effects against a disk state that
                # never had them — a cross-check divergence.
                outcome = OpResult(errno=Errno.EIO)
                self.obs.events.emit("warn.ignored", corr_id=seq, op=name)
                if op.is_mutation:
                    self.oplog.record(seq, op, outcome)
                    self._scrub_commit(seq)
            else:
                outcome = self._recover(detected, inflight=(seq, op))
            # Handled: the history keeps the exception, not the frames'
            # locals — which would keep the failed base alive.
            self.detector.release(detected)
        else:
            if op.is_mutation:
                self.oplog.record(seq, op, outcome)

        # One clock read closes the op for both consumers: the latency
        # histogram and the flight entry's timestamp.
        errno = outcome.errno
        if obs_on:
            end = clock()
            try:
                latency, count = self._op_instruments[name]
            except KeyError:
                latency, count = self._bind_instruments(name)
            latency.observe(end - start)
            count.inc()
            if errno is not None:
                self.obs.counter(f"op.errno.{errno.name}").inc()
        if self._flight_on:
            self.flight.note_op(seq, op, errno, end if obs_on else clock())

        if self.config.auto_writeback and not self._in_recovery:
            try:
                self.base.writeback.tick()
            except Exception as exc:  # raelint: disable=ERRNO-DISCIPLINE — detector boundary: must see UNEXPECTED faults (§2.1)
                detected = self.detector.classify(exc, seq=seq, op_name="writeback")
                if self.detector.should_recover(detected):
                    self._recover(detected, inflight=None)
                self.detector.release(detected)

        if errno is not None:
            raise FsError(errno, f"{name} failed")
        return outcome.value

    def _bind_instruments(self, name: str) -> tuple:
        """Look up ``name``'s latency histogram and counter once; every
        later op of that name reuses the pair."""
        bound = self._op_instruments[name] = (
            self.obs.histogram(f"op.latency.{name}"),
            self.obs.counter(f"op.count.{name}"),
        )
        return bound

    def _scrub_commit(self, seq: int) -> None:
        """Persist base state right after an ignored WARN.

        The commit truncates the op log and re-snapshots the fd table,
        so the partial effects become part of the durable baseline that
        future replays start from instead of un-replayable window
        history.  If the tainted state makes the commit itself blow up,
        that error goes through the normal detect-and-recover path — and
        because the aborted op was recorded first (with its EIO
        outcome), the replay window is complete."""
        try:
            self.base.commit()
        except Exception as exc:  # raelint: disable=ERRNO-DISCIPLINE — detector boundary: must see UNEXPECTED faults (§2.1)
            detected = self.detector.classify(exc, seq=seq, op_name="warn-scrub-commit")
            if self.detector.should_recover(detected):
                self._recover(detected, inflight=None)

    def _recover(self, detected: DetectedError, inflight: tuple[int, FsOp] | None, depth: int = 0) -> OpResult:
        """Run the full recovery procedure; returns the in-flight op's
        outcome (empty success result when there was none).

        ``depth`` guards the nested case: a bug firing during the
        post-recovery commit triggers another recovery (the hand-off
        state is safely replayable because the in-flight op is recorded
        before the commit is attempted); three consecutive failures give
        up, surfacing RecoveryFailure."""
        tracer = self.obs.tracer
        events = self.obs.events
        # Everything emitted from here on belongs to this episode's
        # bundle; the mark makes the slice exact even for nested
        # recoveries (the inner episode's events land in both bundles,
        # which is the correct causal picture).
        event_mark = events.emitted
        events.emit(
            "detect",
            corr_id=detected.seq,
            error_kind=detected.kind.value,
            op=detected.op_name,
            nesting=depth,
        )
        # Freeze BEFORE the contained reboot: the ring and the stat
        # deltas describe the failed base's final window, state the
        # reboot is about to discard.
        frozen = self.flight.freeze(detected.describe(), trigger_seq=detected.seq)
        bounds = self.oplog.window_bounds()
        window = {
            "entries": len(self.oplog),
            "bytes": self.oplog.approximate_bytes(),
            "first_seq": bounds[0] if bounds else None,
            "last_seq": bounds[1] if bounds else None,
            "inflight": inflight[1].describe() if inflight is not None else None,
        }
        capture = CrossCheckCapture()
        with tracer.span(
            "recovery", kind=detected.kind.value, seq=detected.seq, nesting=depth
        ):
            self._in_recovery = True
            self.stats.recovery.attempts += 1
            try:
                outcome = run_recovery(
                    self.base,
                    self.device,
                    self.oplog,
                    inflight,
                    check_level=self.config.check_level,
                    strict_crosscheck=self.config.strict_crosscheck,
                    in_process=self.config.shadow_in_process,
                    tracer=tracer,
                    corr_id=detected.seq,
                    events=events,
                    crosscheck=capture,
                    window_generation=self._window_generation,
                )
            except RecoveryFailure as failure:
                self.stats.recovery.failures += 1
                self.stats.recovery.note_failure(
                    failure.phase or "unknown", failure.phase_seconds
                )
                events.emit(
                    "recovery.failed",
                    corr_id=detected.seq,
                    phase=failure.phase or "unknown",
                )
                phases = {
                    name: float(seconds)
                    for name, seconds in failure.phase_seconds.items()
                }
                phases["total"] = sum(phases.values())
                self.forensics.add(build_bundle(
                    outcome="failure",
                    trigger=detected.as_dict(),
                    window=window,
                    flight=frozen,
                    phases=phases,
                    replay=None,
                    crosschecks=capture,
                    events=[e.as_dict() for e in events.since(event_mark)],
                    nesting=depth,
                    failure={
                        "phase": failure.phase or "unknown",
                        "message": str(failure),
                    },
                ))
                raise
            finally:
                self._in_recovery = False

            self.base = outcome.fs
            self._wire_base()
            for callback in self.on_reboot:
                callback(self.base)
            if outcome.window_durable:
                # The crashing commit already sealed the whole window on
                # disk (replay skipped it); acknowledge the durability
                # point now, exactly as the missed commit callback would
                # have — otherwise the stale entries replay (and
                # double-apply) at the next recovery.  The in-flight
                # result recorded below lands in the fresh window.
                self.oplog.truncate(self.base.fd_table.states())
                self._window_generation = self.base.sb.write_generation
            # The failed base is gone; subsequent flight stat deltas are
            # relative to the rebooted base's counters.
            self.flight.rebaseline()
            replayed = outcome.report.constrained_ops + outcome.report.autonomous_ops
            self.stats.recovery.successes += 1
            self.stats.recovery.ops_replayed += replayed
            self.stats.recovery.note(
                outcome.reboot_seconds, outcome.replay_seconds, outcome.handoff_seconds
            )
            self.stats.recoveries += 1
            self.stats.events.append(
                RAEEvent(
                    seq=detected.seq,
                    detected=detected.describe(),
                    replayed_ops=replayed,
                    total_seconds=outcome.total_seconds,
                    discrepancies=len(outcome.report.discrepancies),
                )
            )
            events.emit(
                "recovery.succeeded",
                corr_id=detected.seq,
                replayed=replayed,
                seconds=outcome.total_seconds,
            )
            # Bundle the §3.2 procedure now, before the post-commit: a
            # commit failure is its own detection and its own bundle.
            self.forensics.add(build_bundle(
                outcome="success",
                trigger=detected.as_dict(),
                window=window,
                flight=frozen,
                phases={
                    "reboot": outcome.reboot_seconds,
                    "replay": outcome.replay_seconds,
                    "handoff": outcome.handoff_seconds,
                    "total": outcome.total_seconds,
                },
                replay={
                    "mode": "in-process" if self.config.shadow_in_process else "process",
                    "window_durable": outcome.window_durable,
                    "constrained_ops": outcome.report.constrained_ops,
                    "autonomous_ops": outcome.report.autonomous_ops,
                    "skipped_errors": outcome.report.skipped_errors,
                    "skipped_fsyncs": outcome.report.skipped_fsyncs,
                    "checks_run": outcome.report.checks_run,
                    "discrepancies": [str(d) for d in outcome.report.discrepancies],
                },
                crosschecks=capture,
                events=[e.as_dict() for e in events.since(event_mark)],
                nesting=depth,
            ))

            result = outcome.update.inflight_result
            delegated_fsync = result is not None and result.value == "fsync-delegated"
            if (
                inflight is not None
                and result is not None
                and result.errno is None
                and not delegated_fsync
            ):
                # The in-flight op is now a completed op of the replayable
                # window.  Record it BEFORE any commit attempt: if that commit
                # itself fails and triggers a nested recovery, the op's effects
                # must be reconstructible from the log.
                self.oplog.record(inflight[0], inflight[1], result)

            if self.config.commit_after_recovery or delegated_fsync:
                # Persist the recovered state (this truncates the op log via
                # the on_commit callback) and perform any delegated fsync.
                with tracer.span("recovery.post-commit"):
                    try:
                        self.base.commit()
                    except Exception as exc:  # raelint: disable=ERRNO-DISCIPLINE — detector boundary: must see UNEXPECTED faults (§2.1)
                        nested = self.detector.classify(exc, op_name="post-recovery-commit")
                        if depth >= 2 or not self.detector.should_recover(nested):
                            raise RecoveryFailure(
                                f"post-recovery commit failed: {exc}", phase="post-commit"
                            ) from exc
                        self._recover(nested, inflight=None, depth=depth + 1)

            if result is None or delegated_fsync:
                return OpResult()
            return result

    # ==================================================================
    # FilesystemAPI — thin recording wrappers

    def mkdir(self, path: str, perms: int = 0o755, opseq: int = 0) -> None:
        return self._call("mkdir", path=path, perms=perms)

    def rmdir(self, path: str, opseq: int = 0) -> None:
        return self._call("rmdir", path=path)

    def unlink(self, path: str, opseq: int = 0) -> None:
        return self._call("unlink", path=path)

    def rename(self, src: str, dst: str, opseq: int = 0) -> None:
        return self._call("rename", src=src, dst=dst)

    def link(self, existing: str, new: str, opseq: int = 0) -> None:
        return self._call("link", existing=existing, new=new)

    def symlink(self, target: str, path: str, opseq: int = 0) -> None:
        return self._call("symlink", target=target, path=path)

    def readlink(self, path: str) -> str:
        return self._call("readlink", path=path)

    def readdir(self, path: str) -> list[str]:
        return self._call("readdir", path=path)

    def stat(self, path: str) -> StatResult:
        return self._call("stat", path=path)

    def lstat(self, path: str) -> StatResult:
        return self._call("lstat", path=path)

    def truncate(self, path: str, size: int, opseq: int = 0) -> None:
        return self._call("truncate", path=path, size=size)

    def open(self, path: str, flags: OpenFlags = OpenFlags.NONE, perms: int = 0o644, opseq: int = 0) -> int:
        return self._call("open", path=path, flags=int(flags), perms=perms)

    def close(self, fd: int, opseq: int = 0) -> None:
        return self._call("close", fd=fd)

    def read(self, fd: int, length: int, opseq: int = 0) -> bytes:
        return self._call("read", fd=fd, length=length)

    def write(self, fd: int, data: bytes, opseq: int = 0) -> int:
        return self._call("write", fd=fd, data=data)

    def lseek(self, fd: int, offset: int, whence: int = 0, opseq: int = 0) -> int:
        return self._call("lseek", fd=fd, offset=offset, whence=whence)

    def fsync(self, fd: int, opseq: int = 0) -> None:
        return self._call("fsync", fd=fd)

    def fstat_ino(self, fd: int) -> int:
        return self.base.fstat_ino(fd)

    # ------------------------------------------------------------------

    def report(self) -> str:
        """Human-readable supervisor summary (examples and operators)."""
        lines = [
            f"RAE supervisor: {self.stats.ops} operations, "
            f"{self.stats.recoveries} recoveries "
            f"({self.stats.recovery.failures} failed), "
            f"{len(self.oplog)} ops in the current window",
        ]
        for event in self.stats.events:
            # §4.3 prices recovery in op-log length: show the unit price.
            per_op = (
                f" ({event.total_seconds * 1e6 / event.replayed_ops:.0f} µs/op)" if event.replayed_ops else ""
            )
            lines.append(
                f"  - {event.detected}: replayed {event.replayed_ops} ops in "
                f"{event.total_seconds * 1000:.1f} ms{per_op}"
                + (f", {event.discrepancies} discrepancies" if event.discrepancies else "")
            )
        lines.append(
            f"  history: keeping {len(self.stats.events)}/"
            f"{self.stats.events.maxlen} recovery events, "
            f"{len(self.detector.history)}/{self.detector.history_limit} detections "
            f"(cumulative counts are unbounded)"
        )
        if self.forensics.built:
            lines.append(
                f"  forensic bundles: {self.forensics.built} built, "
                f"keeping {len(self.forensics)}/{self.forensics.limit} "
                f"(see rae-report bundle)"
            )
        if self.stats.recovery.failure_phases:
            lines.append(
                "  failed recoveries by phase: "
                + ", ".join(sorted(set(self.stats.recovery.failure_phases)))
            )
        detections = self.detector.stats.detections
        if detections:
            by_kind = ", ".join(f"{kind}={count}" for kind, count in sorted(detections.items()))
            lines.append(f"  detections by kind: {by_kind}")
        return "\n".join(lines)
