"""The recovery coordinator.

One function, :func:`run_recovery`, executes the full §3.2 procedure:

    contained reboot  →  shadow launch  →  constrained + autonomous
    replay  →  metadata download  →  (supervisor commits and resumes)

and times each phase, because "the time required for recovery ... does
impact the expected response time observed by applications with
in-flight operations" (§4.3) — the recovery-time ablation benchmark
reads these timings.

The shadow runs in-process by default; with ``in_process=False`` and a
file-backed device it runs as a separate OS process via
:mod:`repro.core.procrunner`.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.api import FsOp
from repro.basefs.filesystem import BaseFilesystem
from repro.blockdev.device import BlockDevice, FileBlockDevice
from repro.core.handoff import download_metadata
from repro.core.oplog import OpLog
from repro.core.procrunner import run_shadow_process
from repro.core.reboot import contained_reboot
from repro.errors import RECOVERY_BOUNDARY_ERRORS, RecoveryFailure
from repro.shadowfs.checks import CheckLevel
from repro.shadowfs.filesystem import ShadowFilesystem
from repro.shadowfs.output import MetadataUpdate
from repro.shadowfs.replay import ReplayEngine, ReplayReport


@dataclass
class RecoveryStats:
    """Cumulative over a supervisor's lifetime; per-event timings too."""

    attempts: int = 0
    successes: int = 0
    failures: int = 0
    ops_replayed: int = 0
    reboot_seconds: list[float] = field(default_factory=list)
    replay_seconds: list[float] = field(default_factory=list)
    handoff_seconds: list[float] = field(default_factory=list)
    total_seconds: list[float] = field(default_factory=list)
    failure_phases: list[str] = field(default_factory=list)

    def note(self, reboot_s: float, replay_s: float, handoff_s: float) -> None:
        self.reboot_seconds.append(reboot_s)
        self.replay_seconds.append(replay_s)
        self.handoff_seconds.append(handoff_s)
        self.total_seconds.append(reboot_s + replay_s + handoff_s)

    def note_failure(self, phase: str, phase_seconds: dict[str, float]) -> None:
        """Failed recoveries spend real time too — without this, the
        per-phase averages only ever see successes and understate the
        response-time impact §4.3 cares about."""
        self.failure_phases.append(phase)
        reboot_s = float(phase_seconds.get("reboot", 0.0))
        replay_s = float(phase_seconds.get("replay", 0.0))
        handoff_s = float(phase_seconds.get("handoff", 0.0))
        self.note(reboot_s, replay_s, handoff_s)

    def mean_seconds(self) -> dict[str, float]:
        """Mean per-phase timings over every attempt that got timed."""
        def mean(values: list[float]) -> float:
            return sum(values) / len(values) if values else 0.0

        return {
            "reboot": mean(self.reboot_seconds),
            "replay": mean(self.replay_seconds),
            "handoff": mean(self.handoff_seconds),
            "total": mean(self.total_seconds),
        }


@dataclass
class RecoveryOutcome:
    fs: BaseFilesystem
    update: MetadataUpdate
    report: ReplayReport
    reboot_seconds: float
    replay_seconds: float
    handoff_seconds: float
    # True when the remounted base's write generation proved the whole
    # replay window already durable (crash after the commit record was
    # sealed but before the supervisor's truncation callback ran); the
    # window was handed off as-is instead of replayed, and the
    # supervisor must acknowledge the durability point by truncating it.
    window_durable: bool = False

    @property
    def total_seconds(self) -> float:
        return self.reboot_seconds + self.replay_seconds + self.handoff_seconds


def _span(tracer, name: str, **attrs):
    """A tracer span, or a no-op context when no tracer was injected.

    The tracer is always passed in from *outside* the replay closure —
    the shadow itself stays instrumentation-free; these spans time the
    phases around it.
    """
    return tracer.span(name, **attrs) if tracer is not None else nullcontext()


def _emit(events, kind: str, corr_id: int | None, **fields) -> None:
    """Emit a correlated event when an event log was injected.

    ``events`` is duck-typed (:class:`repro.obs.events.EventLog` in
    production) so this module — like the tracer threading above —
    never has to import the observability package.
    """
    if events is not None:
        events.emit(kind, corr_id=corr_id, **fields)


class CrossCheckingReplayEngine(ReplayEngine):
    """A :class:`ReplayEngine` that feeds every constrained-mode
    cross-check into a supervisor-side capture sink.

    This is the divergence table's capture point: it lives *here*, at
    the engine call boundary in the recovery layer, rather than inside
    ``repro.shadowfs`` — the shadow gains only the ``_crosscheck`` seam
    and stays free of observability imports (SHADOW-PURITY).  The sink
    is duck-typed (``note(record, replayed)``;
    :class:`repro.obs.forensics.CrossCheckCapture` in production) and
    is consulted *before* the strict policy can abort replay, so even a
    failed recovery's bundle shows the rows checked up to the mismatch.
    """

    def __init__(self, shadow: ShadowFilesystem, strict: bool, capture):
        super().__init__(shadow, strict=strict)
        self._capture = capture

    def _crosscheck(self, record, replayed) -> None:
        self._capture.note(record, replayed)
        super()._crosscheck(record, replayed)


def _phase_seconds(t0: float, t1: float | None, t2: float | None, now: float) -> dict[str, float]:
    """Per-phase durations when the procedure stopped at time ``now``;
    the phase that raised gets its partial duration, later phases 0."""
    timings = {"reboot": (t1 if t1 is not None else now) - t0, "replay": 0.0, "handoff": 0.0}
    if t1 is not None:
        timings["replay"] = (t2 if t2 is not None else now) - t1
    if t2 is not None:
        timings["handoff"] = now - t2
    return timings


def run_recovery(
    old_fs: BaseFilesystem,
    device: BlockDevice,
    oplog: OpLog,
    inflight: tuple[int, FsOp] | None,
    check_level: CheckLevel = CheckLevel.FULL,
    strict_crosscheck: bool = True,
    in_process: bool = True,
    tracer=None,
    corr_id: int | None = None,
    events=None,
    crosscheck=None,
    window_generation: int | None = None,
) -> RecoveryOutcome:
    """Execute one recovery.  Raises :class:`RecoveryFailure` if the
    shadow cannot produce trustworthy state; the failure carries a
    ``phase_seconds`` dict so even failed attempts contribute timings.

    ``corr_id`` is the triggering op's log sequence number: it is
    stamped on every phase span and event so the whole procedure can be
    traced back to one operation.  ``events`` (an
    :class:`~repro.obs.events.EventLog`, duck-typed) receives one event
    per phase; ``crosscheck`` (a
    :class:`~repro.obs.forensics.CrossCheckCapture`, duck-typed) makes
    in-process replay run under :class:`CrossCheckingReplayEngine`,
    capturing the per-op divergence table for the forensic bundle.

    ``window_generation`` is the superblock write generation as of the
    window's durability point (the supervisor tracks it at every commit
    callback).  After the contained reboot's journal replay, a *larger*
    on-disk generation proves the crashing commit sealed the entire
    window before the failure escaped — the crash landed between the
    commit record reaching the device and the truncation callback.
    Replaying the window then would double-apply it against a base that
    already contains it (EEXIST-style divergences); instead the replay
    runs with no entries and the descriptor table captured from the
    crashed base, and the outcome is flagged ``window_durable`` so the
    supervisor truncates the stale window.
    """
    t0 = time.perf_counter()
    t1: float | None = None
    t2: float | None = None
    # Captured before the reboot scrubs it.  Trustworthy exactly in the
    # durable-window case: a mid-op crash can only leave the window
    # durable from inside a commit, and the only inflight ops that reach
    # a commit (fsync — unmount/writeback/scrub run with none) do not
    # mutate descriptor state first.
    crash_fd_registry = old_fs.fd_table.snapshot()
    try:
        with _span(tracer, "recovery.reboot", corr_id=corr_id):
            try:
                new_fs = contained_reboot(old_fs, device).fs
            except RECOVERY_BOUNDARY_ERRORS as exc:
                raise RecoveryFailure(f"contained reboot failed: {exc}", phase="reboot") from exc
        t1 = time.perf_counter()
        _emit(events, "recovery.reboot", corr_id, seconds=t1 - t0)

        entries = oplog.entries
        fd_registry = oplog.fd_snapshot
        window_durable = (
            window_generation is not None
            and bool(entries)
            and new_fs.sb.write_generation > window_generation
        )
        if window_durable:
            entries = []
            fd_registry = crash_fd_registry
            _emit(
                events, "recovery.window-durable", corr_id,
                window_generation=window_generation,
                disk_generation=new_fs.sb.write_generation,
                entries_skipped=len(oplog.entries),
            )

        # The preserved data pages stay with the rebooted base (read cache);
        # they are NOT given to the shadow's replay: a page reflects the state
        # at crash time, while replay needs the state at each op's position —
        # the recorded write payloads regenerate that exactly.  (The paper
        # shares pages because it does not record payloads; see DESIGN.md.)
        with _span(
            tracer, "recovery.replay",
            ops=len(entries), inflight=inflight is not None, corr_id=corr_id,
        ):
            if in_process:
                try:
                    shadow = ShadowFilesystem(device, check_level=check_level)
                except RECOVERY_BOUNDARY_ERRORS as exc:
                    raise RecoveryFailure(f"shadow mount failed: {exc}", phase="shadow-mount") from exc
                if crosscheck is not None:
                    engine = CrossCheckingReplayEngine(shadow, strict_crosscheck, crosscheck)
                else:
                    engine = ReplayEngine(shadow, strict=strict_crosscheck)
                update = engine.run(entries, fd_registry, inflight)
                report = engine.report
            else:
                # Process-mode replay crosses an OS boundary: the
                # divergence table is not captured there (the child
                # returns only the discrepancy report), which the
                # bundle's replay.mode field makes explicit.
                if not isinstance(device, FileBlockDevice):
                    raise RecoveryFailure(
                        "separate-process shadow requires a file-backed device", phase="shadow-process"
                    )
                device.flush()
                update, report = run_shadow_process(
                    device.path,
                    entries,
                    fd_registry,
                    inflight,
                    check_level=check_level,
                    strict=strict_crosscheck,
                )
        t2 = time.perf_counter()
        _emit(
            events, "recovery.replay", corr_id,
            seconds=t2 - t1,
            constrained=report.constrained_ops,
            autonomous=report.autonomous_ops,
            discrepancies=len(report.discrepancies),
        )

        with _span(tracer, "recovery.handoff", corr_id=corr_id):
            download_metadata(new_fs, update, events=events, corr_id=corr_id)
        t3 = time.perf_counter()
        _emit(events, "recovery.handoff", corr_id, seconds=t3 - t2)
    except RecoveryFailure as exc:
        exc.phase_seconds = _phase_seconds(t0, t1, t2, time.perf_counter())
        raise

    return RecoveryOutcome(
        fs=new_fs,
        update=update,
        report=report,
        reboot_seconds=t1 - t0,
        replay_seconds=t2 - t1,
        handoff_seconds=t3 - t2,
        window_durable=window_durable,
    )
