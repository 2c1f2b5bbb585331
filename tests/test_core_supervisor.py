"""Tests for RAEFilesystem: the supervisor facade."""

import pytest

from repro.api import OpenFlags
from repro.basefs.hooks import HookPoints
from repro.core.detector import WarnPolicy
from repro.core.supervisor import RAEConfig, RAEFilesystem
from repro.errors import Errno, FsError, KernelBug, KernelWarning, RecoveryFailure
from repro.fsck import Fsck
from repro.ondisk.inode import FileType
from tests.conftest import formatted_device


def crash_on_name(hooks: HookPoints, substring: str, point: str = "dir.insert") -> None:
    def bug(point_name, ctx):
        if substring in str(ctx.get("name", "")):
            raise KernelBug(f"crash on {substring!r}", bug_id="test-bug")

    hooks.register(point, bug)


class TestCommonPath:
    def test_plain_operations_pass_through(self, rae):
        rae.mkdir("/a")
        fd = rae.open("/a/f", OpenFlags.CREAT)
        assert rae.write(fd, b"data") == 4
        rae.lseek(fd, 0, 0)
        assert rae.read(fd, 4) == b"data"
        rae.close(fd)
        assert rae.recovery_count == 0
        assert rae.stats.ops == 6

    def test_errnos_propagate_without_recovery(self, rae):
        with pytest.raises(FsError) as e:
            rae.rmdir("/missing")
        assert e.value.errno == Errno.ENOENT
        assert rae.recovery_count == 0

    def test_oplog_truncated_on_commit(self, rae):
        rae.mkdir("/a")
        assert len(rae.oplog) == 1
        fd = rae.open("/a/f", OpenFlags.CREAT)
        rae.fsync(fd)
        assert len(rae.oplog) == 1  # just the fsync record itself
        assert 3 in rae.oplog.fd_snapshot
        rae.close(fd)

    def test_fd_registry_is_isolated_from_live_descriptors(self, rae):
        """The commit hands the op log the live descriptor table; the log
        makes the one copy, so later offset changes cannot reach it."""
        fd = rae.open("/f", OpenFlags.CREAT)
        rae.write(fd, b"0123456789")
        rae.fsync(fd)
        registered = rae.oplog.fd_snapshot[fd]
        assert registered.offset == 10
        assert registered is not rae.base.fd_table.get(fd)
        rae.lseek(fd, 3, 0)
        rae.base.fd_table.get(fd).offset = 77  # even behind the API's back
        assert rae.oplog.fd_snapshot[fd].offset == 10
        rae.close(fd)
        assert fd in rae.oplog.fd_snapshot  # until the next durability point

    def test_non_mutations_not_recorded(self, rae):
        rae.mkdir("/a")
        before = len(rae.oplog)
        rae.stat("/a")
        rae.readdir("/")
        assert len(rae.oplog) == before

    def test_writeback_ticks_commit_periodically(self, device, hooks):
        from repro.basefs.writeback import WritebackPolicy

        rae = RAEFilesystem(
            device, RAEConfig(), hooks=hooks, writeback_policy=WritebackPolicy(commit_interval_ops=5)
        )
        for i in range(12):
            rae.mkdir(f"/d{i}")
        assert rae.base.stats.commits >= 2


class TestRecoveryFlow:
    def test_deterministic_bug_masked(self, device, hooks):
        crash_on_name(hooks, "evil")
        rae = RAEFilesystem(device, RAEConfig(), hooks=hooks)
        rae.mkdir("/fine")
        rae.mkdir("/evil-dir")  # crashes the base; RAE masks it
        assert rae.recovery_count == 1
        assert rae.stat("/evil-dir").ftype == FileType.DIRECTORY
        assert rae.readdir("/") == ["evil-dir", "fine"]

    def test_app_visible_result_from_autonomous_op(self, device, hooks):
        crash_on_name(hooks, "evil")
        rae = RAEFilesystem(device, RAEConfig(), hooks=hooks)
        fd = rae.open("/evil.txt", OpenFlags.CREAT)  # open crashes on insert
        assert isinstance(fd, int) and fd == 3
        assert rae.write(fd, b"still works") == 11
        rae.close(fd)
        assert rae.recovery_count == 1

    def test_repeated_bug_recovers_each_time(self, device, hooks):
        crash_on_name(hooks, "evil")
        rae = RAEFilesystem(device, RAEConfig(), hooks=hooks)
        for i in range(3):
            rae.mkdir(f"/evil{i}")
        assert rae.recovery_count == 3
        assert len(rae.readdir("/")) == 3

    def test_open_fds_survive_recovery(self, device, hooks):
        crash_on_name(hooks, "evil")
        rae = RAEFilesystem(device, RAEConfig(), hooks=hooks)
        fd = rae.open("/keep", OpenFlags.CREAT)
        rae.write(fd, b"before crash")
        rae.mkdir("/evil")  # recovery
        assert rae.write(fd, b"+after") == 6
        rae.lseek(fd, 0, 0)
        assert rae.read(fd, 100) == b"before crash+after"
        rae.close(fd)

    def test_commit_after_recovery_truncates_log(self, device, hooks):
        crash_on_name(hooks, "evil")
        rae = RAEFilesystem(device, RAEConfig(commit_after_recovery=True), hooks=hooks)
        rae.mkdir("/a")
        rae.mkdir("/evil")
        assert len(rae.oplog) == 0

    def test_no_commit_after_recovery_keeps_window(self, device, hooks):
        crash_on_name(hooks, "evil")
        rae = RAEFilesystem(device, RAEConfig(commit_after_recovery=False), hooks=hooks)
        rae.mkdir("/a")
        rae.mkdir("/evil")
        # window = mkdir /a + the shadow-completed mkdir /evil
        assert len(rae.oplog) == 2
        # and a second recovery still works off that window
        rae.mkdir("/evil2")
        assert rae.recovery_count == 2
        assert rae.readdir("/") == ["a", "evil", "evil2"]

    def test_recovery_event_bookkeeping(self, device, hooks):
        crash_on_name(hooks, "evil")
        rae = RAEFilesystem(device, RAEConfig(), hooks=hooks)
        rae.mkdir("/evil")
        event = rae.stats.events[0]
        assert "test-bug" in event.detected or "crash" in event.detected
        assert event.total_seconds > 0
        assert rae.stats.recovery.successes == 1

    def test_durable_after_recovery_and_unmount(self, device, hooks):
        crash_on_name(hooks, "evil")
        rae = RAEFilesystem(device, RAEConfig(), hooks=hooks)
        rae.mkdir("/evil")
        rae.unmount()
        assert Fsck(device).run().clean
        from repro.basefs.filesystem import BaseFilesystem

        fs = BaseFilesystem(device)
        assert fs.readdir("/") == ["evil"]
        fs.unmount()

    def test_commit_path_error_recovers_without_inflight(self, device, hooks):
        fired = {"n": 0}

        def commit_bug(point, ctx):
            fired["n"] += 1
            if fired["n"] == 2:
                raise KernelBug("commit crash")

        hooks.register("journal.commit", commit_bug)
        rae = RAEFilesystem(device, RAEConfig(), hooks=hooks)
        rae.mkdir("/a")
        fd = rae.open("/a/f", OpenFlags.CREAT)
        rae.fsync(fd)  # commit #1 fires hook once
        rae.write(fd, b"x")
        rae.fsync(fd)  # commit #2 crashes -> recovery
        assert rae.recovery_count == 1
        rae.close(fd)
        assert rae.stat("/a/f").size == 1


class TestWarnPolicy:
    def arm_warn(self, hooks):
        def warn(point, ctx):
            if "warny" in str(ctx.get("name", "")):
                raise KernelWarning("WARN_ON hit", bug_id="warn-bug")

        hooks.register("dir.insert", warn)

    def test_warn_recover_policy(self, device, hooks):
        self.arm_warn(hooks)
        rae = RAEFilesystem(device, RAEConfig(warn_policy=WarnPolicy.RECOVER), hooks=hooks)
        rae.mkdir("/warny")
        assert rae.recovery_count == 1
        assert rae.stat("/warny").ftype == FileType.DIRECTORY

    def test_warn_ignore_policy_surfaces_eio(self, device, hooks):
        self.arm_warn(hooks)
        rae = RAEFilesystem(device, RAEConfig(warn_policy=WarnPolicy.IGNORE), hooks=hooks)
        with pytest.raises(FsError) as e:
            rae.mkdir("/warny")
        assert e.value.errno == Errno.EIO
        assert rae.recovery_count == 0


class TestValidateOnSync:
    def test_silent_corruption_caught_at_commit(self, device, hooks):
        from repro.faults import Injector, make_size_corruption_bug

        injector = Injector(hooks)
        injector.arm(make_size_corruption_bug(nth=2))
        rae = RAEFilesystem(device, RAEConfig(), hooks=hooks)
        injector.retarget(rae.base)
        rae.on_reboot.append(injector.retarget)
        rae.mkdir("/a")  # dirty #1 (parent) + #2 (child) -> corrupted
        fd = rae.open("/a/f", OpenFlags.CREAT)
        rae.fsync(fd)  # validate-on-sync catches the corrupt size
        assert rae.recovery_count >= 1
        rae.close(fd)
        assert rae.stat("/a").size % 4096 == 0  # recovered, sane again


class TestIgnoredWarnScrub:
    """Regression: an ignored WARN leaves partial effects in base state.
    The supervisor must record the aborted op (EIO outcome) and commit at
    the WARN point, so a later recovery's replay window starts *after*
    the tainted state instead of silently missing it."""

    def arm_page_warn(self, hooks):
        armed = {"on": False}

        def warn(point, ctx):
            if armed["on"] and ctx.get("logical") == 1:
                raise KernelWarning("WARN_ON mid write", bug_id="warn-midwrite")

        hooks.register("page.write", warn)
        return armed

    def test_ignored_warn_then_bug_state_matches_base_view(self, device, hooks):
        armed = self.arm_page_warn(hooks)
        crash_on_name(hooks, "boom")
        rae = RAEFilesystem(device, RAEConfig(warn_policy=WarnPolicy.IGNORE), hooks=hooks)
        fd = rae.open("/f", OpenFlags.CREAT)
        rae.write(fd, b"a" * 8192)
        rae.fsync(fd)
        rae.lseek(fd, 0, 0)

        armed["on"] = True
        with pytest.raises(FsError) as e:
            rae.write(fd, b"b" * 8192)  # aborts midway: pages tainted
        assert e.value.errno == Errno.EIO
        armed["on"] = False
        assert rae.recovery_count == 0

        view = rae.read(fd, 8192)  # the application's view of the tainted state
        rae.lseek(fd, 0, 0)

        rae.mkdir("/boom")  # BUG mid-window -> full recovery, replaying the reads
        assert rae.recovery_count == 1
        assert rae.read(fd, 8192) == view  # post-recovery state matches the view
        rae.close(fd)
        rae.unmount()

        from repro.basefs.filesystem import BaseFilesystem

        base = BaseFilesystem(device)  # fresh mount: the view is durable too
        fd2 = base.open("/f", OpenFlags.NONE)
        assert base.read(fd2, 8192) == view
        base.unmount()

    def test_ignored_warn_commits_and_anchors_window(self, device, hooks):
        armed = self.arm_page_warn(hooks)
        rae = RAEFilesystem(device, RAEConfig(warn_policy=WarnPolicy.IGNORE), hooks=hooks)
        fd = rae.open("/f", OpenFlags.CREAT)
        rae.write(fd, b"a" * 8192)
        rae.lseek(fd, 0, 0)
        commits = rae.base.stats.commits
        recorded = rae.oplog.stats.recorded

        armed["on"] = True
        with pytest.raises(FsError):
            rae.write(fd, b"b" * 8192)
        armed["on"] = False

        # The aborted op was recorded (EIO outcome), then the scrub commit
        # re-anchored the window after the partial effects.
        assert rae.oplog.stats.recorded == recorded + 1
        assert rae.base.stats.commits == commits + 1
        assert len(rae.oplog) == 0
        rae.close(fd)


class TestRecoveryFailureTimings:
    """Regression: failed recoveries used to contribute attempts but no
    timings, skewing the §4.3 per-phase averages toward successes."""

    def test_note_failure_records_phase_and_partials(self):
        from repro.core.recovery import RecoveryStats

        stats = RecoveryStats()
        stats.note_failure("replay", {"reboot": 0.25, "replay": 0.5})
        assert stats.failure_phases == ["replay"]
        assert stats.reboot_seconds == [0.25]
        assert stats.replay_seconds == [0.5]
        assert stats.handoff_seconds == [0.0]
        assert stats.total_seconds == [pytest.approx(0.75)]
        assert stats.mean_seconds()["total"] == pytest.approx(0.75)

    def test_failed_recovery_contributes_timings(self, device, hooks, monkeypatch):
        crash_on_name(hooks, "evil")
        rae = RAEFilesystem(device, RAEConfig(), hooks=hooks)

        def failing_run_recovery(*args, **kwargs):
            exc = RecoveryFailure("shadow died", phase="replay")
            exc.phase_seconds = {"reboot": 0.01, "replay": 0.02}
            raise exc

        monkeypatch.setattr("repro.core.supervisor.run_recovery", failing_run_recovery)
        with pytest.raises(RecoveryFailure):
            rae.mkdir("/evil-dir")
        stats = rae.stats.recovery
        assert stats.attempts == 1
        assert stats.failures == 1
        assert stats.successes == 0
        assert stats.failure_phases == ["replay"]
        assert stats.reboot_seconds == [0.01]
        assert stats.replay_seconds == [0.02]
        assert stats.total_seconds == [pytest.approx(0.03)]
        assert "failed recoveries by phase: replay" in rae.report()

    def test_genuine_failure_carries_phase_seconds(self, device):
        """A real cross-check failure: the recorded outcome cannot match
        replay, and the raised failure carries partial phase timings."""
        from repro.api import OpResult, op
        from repro.basefs.filesystem import BaseFilesystem
        from repro.core.oplog import OpLog
        from repro.core.recovery import run_recovery

        base = BaseFilesystem(device)
        log = OpLog()
        log.truncate(base.fd_table.snapshot())
        log.record(1, op("readdir", path="/"), OpResult(value=["ghost"]))
        with pytest.raises(RecoveryFailure) as e:
            run_recovery(base, device, log, None)
        assert e.value.phase_seconds["reboot"] > 0
        assert e.value.phase_seconds["replay"] > 0
        assert e.value.phase_seconds["handoff"] == 0.0


class TestMountPhaseFailures:
    """A failure while remounting the base or mounting the shadow is a
    failed recovery like any other: a :class:`RecoveryFailure` naming its
    phase, a "failure" bundle and one counted failure — never a raw
    ``ValueError``/``InvariantViolation`` reaching the application."""

    @staticmethod
    def _rewrite_superblock(device, **fields) -> None:
        from repro.ondisk.superblock import Superblock

        sb = Superblock.unpack(device.read_block(0))
        for name, value in fields.items():
            setattr(sb, name, value)
        device.write_block(0, sb.pack())

    def _fail_recovery(self, rae) -> RecoveryFailure:
        with pytest.raises(RecoveryFailure) as e:
            rae.mkdir("/evil-dir")
        stats = rae.stats.recovery
        assert (stats.attempts, stats.failures, stats.successes) == (1, 1, 0)
        bundle = rae.last_bundle
        assert bundle["outcome"] == "failure"
        assert bundle["failure"]["phase"] == e.value.phase
        assert set(bundle["phases"]) >= {"reboot", "replay", "handoff", "total"}
        return e.value

    def test_bad_superblock_magic_fails_the_reboot(self, device, hooks):
        crash_on_name(hooks, "evil")
        rae = RAEFilesystem(device, RAEConfig(), hooks=hooks)
        rae.mkdir("/a")
        self._rewrite_superblock(device, magic=0xDEAD_BEEF)
        failure = self._fail_recovery(rae)
        assert failure.phase == "reboot"
        assert "bad superblock magic" in str(failure)
        assert isinstance(failure.__cause__, ValueError)
        assert failure.phase_seconds["reboot"] > 0
        assert failure.phase_seconds["replay"] == 0.0

    def test_free_count_only_the_shadow_checks_fails_its_mount(self, device, hooks):
        from repro.errors import InvariantViolation

        from repro.ondisk.superblock import Superblock

        crash_on_name(hooks, "evil")
        # A checksummed superblock whose free count is one short: the base
        # mounts it, and remounts it, without counting the bitmaps (no
        # commit runs, so validate-on-sync never compares them either);
        # only the shadow's FULL mount checks do.
        free_blocks = Superblock.unpack(device.read_block(0)).free_blocks
        self._rewrite_superblock(device, free_blocks=free_blocks - 1)
        rae = RAEFilesystem(device, RAEConfig(), hooks=hooks)
        rae.mkdir("/a")
        failure = self._fail_recovery(rae)
        assert failure.phase == "shadow-mount"
        assert isinstance(failure.__cause__, InvariantViolation)
        assert failure.__cause__.check == "superblock-counts"
        assert failure.phase_seconds["reboot"] > 0
        assert failure.phase_seconds["replay"] > 0
        assert failure.phase_seconds["handoff"] == 0.0


class TestBoundedEventHistory:
    def test_event_ring_bounded_counts_cumulative(self, device, hooks):
        crash_on_name(hooks, "evil")
        rae = RAEFilesystem(device, RAEConfig(event_history_limit=2), hooks=hooks)
        for index in range(4):
            rae.mkdir(f"/evil{index}")
        assert rae.recovery_count == 4  # cumulative count survives eviction
        assert len(rae.stats.events) == 2
        assert rae.stats.events.maxlen == 2
        report = rae.report()
        assert "keeping 2/2 recovery events" in report

    def test_detector_cap_flows_from_config(self, device, hooks):
        rae = RAEFilesystem(device, RAEConfig(detector_history_limit=5), hooks=hooks)
        assert rae.detector.history.maxlen == 5
        assert "5 detections" in rae.report()
