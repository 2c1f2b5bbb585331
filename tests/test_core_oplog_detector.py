"""Tests for repro.core.oplog and repro.core.detector."""

import random

import pytest

from repro.api import OpResult, OpenFlags, op
from repro.basefs.vfs import FdState
from repro.core.detector import Detector, ErrorKind, WarnPolicy
from repro.core.oplog import OpLog, OpLogStats
from repro.errors import (
    DeviceError,
    Errno,
    FsError,
    InvariantViolation,
    KernelBug,
    KernelWarning,
)


class TestOpLog:
    def test_record_and_len(self):
        log = OpLog()
        log.record(1, op("mkdir", path="/a"), OpResult())
        log.record(2, op("stat", path="/a"), OpResult())
        assert len(log) == 2
        assert log.stats.recorded == 2

    def test_truncate_clears_and_snapshots(self):
        log = OpLog()
        log.record(1, op("mkdir", path="/a"), OpResult())
        fds = {3: FdState(fd=3, ino=7, flags=OpenFlags.NONE, offset=9)}
        log.truncate(fds)
        assert len(log) == 0
        assert log.fd_snapshot[3].offset == 9
        assert log.stats.truncations == 1

    def test_truncate_snapshot_is_deep(self):
        log = OpLog()
        state = FdState(fd=3, ino=7, flags=OpenFlags.NONE)
        log.truncate({3: state})
        state.offset = 100
        assert log.fd_snapshot[3].offset == 0

    def test_max_entries_high_water(self):
        log = OpLog()
        for i in range(5):
            log.record(i, op("mkdir", path=f"/d{i}"), OpResult())
        log.truncate({})
        log.record(9, op("mkdir", path="/z"), OpResult())
        assert log.stats.max_entries == 5

    def test_approximate_bytes_counts_payloads(self):
        log = OpLog()
        small = log.approximate_bytes()
        log.record(1, op("write", fd=3, data=b"x" * 10_000), OpResult(value=10_000))
        assert log.approximate_bytes() > small + 9_000

    def test_record_describe(self):
        log = OpLog()
        record = log.record(4, op("rmdir", path="/a"), OpResult(errno=Errno.ENOENT))
        assert "ENOENT" in record.describe()
        ok = log.record(5, op("mkdir", path="/a"), OpResult())
        assert ok.describe().endswith("ok")


class TestDetector:
    def test_classification(self):
        detector = Detector()
        cases = [
            (KernelBug("x"), ErrorKind.BUG),
            (KernelWarning("x"), ErrorKind.WARN),
            (InvariantViolation("x"), ErrorKind.INVARIANT),
            (DeviceError("x"), ErrorKind.DEVICE),
            (RuntimeError("x"), ErrorKind.UNEXPECTED),
        ]
        for exc, expected in cases:
            assert detector.classify(exc).kind == expected
        assert detector.stats.total == 5
        assert len(detector.history) == 5

    def test_fserror_is_rejected(self):
        detector = Detector()
        with pytest.raises(AssertionError):
            detector.classify(FsError(Errno.ENOENT))

    def test_warn_policy(self):
        recover = Detector(warn_policy=WarnPolicy.RECOVER)
        ignore = Detector(warn_policy=WarnPolicy.IGNORE)
        warn = KernelWarning("w")
        assert recover.should_recover(recover.classify(warn))
        assert not ignore.should_recover(ignore.classify(warn))
        # Non-WARN errors always recover regardless of policy.
        assert ignore.should_recover(ignore.classify(KernelBug("b")))

    def test_describe_includes_context(self):
        detector = Detector()
        detected = detector.classify(KernelBug("boom"), seq=42, op_name="mkdir")
        assert "op #42" in detected.describe() and "mkdir" in detected.describe()


class TestOpLogByteCounter:
    """The running byte counter must match the old full scan — and
    record() must be O(1), never re-walking the entries."""

    def test_counter_matches_full_rescan(self):
        log = OpLog()
        for seq in range(1, 200):
            if seq % 3 == 0:
                log.record(seq, op("write", fd=3, data=b"y" * (seq % 50)), OpResult(value=seq % 50))
            elif seq % 3 == 1:
                log.record(seq, op("mkdir", path=f"/dir{seq}"), OpResult())
            else:
                log.record(seq, op("readdir", path="/"), OpResult(value=[f"n{i}" for i in range(seq % 7)]))
            assert log.approximate_bytes() == log.recount_bytes()
        fds = {3: FdState(fd=3, ino=7, flags=OpenFlags.NONE, offset=9)}
        log.truncate(fds)
        assert log.approximate_bytes() == log.recount_bytes()
        log.record(1, op("unlink", path="/dir1"), OpResult())
        assert log.approximate_bytes() == log.recount_bytes()

    def test_record_does_not_iterate_entries(self):
        class IterationCountingList(list):
            iterations = 0

            def __iter__(self):
                IterationCountingList.iterations += 1
                return super().__iter__()

        log = OpLog()
        log.entries = IterationCountingList()
        for seq in range(1, 501):
            log.record(seq, op("write", fd=3, data=b"z" * 100), OpResult(value=100))
        # The old implementation re-walked all entries per record (O(n²)
        # per commit window); the counter must not touch them at all.
        assert IterationCountingList.iterations == 0
        assert log.stats.max_bytes == log.recount_bytes()

    def test_large_window_sanity_bound(self):
        log = OpLog()
        payload = b"p" * 1000
        for seq in range(1, 5001):
            log.record(seq, op("write", fd=1, data=payload), OpResult(value=1000))
        approx = log.approximate_bytes()
        assert approx == log.recount_bytes()
        # 5000 records x (96 overhead + 1000 payload) — the counter must
        # scale linearly with what was recorded, nothing more.
        assert approx == 5000 * (96 + 1000)


class TestRecordStatisticsReference:
    """``record`` used to keep its high-water marks with two ``max()``
    calls over ``len(entries)`` and ``approximate_bytes()``; the compares
    that replaced them must give the same statistics on any window."""

    @staticmethod
    def _reference_record(log: OpLog, reference: OpLogStats) -> None:
        """The old bookkeeping, applied after each real ``record``."""
        reference.recorded += 1
        reference.max_entries = max(reference.max_entries, len(log.entries))
        reference.max_bytes = max(reference.max_bytes, log.recount_bytes())

    @pytest.mark.parametrize("seed", [1, 16, 23])
    def test_seeded_windows(self, seed):
        rng = random.Random(seed)
        log, reference = OpLog(), OpLogStats()
        for seq in range(1, 1201):
            r = rng.random()
            if r < 0.02:
                open_fds = {
                    fd: FdState(fd=fd, ino=fd + 10, flags=OpenFlags.NONE, offset=rng.randrange(99))
                    for fd in range(3, 3 + rng.randrange(6))
                }
                log.truncate(open_fds)
                reference.truncations += 1
                assert log.fd_snapshot == open_fds
            elif r < 0.35:
                size = rng.choice([0, 7, 512, 16384])
                log.record(seq, op("write", fd=3, data=b"w" * size), OpResult(value=size))
                self._reference_record(log, reference)
            elif r < 0.55:
                size = rng.randrange(4096)
                log.record(seq, op("read", fd=3, length=size), OpResult(value=bytearray(size)))
                self._reference_record(log, reference)
            elif r < 0.75:
                log.record(seq, op("rename", src="/a" * rng.randrange(1, 40), dst="/b"), OpResult())
                self._reference_record(log, reference)
            elif r < 0.9:
                log.record(seq, op("symlink", target="t" * rng.randrange(200), path="/l"), OpResult(ino=seq))
                self._reference_record(log, reference)
            else:
                log.record(seq, op("unlink", path="/gone"), OpResult(errno=Errno.ENOENT))
                self._reference_record(log, reference)
            assert log.stats == reference
            assert log.approximate_bytes() == log.recount_bytes()
        assert reference.truncations > 5 and reference.max_entries > 50

    def test_record_is_a_lean_positional_triple(self):
        log = OpLog()
        operation, outcome = op("mkdir", path="/a"), OpResult(ino=12)
        record = log.record(4, operation, outcome)
        assert (record.seq, record.op, record.outcome) == (4, operation, outcome)
        assert record.op is operation and record.outcome is outcome
        assert not hasattr(record, "__dict__")  # slots: nothing per record but the three fields


class TestDetectorHistoryRing:
    def test_history_is_bounded_but_counts_are_not(self):
        detector = Detector(history_limit=3)
        for index in range(10):
            detector.classify(KernelBug(f"b{index}"))
        assert len(detector.history) == 3
        assert detector.stats.total == 10
        # The ring keeps the most recent detections.
        assert [str(d.exception) for d in detector.history] == ["b7", "b8", "b9"]

    def test_history_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            Detector(history_limit=0)
