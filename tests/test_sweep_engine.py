"""The crash-point sweep engine: trace recording and crash-point
counting, outcome classification, replay determinism, the smoke slice,
and the full-sweep acceptance — every recorded write and flush of every
scenario, crashed under both kinds, comes back clean, and every
durability function issues at least one crashed call."""

import re
from dataclasses import replace

import pytest

from repro.basefs.filesystem import BaseFilesystem
from repro.blockdev.device import MemoryBlockDevice
from repro.errors import KernelBug
from repro.ondisk.mkfs import mkfs
from repro.sweep.cli import main as sweep_main
from repro.sweep.device import (
    FAIL_STOP,
    FLUSH,
    POWER_LOSS,
    WRITE,
    CrashPoint,
    SweepDevice,
    crash_points,
)
from repro.sweep.engine import (
    OUTCOME_CLEAN,
    OUTCOME_UNREACHED,
    SCENARIOS,
    SweepConfig,
    SweepEngine,
    _spread,
)


def _quick_config(**overrides) -> SweepConfig:
    base = dict(profiles=("fileserver",), nops=12, minimize=False)
    base.update(overrides)
    return SweepConfig(**base)


def _fs_on_sweep_device():
    mem = MemoryBlockDevice(block_count=1024, track_durability=True)
    mkfs(mem, journal_blocks=16)
    dev = SweepDevice(mem)
    return BaseFilesystem(dev), dev, mem


def _commit_trace() -> list[CrashPoint]:
    fs, dev, _ = _fs_on_sweep_device()
    fs.mkdir("/d")
    dev.record()
    fs.commit()
    return dev.trace


def _commit_records(trace: list[CrashPoint]) -> list[CrashPoint]:
    """Writes sealed by a flush on both sides: the journal's commit
    records (``JournalWriter.append`` flushes the logged blocks, writes
    the record alone, and flushes again)."""
    return [
        point
        for before, point, after in zip(trace, trace[1:], trace[2:])
        if point.call == WRITE and before.call == FLUSH and after.call == FLUSH
    ]


class TestSweepDeviceMatching:
    """The crash trigger fires once, right after the armed call."""

    def test_commit_record_site_fires_during_commit(self):
        (record,) = _commit_records(_commit_trace())
        fs, dev, _ = _fs_on_sweep_device()
        fs.mkdir("/d")
        dev.arm(record, FAIL_STOP)
        with pytest.raises(KernelBug, match="sweep crash"):
            fs.commit()
        assert dev.fired

    def test_delegating_site_matches_through_callee(self):
        # The journal manager's home writes go cache.writeback(block) ->
        # device.write_block; the counter sees them like any other write.
        trace = _commit_trace()
        (record,) = _commit_records(trace)
        home = trace[trace.index(record) + 2]
        assert home.call == WRITE
        fs, dev, _ = _fs_on_sweep_device()
        fs.mkdir("/d")
        dev.arm(home, FAIL_STOP)
        with pytest.raises(KernelBug) as crash:
            fs.commit()
        tb, callers = crash.value.__traceback__, set()
        while tb is not None:
            callers.add(tb.tb_frame.f_code.co_qualname)
            tb = tb.tb_next
        assert {"JournalManager.commit", "BufferCache.writeback"} <= callers

    def test_disarmed_device_never_fires(self):
        (record,) = _commit_records(_commit_trace())
        fs, dev, _ = _fs_on_sweep_device()
        dev.arm(record, FAIL_STOP)
        dev.disarm()
        fs.mkdir("/d")
        fs.commit()
        assert not dev.fired

    def test_unknown_crash_kind_rejected(self):
        dev = SweepDevice(MemoryBlockDevice(block_count=1024))
        with pytest.raises(ValueError, match="crash kind"):
            dev.arm(CrashPoint(FLUSH, -1, 1), "meteor-strike")

    def test_counting_starts_at_record_and_numbers_each_block(self):
        mem = MemoryBlockDevice(block_count=64, track_durability=True)
        dev = SweepDevice(mem)
        block = bytes(mem.block_size)
        dev.write_block(5, block)  # before record(): neither kept nor counted
        dev.record()
        for index in (5, 6, 5):
            dev.write_block(index, block)
        dev.flush()
        dev.read_block(5)
        assert dev.trace == [
            CrashPoint(WRITE, 5, 1), CrashPoint(WRITE, 6, 1),
            CrashPoint(WRITE, 5, 2), CrashPoint(FLUSH, -1, 1),
        ]

    def test_power_loss_drops_unflushed_writes_then_raises(self):
        mem = MemoryBlockDevice(block_count=64, track_durability=True)
        dev = SweepDevice(mem)
        dev.arm(CrashPoint(WRITE, 3, 1), POWER_LOSS)
        dev.write_block(2, b"a" * mem.block_size)
        dev.flush()
        with pytest.raises(KernelBug):
            dev.write_block(3, b"b" * mem.block_size)
        assert mem.read_block(2) == b"a" * mem.block_size
        assert mem.read_block(3) == bytes(mem.block_size)
        dev.write_block(3, b"c" * mem.block_size)  # fires once only
        assert dev.fired


class TestCrashPoints:
    TRACE = [
        CrashPoint(WRITE, 1, 1), CrashPoint(WRITE, 2, 1), CrashPoint(FLUSH, -1, 1),
        CrashPoint(FLUSH, -1, 2), CrashPoint(WRITE, 1, 2), CrashPoint(FLUSH, -1, 3),
        CrashPoint(WRITE, 9, 1),
    ]

    def test_fail_stop_crashes_after_every_call(self):
        assert crash_points(self.TRACE, FAIL_STOP) == self.TRACE

    def test_power_loss_crashes_once_per_durable_image(self):
        # Before each publishing flush, plus the unflushed tail; the
        # second flush publishes nothing and adds no image.
        assert crash_points(self.TRACE, POWER_LOSS) == [
            CrashPoint(WRITE, 2, 1), CrashPoint(WRITE, 1, 2), CrashPoint(WRITE, 9, 1),
        ]


class TestClassification:
    def _case_at(self, engine, crash_kind, pick):
        (case,) = [
            case for case in engine.build_cases()
            if case.crash_kind == crash_kind and case.point == pick(engine.trace_of(case))
        ]
        return case

    def test_commit_record_fail_stop_recovers_clean(self):
        engine = SweepEngine(_quick_config(ops=("workload",)))
        case = self._case_at(engine, FAIL_STOP, lambda trace: _commit_records(trace)[0])
        result = engine.run_case(case)
        assert result.fired
        assert result.outcome == OUTCOME_CLEAN

    def test_commit_record_power_loss_recovers_clean(self):
        engine = SweepEngine(_quick_config(ops=("workload",)))
        case = self._case_at(engine, POWER_LOSS, lambda trace: _commit_records(trace)[0])
        result = engine.run_case(case)
        assert result.fired
        assert result.outcome == OUTCOME_CLEAN

    def test_recorded_call_that_never_fires_is_a_failure(self):
        # A call the unarmed run did not make means the scenario is not
        # deterministic: a failure with a reproducer, not a skip.
        engine = SweepEngine(_quick_config(ops=("inode-repair",), crash_kinds=(FAIL_STOP,)))
        (case,) = engine.build_cases()
        missing = replace(case, point=CrashPoint(FLUSH, -1, 99))
        report = engine.run([missing])
        assert [r.outcome for r in report.failures] == [OUTCOME_UNREACHED]
        assert report.reproducers[0]["sweep"]["params"]["occurrence"] == 99


class TestDeterminism:
    """One sweep seed, byte-identical replay."""

    def _commit_record_case(self, engine):
        return next(
            case for case in engine.build_cases()
            if case.crash_kind == FAIL_STOP and case.point == _commit_records(engine.trace_of(case))[0]
        )

    def test_same_case_replays_byte_identically(self):
        config = _quick_config(ops=("workload",))
        engine = SweepEngine(config)
        case = self._commit_record_case(engine)
        first = engine.run_case(case)
        second = SweepEngine(config).run_case(case)  # fresh engine, no caches
        assert first.outcome == second.outcome
        assert first.image == second.image
        assert first.image is not None

    def test_case_rebuilt_from_bundle_params_replays_identically(self):
        config = _quick_config(ops=("workload",))
        engine = SweepEngine(config)
        case = self._commit_record_case(engine)
        original = engine.run_case(case)
        rebuilt = SweepEngine.case_from_params(case.params())
        assert rebuilt == case
        replay = SweepEngine(config).run_case(rebuilt)
        assert replay.outcome == original.outcome
        assert replay.image == original.image

    def test_recorded_traces_are_identical_across_engines(self):
        config = _quick_config(ops=("workload", "mount"))
        assert SweepEngine(config).build_cases() == SweepEngine(config).build_cases()

    def test_different_seed_changes_sub_seeds(self):
        a = SweepEngine(_quick_config(seed=1, ops=("inode-repair",))).build_cases()
        b = SweepEngine(_quick_config(seed=2, ops=("inode-repair",))).build_cases()
        assert a[0].workload_seed != b[0].workload_seed


class TestSmokeSlice:
    def _cases(self):
        point = CrashPoint(WRITE, 0, 1)
        cases = []
        for op, size in (("workload", 300), ("mkfs", 20), ("cache-sync", 1)):
            for kind in (FAIL_STOP, POWER_LOSS):
                for occurrence in range(1, size + 1):
                    cases.append(SweepEngine.case_from_params({
                        "op": op, "crash_kind": kind, "profile": "fileserver",
                        "call": point.call, "block": point.block, "occurrence": occurrence,
                        "nops": 10, "workload_seed": 1, "block_count": 1024,
                        "journal_blocks": 16,
                    }))
        return cases

    def test_cap_spreads_over_every_scenario_and_kind(self):
        picked = _spread(self._cases(), 10)
        assert len(picked) == 10
        assert {(c.op, c.crash_kind) for c in picked} == {
            (op, kind) for op in ("workload", "mkfs", "cache-sync")
            for kind in (FAIL_STOP, POWER_LOSS)
        }
        # Spare share goes to the groups that can use it, evenly spaced.
        workload = [c.point.occurrence for c in picked if c.op == "workload" and c.crash_kind == FAIL_STOP]
        assert workload == [1, 151]

    def test_cap_above_the_work_list_keeps_everything(self):
        cases = self._cases()
        assert _spread(cases, 10_000) == cases


# ---------------------------------------------------------------------------
# the full sweep at tier-1 size

#: The functions the durability spec names (DURABILITY_PROTOCOL and
#: WRITE_SITE_ROLES in spec/persistence.py) plus every function the
#: retired static crash catalog reached, except ``clone_to_memory``,
#: whose writes go to a fresh clone (tests/test_ondisk_mkfs_image.py
#: covers it).
DURABILITY_FUNCTIONS = frozenset({
    "JournalWriter.append", "JournalManager.commit", "BaseFilesystem.commit",
    "reset_journal", "BlockMQ._dispatch",
    "BaseFilesystem.__init__", "BaseFilesystem.unmount", "BufferCache.sync",
    "BufferCache.writeback", "FaultyBlockDevice.read_block", "JournalTxn.apply",
    "JournalWriter.reset", "mkfs", "replay_journal", "write_inode",
})

#: The metadata profile prepopulates little, so its trace is short: about
#: 470 cases over every scenario and both crash kinds.
TIER1_CONFIG = SweepConfig(profiles=("metadata",), nops=12, minimize=False)


@pytest.fixture(scope="module")
def tier1_sweep():
    """Run the tier-1 sweep once, noting the qualnames on the stack at
    every crash (the recording wrapper for the reach test)."""
    crashed_in: set[str] = set()
    original = SweepDevice._fire

    def recording_fire(self):
        import sys

        frame = sys._getframe(1)
        while frame is not None:
            crashed_in.add(frame.f_code.co_qualname)
            frame = frame.f_back
        original(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SweepDevice, "_fire", recording_fire)
        engine = SweepEngine(TIER1_CONFIG)
        cases = engine.build_cases()
        report = engine.run(cases)
    return cases, report, crashed_in


class TestFullSweepAcceptance:
    """Every recorded write and flush of every scenario, crashed under
    both kinds, recovers clean."""

    def test_full_sweep_is_clean(self, tier1_sweep):
        cases, report, _ = tier1_sweep
        assert {(c.op, c.crash_kind) for c in cases} == {
            (op, kind) for op in SCENARIOS for kind in (FAIL_STOP, POWER_LOSS)
        }
        assert len(report.results) == len(cases) >= 300
        assert report.failures == [], "\n".join(
            f"{r.case.ident()}: {r.outcome} {r.detail}" for r in report.failures
        )
        assert report.outcome_counts() == {OUTCOME_CLEAN: len(cases)}

    def test_every_durability_function_issues_a_crashed_call(self, tier1_sweep):
        _, _, crashed_in = tier1_sweep
        assert DURABILITY_FUNCTIONS - crashed_in == set()


class TestExploredReport:
    """What the sweep explored, report-only: the cases run and the
    distinct final durable images they left."""

    def test_distinct_final_images_are_counted_by_content(self):
        config = _quick_config(ops=("mkfs", "inode-repair"))
        cases = SweepEngine(config).build_cases()
        engine = SweepEngine(config)
        distinct = []
        for case in cases:
            image = engine.run_case(case).image
            if image is not None and image not in distinct:
                distinct.append(image)
        report = SweepEngine(config).run(cases)
        assert 1 < len(report.image_digests) == len(distinct) < len(cases)
        assert all(result.image is None for result in report.results)

    def test_cli_summary_ends_with_the_explored_line(self, capsys):
        assert sweep_main(["--smoke", "--ops", "mkfs", "--no-minimize"]) == 0
        *_, summary, explored = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"\d+ cases in [\d.]+ s \([\d.]+ cases/s, traces included\)", summary)
        assert re.fullmatch(r"explored: [\d.]+ cases/s, \d+ distinct final durable images", explored)
