"""Tests for the recovery flight recorder and forensic bundles:
repro.obs.events, repro.obs.flight, repro.obs.forensics, and their
supervisor wiring (correlation ids, freeze-at-detection, cross-check
divergence capture)."""

import functools
import hashlib
import json
import os
import random
from collections import deque
from pathlib import Path

import pytest

import repro.core.supervisor as supervisor_module
from repro.api import OpenFlags, op
from repro.basefs.hooks import HookPoints
from repro.core.supervisor import RAEConfig, RAEFilesystem
from repro.errors import Errno, KernelBug, RecoveryFailure
from repro.faults.catalog import make_dir_insert_crash_bug
from repro.faults.injector import Injector
from repro.obs import (
    BundleStore,
    CrossCheckCapture,
    EventLog,
    FlightRecorder,
    build_bundle,
    load_bundle,
    merge_timeline,
    render_bundle,
    render_timeline,
    write_bundle,
)
from repro.obs.flight import DETAIL_LIMIT
from repro.obs.metrics import Histogram, Registry
from tests.conftest import formatted_device
from tests.reference_forensics import ReferenceCrossCheckCapture, reference_freeze
from tests.test_core_supervisor import crash_on_name
from tests.test_obs import FakeClock


# ---------------------------------------------------------------------------
# Event log


class TestEventLog:
    def test_emit_records_seq_ts_corr_id_fields(self):
        log = EventLog(clock=FakeClock())
        event = log.emit("detect", corr_id=7, kind_of_error="bug")
        assert event.seq == 1
        assert event.ts == 1.0
        assert event.corr_id == 7
        assert event.fields == {"kind_of_error": "bug"}
        assert log.counts == {"detect": 1}

    def test_ring_bounded_but_counts_cumulative(self):
        log = EventLog(clock=FakeClock(), limit=3)
        for i in range(5):
            log.emit("tick", corr_id=i)
        assert len(log) == 3
        assert log.emitted == 5
        assert log.dropped == 2
        assert log.counts == {"tick": 5}
        assert [e.corr_id for e in log.events] == [2, 3, 4]

    def test_since_slices_by_event_number(self):
        log = EventLog(clock=FakeClock())
        log.emit("before")
        mark = log.emitted
        log.emit("during", corr_id=1)
        log.emit("during", corr_id=2)
        sliced = log.since(mark)
        assert [e.corr_id for e in sliced] == [1, 2]
        assert log.since(log.emitted) == []

    def test_since_after_eviction_and_for_marks_older_than_the_ring(self):
        log = EventLog(clock=FakeClock(), limit=4)
        for mark in range(11):
            # Every mark against the scan since() used to be.
            for probe in range(-1, log.emitted + 2):
                assert log.since(probe) == [e for e in log.events if e.seq > probe], (mark, probe)
            log.emit("tick", corr_id=mark)
        assert [e.seq for e in log.since(8)] == [9, 10, 11]  # a mark still in the ring
        assert [e.seq for e in log.since(7)] == [8, 9, 10, 11]  # the mark just evicted: the whole ring
        assert [e.seq for e in log.since(2)] == [8, 9, 10, 11]  # a mark long gone: what is left, no more
        assert log.since(11) == [] and log.since(12) == []
        assert len(log) == 4 and log.dropped == 7  # since() consumed nothing

    def test_since_on_a_disabled_log_is_empty(self):
        log = EventLog(clock=FakeClock(), enabled=False)
        log.emit("detect")
        assert log.since(0) == []

    def test_disabled_log_is_a_no_op(self):
        log = EventLog(clock=FakeClock(), enabled=False)
        assert log.emit("detect") is None
        assert log.emitted == 0
        assert log.snapshot() == []

    def test_bad_limit_rejected(self):
        with pytest.raises(ValueError):
            EventLog(limit=0)


# ---------------------------------------------------------------------------
# Flight recorder


def _truncated(detail: str) -> str:
    """The detail bound, spelled out independently of flight.py."""
    return detail if len(detail) <= DETAIL_LIMIT else detail[: DETAIL_LIMIT - 3] + "..."


def _reachable(root):
    """Every object reachable from ``root`` through containers and
    instance attributes (what the ring pins in memory)."""
    seen, stack = set(), [root]
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        yield value
        if isinstance(value, dict):
            stack.extend(value.keys())
            stack.extend(value.values())
        elif isinstance(value, (list, tuple, set, frozenset, deque)):
            stack.extend(value)
        elif hasattr(value, "__dict__"):
            stack.append(vars(value))


class TestFlightRecorder:
    def test_ring_is_bounded_and_details_truncated(self):
        clock = FakeClock()
        rec = FlightRecorder(clock=clock, size=3)
        for i in range(5):
            rec.note_op(i, op("symlink", target="x" * 500, path="/l"), None, clock())
        assert len(rec) == 3
        assert rec.ops_seen == 5
        for entry in rec.freeze("bug").entries:
            assert len(entry.detail) == DETAIL_LIMIT
            assert entry.detail.endswith("...")

    def test_freeze_copies_ring_and_stat_deltas(self):
        stats = {"journal.commits": 10}
        clock = FakeClock()
        rec = FlightRecorder(clock=clock, stats_source=lambda: dict(stats))
        rec.rebaseline()
        stats["journal.commits"] = 14
        rec.note_op(1, op("mkdir", path="/a"), None, clock())
        frozen = rec.freeze("bug during op #1", trigger_seq=1)
        assert frozen.trigger_seq == 1
        assert frozen.reason == "bug during op #1"
        assert [e.seq for e in frozen.entries] == [1]
        assert frozen.stat_deltas == {"journal.commits": 4}
        assert rec.freezes == 1
        assert rec.last_frozen is frozen
        # The frozen copy is immutable: later ops don't leak into it.
        rec.note_op(2, op("rmdir", path="/a"), None, clock())
        assert len(frozen.entries) == 1

    def test_freeze_advances_baseline(self):
        stats = {"n": 0}
        rec = FlightRecorder(clock=FakeClock(), stats_source=lambda: dict(stats))
        rec.rebaseline()
        stats["n"] = 5
        assert rec.freeze("first").stat_deltas == {"n": 5}
        stats["n"] = 7
        assert rec.freeze("second").stat_deltas == {"n": 2}

    def test_disabled_recorder_records_and_freezes_nothing(self):
        rec = FlightRecorder(clock=FakeClock(), enabled=False)
        rec.note_op(1, op("mkdir", path="/a"), None, 1.0)
        assert len(rec) == 0
        assert rec.ops_seen == 0
        assert rec.freeze("bug") is None

    def test_entries_render_at_freeze_with_the_timestamp_given(self):
        rec = FlightRecorder(clock=FakeClock())
        rec.note_op(7, op("open", path="/a", flags=1, perms=0o600), Errno.EEXIST, 12.5)
        assert rec.freeze("bug").entries[0].as_dict() == {
            "seq": 7, "kind": "op", "name": "open",
            "detail": "open(path='/a', flags=1, perms=384)", "errno": "EEXIST", "ts": 12.5,
        }

    def test_ring_holds_no_large_or_foreign_argument(self):
        """An op is kept by reference only while its arguments are ints
        and short strings; anything else is rendered on the spot."""
        rec = FlightRecorder(clock=FakeClock())
        payload, target, mutable = b"p" * 4096, "t" * 4096, bytearray(b"q" * 8)
        rec.note_op(1, op("write", fd=3, data=payload), None, 1.0)
        rec.note_op(2, op("symlink", target=target, path="/l"), None, 2.0)
        rec.note_op(3, op("write", fd=3, data=mutable), None, 3.0)
        rec.note_op(4, op("write", fd=3, data=b"tiny"), None, 4.0)
        assert not any(value is held for held in (payload, target, mutable) for value in _reachable(rec.entries))
        details = [entry.detail for entry in rec.freeze("bug").entries]
        assert details[0] == "write(fd=3, data=<4096B>)"
        assert details[1] == _truncated(op("symlink", target=target, path="/l").describe())
        assert details[3] == "write(fd=3, data=<4B>)"

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(size=0)


# ---------------------------------------------------------------------------
# Lazy rendering is invisible: pinned to what the eager ring produced


def _seeded_stream(seed: int = 16, count: int = 100):
    """A fixed op stream exercising every detail form: short and
    over-long paths, two-path ops, quoted strings, payloads from 0 B to
    1 MiB (``data=<NB>``), and ops that fail."""
    rng = random.Random(seed)
    deep = "/" + "n" * 40
    ops = [
        op("mkdir", path="/d"),
        op("mkdir", path=deep, perms=0o700),
        op("open", path="/d/f", flags=int(OpenFlags.CREAT), perms=0o600),  # fd 3
    ]
    while len(ops) < count:
        r = rng.random()
        leaf = "m" * rng.randrange(1, 60)
        if r < 0.25:
            ops.append(op("write", fd=3, data=b"x" * rng.choice([0, 5, 96, 97, 4096, 1 << 20])))
        elif r < 0.45:
            ops.append(op("stat", path=f"{deep}/{leaf}"))
        elif r < 0.55:
            ops.append(op("rename", src=f"{deep}/{leaf}", dst=f"{deep}/{leaf}-moved"))
        elif r < 0.65:
            ops.append(op("symlink", target="it's \"quoted\" " * rng.randrange(1, 12), path=f"/d/l{len(ops)}"))
        elif r < 0.75:
            ops.append(op("lseek", fd=3, offset=rng.randrange(1 << 16), whence=0))
        elif r < 0.85:
            ops.append(op("read", fd=3, length=rng.randrange(1 << 14)))
        elif r < 0.95:
            ops.append(op("mkdir", path=f"/d/{leaf}"))
        else:
            ops.append(op("readdir", path="/d"))
    return ops


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


class TestLazyRenderingIsInvisible:
    """The ring used to render and truncate every op's detail as the op
    finished; it now keeps the op and renders in ``freeze()``.  Both
    digests below were recorded by running this stream through the eager
    ring on the parent commit (4d3d3e4)."""

    FROZEN_SHA = "90c0df11b238a8c26265c4429fe41213334e0b8257f686e6dbc70c21a2ea305f"
    BUNDLE_SHA = "ddd3788333b6e4bbc125340e41681da075fae6abb7e758fc81a7050f547b6aa0"

    def test_frozen_ring_is_byte_identical(self):
        clock = FakeClock()
        tallies = {"journal.commits": 3}
        rec = FlightRecorder(clock=clock, stats_source=lambda: dict(tallies))
        rec.rebaseline()
        rng = random.Random(5)
        for seq, operation in enumerate(_seeded_stream(), 1):
            errno = rng.choice([None, None, None, Errno.ENOENT, Errno.ENOSPC])
            rec.note_op(seq, operation, errno, clock())
        tallies["journal.commits"] = 9
        frozen = rec.freeze("bug during op #101 (mkdir): crash on 'evil'", trigger_seq=101)
        details = [entry.detail for entry in frozen.entries]
        assert any(len(d) == DETAIL_LIMIT and d.endswith("...") for d in details)
        assert any(d == "write(fd=3, data=<1048576B>)" for d in details)
        assert _sha(frozen.as_dict()) == self.FROZEN_SHA

    def test_supervisor_bundle_is_byte_identical(self):
        """End to end: stream + trigger through a supervisor.  The
        registry is disabled so the injected clock is read once per op
        on either side of the change (the flight timestamp); ``phases``
        is wall-clock time and is left out of the digest."""
        hooks = HookPoints()
        crash_on_name(hooks, "evil")
        fs = RAEFilesystem(
            formatted_device(8192), RAEConfig(profile=False), hooks=hooks,
            obs=Registry(enabled=False, clock=FakeClock()),
        )
        for operation in _seeded_stream():
            operation.apply(fs)
        fs.mkdir("/d/evil")
        assert fs.recovery_count == 1
        bundle = dict(fs.last_bundle)
        del bundle["phases"]
        assert bundle["flight"]["ops_seen"] > len(bundle["flight"]["entries"]) == 64
        assert _sha(bundle) == self.BUNDLE_SHA


# ---------------------------------------------------------------------------
# Bundles render when read: pinned to the eager rendering


def _without_wall_clock(bundle: dict) -> str:
    """A bundle as JSON minus its wall-clock readings: the phase timings
    and the per-phase ``seconds`` its events carry."""
    bundle = dict(bundle)
    del bundle["phases"]
    bundle["events"] = [
        {**event, "fields": {k: v for k, v in event["fields"].items() if k != "seconds"}}
        for event in bundle["events"]
    ]
    return json.dumps(bundle, sort_keys=True)


def _eager_build_bundle(**sections):
    """What the supervisor did before bundles rendered on read."""
    for key in ("flight", "crosschecks"):
        if sections[key] is not None:
            sections[key] = sections[key].as_dict()
    return build_bundle(**sections)


def _recover_successfully(fs, hooks):
    for operation in _seeded_stream(count=60):
        operation.apply(fs)
    fs.mkdir("/d/evil")
    assert fs.recovery_count == 1


def _fail_on_a_strict_mismatch(fs, hooks):
    for operation in _seeded_stream(count=60):
        operation.apply(fs)
    fd = fs.open("/d/tampered", OpenFlags.CREAT)
    fs.write(fd, b"the recorded outcome is about to lie")
    fs.oplog.entries[-1].outcome.value = 2  # claim a short write
    with pytest.raises(RecoveryFailure):
        fs.mkdir("/d/evil")


def _recover_twice_nested(fs, hooks):
    for operation in _seeded_stream(count=60):
        operation.apply(fs)
    armed = [True]

    def post_commit_bug(point, ctx):
        if armed[0]:
            armed[0] = False
            raise KernelBug("post-recovery commit crash")

    hooks.register("journal.commit", post_commit_bug)
    fs.mkdir("/d/evil")  # recovery -> post-commit crash -> nested recovery
    assert fs.recovery_count == 2


class TestBundlesRenderOnRead:
    """The frozen ring and the cross-check table are kept raw and render
    the first time a bundle is read.  Each scenario runs twice from the
    same seed and the same injected clock: once as the tree is, once with
    the reference copies of the old eager ``freeze``/``note`` bodies
    (``tests/reference_forensics.py``) rendering everything inside the
    stall.  Later operations run before the lazy bundles are read, so
    anything they could change would show."""

    def _bundles(self, scenario, eager: bool) -> list[str]:
        hooks = HookPoints()
        crash_on_name(hooks, "evil")
        with pytest.MonkeyPatch.context() as patch:
            if eager:
                patch.setattr(supervisor_module, "CrossCheckCapture", ReferenceCrossCheckCapture)
                patch.setattr(supervisor_module, "build_bundle", _eager_build_bundle)
            fs = RAEFilesystem(
                formatted_device(8192), RAEConfig(profile=False), hooks=hooks,
                obs=Registry(clock=FakeClock()),
            )
            if eager:
                fs.flight.freeze = functools.partial(reference_freeze, fs.flight)
            scenario(fs, hooks)
            if not eager:
                stored = fs.forensics._bundles
                assert stored and all(
                    not isinstance(bundle[key], dict) for bundle in stored for key in ("flight", "crosschecks")
                )
                if fs.recovery_count:
                    for operation in _seeded_stream(seed=17, count=30)[3:]:
                        operation.apply(fs)
            return [_without_wall_clock(bundle) for bundle in fs.forensics.bundles]

    @pytest.mark.parametrize(
        "scenario", [_recover_successfully, _fail_on_a_strict_mismatch, _recover_twice_nested]
    )
    def test_bundle_equals_the_eager_rendering(self, scenario):
        lazy = self._bundles(scenario, eager=False)
        eager = self._bundles(scenario, eager=True)
        assert lazy == eager
        outcomes = [json.loads(bundle)["outcome"] for bundle in lazy]
        crosschecks = [json.loads(bundle)["crosschecks"] for bundle in lazy]
        if scenario is _fail_on_a_strict_mismatch:
            assert outcomes == ["failure"] and crosschecks[0]["divergent"] == 1
        else:
            assert set(outcomes) == {"success"}
            assert len(lazy) == (2 if scenario is _recover_twice_nested else 1)
            assert all(table["rows"] and not table["divergent"] for table in crosschecks)
        assert all(len(json.loads(bundle)["flight"]["entries"]) == 64 for bundle in lazy)

    def test_a_bundle_renders_once(self):
        store = BundleStore()
        capture = CrossCheckCapture()
        store.add(build_bundle(
            outcome="success", trigger={}, window=None, flight=None, phases={},
            replay=None, crosschecks=capture, events=[],
        ))
        first = store.last["crosschecks"]
        assert store.last["crosschecks"] is first is store.bundles[0]["crosschecks"]
        assert len(store) == 1


# ---------------------------------------------------------------------------
# Histogram percentiles


class TestHistogramPercentiles:
    def test_empty_histogram_has_no_percentiles(self):
        hist = Histogram("h")
        assert hist.percentile(0.5) is None
        snap = hist.snapshot()
        assert snap["p50"] is None and snap["p95"] is None and snap["p99"] is None

    def test_invalid_quantile_rejected(self):
        hist = Histogram("h")
        for q in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                hist.percentile(q)

    def test_estimates_land_in_the_right_bucket(self):
        hist = Histogram("h", lo=1.0, factor=2.0, buckets=8)
        for value in [1.5] * 50 + [100.0] * 50:
            hist.observe(value)
        p50 = hist.percentile(0.50)
        p99 = hist.percentile(0.99)
        # p50 sits in the (1, 2] bucket, p99 in the (64, 128] one.
        assert 1.0 <= p50 <= 2.0
        assert 64.0 <= p99 <= 128.0

    def test_clamped_to_observed_extremes(self):
        hist = Histogram("h", lo=1.0, factor=2.0, buckets=4)
        hist.observe(3.0)
        # One sample: every quantile is that sample (bucket interpolation
        # would otherwise report a value inside the (2, 4] bucket).
        assert hist.percentile(0.01) == 3.0
        assert hist.percentile(1.0) == 3.0

    def test_overflow_rank_reports_max(self):
        hist = Histogram("h", lo=1.0, factor=2.0, buckets=2)
        hist.observe(1000.0)
        hist.observe(2000.0)
        assert hist.percentile(0.99) == 2000.0

    def test_snapshot_percentiles_are_ordered(self):
        hist = Histogram("h")
        for i in range(1, 200):
            hist.observe(i * 1e-5)
        snap = hist.snapshot()
        assert snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]


# ---------------------------------------------------------------------------
# Bundle primitives


class TestBundlePrimitives:
    def _minimal(self, **over):
        kwargs = dict(
            outcome="success",
            trigger={"corr_id": 1, "kind": "bug", "op": "mkdir",
                     "exception": "KernelBug", "message": "boom"},
            window=None,
            flight=None,
            phases={"reboot": 0.1, "replay": 0.2, "handoff": 0.1, "total": 0.4},
            replay=None,
            crosschecks=CrossCheckCapture().as_dict(),
            events=[],
        )
        kwargs.update(over)
        return build_bundle(**kwargs)

    def test_build_rejects_unknown_outcome(self):
        with pytest.raises(ValueError):
            self._minimal(outcome="maybe")

    def test_store_is_bounded_with_cumulative_built(self):
        store = BundleStore(limit=2)
        for i in range(4):
            store.add(self._minimal(nesting=i))
        assert store.built == 4
        assert store.dropped == 2
        assert len(store.bundles) == 2
        assert store.last["nesting"] == 3

    def test_write_load_round_trip(self, tmp_path):
        bundle = self._minimal()
        path = write_bundle(str(tmp_path / "b.json"), bundle)
        assert not os.path.exists(path + ".tmp")
        assert load_bundle(path) == bundle

    def test_load_rejects_missing_corrupt_and_wrong_schema(self, tmp_path):
        with pytest.raises(OSError):
            load_bundle(str(tmp_path / "nope.json"))
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json")
        with pytest.raises(ValueError):
            load_bundle(str(corrupt))
        not_a_bundle = tmp_path / "other.json"
        not_a_bundle.write_text('{"schema": 1}')
        with pytest.raises(ValueError):
            load_bundle(str(not_a_bundle))
        wrong_schema = tmp_path / "schema.json"
        wrong_schema.write_text(json.dumps({**self._minimal(), "schema": 99}))
        with pytest.raises(ValueError):
            load_bundle(str(wrong_schema))

    def test_crosscheck_capture_is_bounded(self):
        class FakeOutcome:
            value, ino, errno = 1, None, None

            @staticmethod
            def same_outcome_as(other):
                return True

        class FakeOp:
            @staticmethod
            def describe():
                return "op()"

        class FakeRecord:
            seq, op, outcome = 1, FakeOp(), FakeOutcome()

        capture = CrossCheckCapture(limit=2)
        for _ in range(5):
            capture.note(FakeRecord(), FakeOutcome())
        assert capture.captured == 5
        assert capture.dropped == 3
        assert len(capture.rows) == 2


# ---------------------------------------------------------------------------
# End-to-end: injected fault → bundle


def _supervised_with_bug(config: RAEConfig | None = None):
    device = formatted_device()
    hooks = HookPoints()
    fs = RAEFilesystem(device, config or RAEConfig(), hooks=hooks)
    injector = Injector(hooks, seed=0)
    injector.arm(make_dir_insert_crash_bug())
    fs.on_reboot.append(injector.retarget)
    injector.retarget(fs.base)
    return fs


class TestForensicBundleEndToEnd:
    def _recovered_fs(self):
        fs = _supervised_with_bug()
        fs.mkdir("/a")
        fd = fs.open("/a/f", OpenFlags.CREAT)
        fs.write(fd, b"hello world")
        fs.close(fd)
        fs.mkdir("/a/this is evil")  # deterministic KernelBug → recovery
        assert fs.recovery_count == 1
        return fs

    def test_success_bundle_is_complete(self):
        fs = self._recovered_fs()
        bundle = fs.last_bundle
        assert bundle is not None
        assert bundle["outcome"] == "success"
        # Correlation id: the triggering op's log sequence number.
        trigger = bundle["trigger"]
        assert trigger["corr_id"] == 5
        assert trigger["kind"] == "bug"
        assert trigger["op"] == "mkdir"
        # Frozen pre-detection flight ring: the four preceding ops.
        flight = bundle["flight"]
        assert flight["trigger_seq"] == 5
        assert [e["seq"] for e in flight["entries"]] == [1, 2, 3, 4]
        assert any(delta > 0 for delta in flight["stat_deltas"].values())
        # Per-phase timings.
        assert set(bundle["phases"]) == {"reboot", "replay", "handoff", "total"}
        assert bundle["phases"]["total"] > 0
        # At least one populated constrained-mode cross-check row.
        rows = bundle["crosschecks"]["rows"]
        assert len(rows) >= 1
        assert all(row["match"] for row in rows)
        assert rows[0]["expected"]["value"] is not None or rows[0]["expected"]["ino"] is not None
        # Correlated events, detection first.
        kinds = [e["kind"] for e in bundle["events"]]
        assert kinds[0] == "detect"
        assert "recovery.succeeded" in kinds
        assert all(e["corr_id"] == 5 for e in bundle["events"])
        # Window names the replayed slice.
        assert bundle["window"]["first_seq"] == 1
        assert bundle["window"]["last_seq"] == 4

    def test_flight_freeze_precedes_reboot(self):
        """The frozen ring's stat deltas come from the *failed* base:
        its oplog tally counts the pre-detection window, which the
        contained reboot resets to zero."""
        fs = self._recovered_fs()
        frozen = fs.last_bundle["flight"]
        assert frozen["stat_deltas"]["oplog.recorded"] == 4
        # After recovery the recorder rebaselined against the new base.
        fs.mkdir("/b")
        second = fs.flight.freeze("manual")
        assert second.stat_deltas["oplog.recorded"] < 4

    def test_ring_pins_no_payload_after_large_writes(self):
        """64 x 1 MiB writes, all still in the ring; once the commit has
        dropped the op log's references, nothing the ring holds is a
        payload."""
        fs = RAEFilesystem(formatted_device(8192), RAEConfig(flight_ring_size=256))
        fd = fs.open("/big", OpenFlags.CREAT)
        for fill in range(64):
            fs.write(fd, bytes([fill]) * (1 << 20))
            fs.lseek(fd, 0, 0)  # overwrite in place
        fs.fsync(fd)
        assert len(fs.oplog) == 1
        big = [
            value for value in _reachable(fs.flight.entries)
            if isinstance(value, (bytes, bytearray)) and len(value) >= 1 << 20
        ]
        assert big == []
        details = [entry.detail for entry in fs.flight.freeze("probe").entries]
        assert details.count("write(fd=3, data=<1048576B>)") == 64

    def test_bundle_built_even_when_recovery_fails(self):
        config = RAEConfig(shadow_in_process=False)  # memory device → fails
        fs = _supervised_with_bug(config)
        fs.mkdir("/a")
        with pytest.raises(RecoveryFailure):
            fs.mkdir("/a/this is evil")
        bundle = fs.last_bundle
        assert bundle["outcome"] == "failure"
        assert bundle["failure"]["phase"] == "shadow-process"
        assert bundle["trigger"]["kind"] == "bug"
        assert bundle["flight"]["trigger_seq"] == bundle["trigger"]["corr_id"]
        assert set(bundle["phases"]) >= {"reboot", "replay", "handoff", "total"}
        kinds = [e["kind"] for e in bundle["events"]]
        assert "recovery.failed" in kinds

    def test_bundle_store_and_collector_track_history(self):
        fs = _supervised_with_bug()
        fs.mkdir("/a")
        fs.mkdir("/a/one evil")
        fs.mkdir("/a/two evil")
        assert fs.forensics.built == 2
        collected = fs.obs.collect()
        assert collected["forensics.bundles_built"] == 2
        assert collected["forensics.flight.freezes"] == 2
        assert collected["forensics.flight.ops_seen"] == fs.stats.ops

    def test_flight_disabled_still_builds_bundle(self):
        fs = _supervised_with_bug(RAEConfig(flight=False))
        fs.mkdir("/a")
        fs.mkdir("/a/x evil")
        bundle = fs.last_bundle
        assert bundle["outcome"] == "success"
        assert bundle["flight"] is None
        assert len(bundle["crosschecks"]["rows"]) >= 1

    def test_metrics_disabled_bundle_has_no_events_but_full_forensics(self):
        fs = _supervised_with_bug(RAEConfig(metrics=False))
        fs.mkdir("/a")
        fs.mkdir("/a/x evil")
        bundle = fs.last_bundle
        assert bundle["outcome"] == "success"
        assert bundle["events"] == []
        assert bundle["flight"] is not None
        assert len(bundle["crosschecks"]["rows"]) >= 1

    def test_render_bundle_names_the_story(self):
        fs = self._recovered_fs()
        text = render_bundle(fs.last_bundle)
        assert "success recovery" in text
        assert "corr_id=5" in text
        assert "flight ring (frozen at detection" in text
        assert "[MATCH]" in text
        assert "detect" in text

    def test_timeline_merges_spans_and_events_causally(self):
        fs = self._recovered_fs()
        snap = fs.obs.snapshot()
        merged = merge_timeline(snap["spans"], snap["events"])
        timestamps = [entry["ts"] for entry in merged]
        assert timestamps == sorted(timestamps)
        names = [entry["name"] for entry in merged]
        # Detection precedes the recovery span; the success event follows
        # the hand-off — one causally ordered narrative.
        assert names.index("detect") < names.index("recovery")
        assert names.index("recovery.handoff") < names.index("recovery.succeeded")
        text = render_timeline(merged)
        assert "span  recovery" in text
        assert "event detect" in text

    def test_registry_snapshot_carries_events(self):
        fs = self._recovered_fs()
        snap = fs.obs.snapshot()
        assert any(e["kind"] == "detect" for e in snap["events"])
        assert any(e["kind"] == "handoff.download" for e in snap["events"])
