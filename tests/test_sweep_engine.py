"""The crash-point sweep engine: catalog drift gating, crash-site
matching, outcome classification, replay determinism, and the full-sweep
acceptance — every (op, point) pair of the committed surface executes
with zero unsanctioned non-clean outcomes."""

import json
from pathlib import Path

import pytest

from repro.basefs.filesystem import BaseFilesystem
from repro.basefs.hooks import HookPoints
from repro.blockdev.device import MemoryBlockDevice
from repro.ondisk.mkfs import mkfs
from repro.sweep.device import FAIL_STOP, POWER_LOSS, SweepDevice
from repro.sweep.engine import (
    OUTCOME_CLEAN,
    OUTCOME_UNREACHED,
    SweepConfig,
    SweepEngine,
)
from repro.sweep.sanctions import SWEEP_SANCTIONS, sanction_for, validate_sanctions
from repro.sweep.surface import SurfaceError, SweepPoint, iter_pairs, load_surface

REPO = Path(__file__).resolve().parent.parent
SURFACE = REPO / "crashpoints.json"
SRC_ROOT = REPO / "src" / "repro"


def _quick_config(**overrides) -> SweepConfig:
    base = dict(
        surface_path=str(SURFACE),
        src_root=str(SRC_ROOT),
        check_drift=False,
        profiles=("fileserver",),
        nops=12,
        minimize=False,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestSurface:
    def test_committed_catalog_loads_and_passes_drift_check(self):
        payload = load_surface(SURFACE, src_root=SRC_ROOT, check_drift=True)
        assert payload["version"] == 1

    def test_pair_count_matches_catalog(self):
        payload = load_surface(SURFACE, check_drift=False)
        pairs = iter_pairs(payload)
        expected = sum(len(body["points"]) for body in payload["ops"].values())
        assert len(pairs) == expected
        assert len(pairs) >= 50  # the committed surface holds 51 pairs

    def test_missing_file_raises_surface_error(self):
        with pytest.raises(SurfaceError, match="cannot read"):
            load_surface("/nonexistent/crashpoints.json", check_drift=False)

    def test_malformed_json_raises_surface_error(self, tmp_path):
        bad = tmp_path / "crashpoints.json"
        bad.write_text("{not json")
        with pytest.raises(SurfaceError, match="not valid JSON"):
            load_surface(bad, check_drift=False)

    def test_drifted_catalog_raises_surface_error(self, tmp_path):
        payload = json.loads(SURFACE.read_text())
        first_op = sorted(payload["ops"])[0]
        payload["ops"][first_op]["points"].pop()
        drifted = tmp_path / "crashpoints.json"
        drifted.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        with pytest.raises(SurfaceError, match="drifted"):
            load_surface(drifted, src_root=SRC_ROOT, check_drift=True)

    def test_cli_maps_drift_to_exit_2(self, tmp_path):
        from repro.sweep.cli import main

        payload = json.loads(SURFACE.read_text())
        first_op = sorted(payload["ops"])[0]
        payload["ops"][first_op]["points"].pop()
        drifted = tmp_path / "crashpoints.json"
        drifted.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        code = main(["--surface", str(drifted), "--src-root", str(SRC_ROOT), "--list"])
        assert code == 2


class TestSweepDeviceMatching:
    """The crash trigger fires at exactly the armed (site, entry) pair."""

    def _commit_point(self, entry="BaseFilesystem.commit") -> SweepPoint:
        return SweepPoint(
            op="commit",
            ref="ondisk/journal.py:181",
            kind="commit-record",
            path="ondisk/journal.py",
            line=181,
            entry=entry,
            entry_path="basefs/filesystem.py",
        )

    def _fs_with_armed_device(self, point, crash_kind=FAIL_STOP):
        mem = MemoryBlockDevice(block_count=1024, track_durability=True)
        mkfs(mem, journal_blocks=16)
        hooks = HookPoints()
        fired = []
        hooks.register(
            "blkmq.submit",
            lambda point, ctx: fired.append(ctx["persist_ref"])
            if ctx.get("persist_ref") else None,
        )
        dev = SweepDevice(mem, hooks)
        fs = BaseFilesystem(dev, hooks=hooks)
        dev.arm_point(point, crash_kind)
        return fs, dev, fired

    def test_commit_record_site_fires_during_commit(self):
        fs, dev, fired = self._fs_with_armed_device(self._commit_point())
        fs.mkdir("/d")
        fs.commit()
        assert "ondisk/journal.py:181" in fired
        assert dev.matches >= 1

    def test_wrong_entry_does_not_fire(self):
        # Same site, but armed for the unmount entry: a bare commit must
        # not match — each (op, point) tuple is its own run.
        point = self._commit_point(entry="BaseFilesystem.unmount")
        fs, dev, fired = self._fs_with_armed_device(point)
        fs.mkdir("/d")
        fs.commit()
        assert fired == []
        fs.mkdir("/e")  # dirty state so unmount's final commit journals
        fs.unmount()
        assert "ondisk/journal.py:181" in fired

    def test_disarmed_device_never_fires(self):
        fs, dev, fired = self._fs_with_armed_device(self._commit_point())
        dev.disarm_point()
        fs.mkdir("/d")
        fs.commit()
        assert fired == []

    def test_delegating_site_matches_through_callee(self):
        # journal_mgr.py:139 is `cache.writeback(block)` — the physical
        # write happens inside BufferCache; the stack walk must still
        # attribute it to the journal manager's home-write site.
        point = SweepPoint(
            op="commit",
            ref="basefs/journal_mgr.py:139",
            kind="checkpoint",
            path="basefs/journal_mgr.py",
            line=139,
            entry="BaseFilesystem.commit",
            entry_path="basefs/filesystem.py",
        )
        fs, dev, fired = self._fs_with_armed_device(point)
        fs.mkdir("/d")
        fs.commit()
        assert "basefs/journal_mgr.py:139" in fired

    def test_unknown_crash_kind_rejected(self):
        mem = MemoryBlockDevice(block_count=1024)
        dev = SweepDevice(mem, HookPoints())
        with pytest.raises(ValueError, match="crash kind"):
            dev.arm_point(self._commit_point(), "meteor-strike")


class TestClassification:
    def test_commit_record_fail_stop_recovers_clean(self):
        engine = SweepEngine(_quick_config(refs=("ondisk/journal.py:181",), ops=("commit",)))
        cases = engine.build_cases(engine.load_pairs())
        by_kind = {case.crash_kind: case for case in cases}
        result = engine.run_case(by_kind[FAIL_STOP])
        assert result.fired
        assert result.outcome == OUTCOME_CLEAN

    def test_commit_record_power_loss_recovers_clean(self):
        engine = SweepEngine(_quick_config(refs=("ondisk/journal.py:181",), ops=("commit",)))
        cases = engine.build_cases(engine.load_pairs())
        by_kind = {case.crash_kind: case for case in cases}
        result = engine.run_case(by_kind[POWER_LOSS])
        assert result.fired
        assert result.outcome == OUTCOME_CLEAN

    def test_submission_only_site_is_unreached(self):
        # commit's ordered-data submission in basefs/filesystem.py
        # enqueues into blk-mq; no device call happens while the line is
        # live — the sweep must report it unreached (and the sanctions
        # table argues why that is correct).  The ref comes from the
        # committed catalogue, so sanctions.py holds the only literal.
        (submission,) = [
            pair.ref
            for pair in iter_pairs(load_surface(SURFACE, check_drift=False))
            if pair.op == "commit" and pair.kind == "data-write" and pair.path == "basefs/filesystem.py"
        ]
        engine = SweepEngine(_quick_config(refs=(submission,), ops=("commit",)))
        cases = engine.build_cases(engine.load_pairs())
        result = engine.run_case(cases[0])
        assert not result.fired
        assert result.outcome == OUTCOME_UNREACHED
        assert sanction_for("commit", submission, cases[0].crash_kind)


class TestDeterminism:
    """Satellite: one sweep seed, byte-identical replay."""

    def test_same_case_replays_byte_identically(self):
        config = _quick_config(refs=("ondisk/journal.py:181",), ops=("commit",))
        engine = SweepEngine(config)
        case = engine.build_cases(engine.load_pairs())[0]
        first = engine.run_case(case)
        second = SweepEngine(config).run_case(case)  # fresh engine, no caches
        assert first.outcome == second.outcome
        assert first.image == second.image
        assert first.image is not None

    def test_case_rebuilt_from_bundle_params_replays_identically(self):
        config = _quick_config(refs=("ondisk/journal.py:181",), ops=("commit",))
        engine = SweepEngine(config)
        case = engine.build_cases(engine.load_pairs())[0]
        original = engine.run_case(case)
        rebuilt = SweepEngine.case_from_params(case.params())
        assert rebuilt == case
        replay = SweepEngine(config).run_case(rebuilt)
        assert replay.outcome == original.outcome
        assert replay.image == original.image

    def test_different_seed_changes_sub_seeds(self):
        pairs = SweepEngine(_quick_config()).load_pairs()
        a = SweepEngine(_quick_config(seed=1)).build_cases(pairs)
        b = SweepEngine(_quick_config(seed=2)).build_cases(pairs)
        assert any(
            x.workload_seed != y.workload_seed or x.injector_seed != y.injector_seed
            for x, y in zip(a, b)
        )


class TestSanctions:
    def test_wildcard_lookup(self):
        assert sanction_for("commit", "blockdev/blkmq.py:222", "fail-stop")
        assert sanction_for("commit", "blockdev/blkmq.py:222", "power-loss")
        assert sanction_for("commit", "ondisk/journal.py:181", "fail-stop") is None

    def test_stale_sanction_detected(self):
        outcomes = {("commit", "blockdev/blkmq.py:222", "fail-stop"): "recovered-clean"}
        stale = validate_sanctions(outcomes, "recovered-clean")
        assert ("commit", "blockdev/blkmq.py:222", "*") in stale

    def test_unswept_sanction_is_not_stale(self):
        stale = validate_sanctions({("mkfs", "ondisk/mkfs.py:60", "fail-stop"): "recovered-clean"}, "recovered-clean")
        assert stale == []

    def test_live_sanction_is_not_stale(self):
        outcomes = {
            ("commit", "blockdev/blkmq.py:222", "fail-stop"): "unreached",
            ("commit", "blockdev/blkmq.py:222", "power-loss"): "recovered-clean",
        }
        assert ("commit", "blockdev/blkmq.py:222", "*") not in validate_sanctions(
            outcomes, "recovered-clean"
        )

    def test_every_sanction_has_an_argument(self):
        for key, why in SWEEP_SANCTIONS.items():
            assert len(why) > 40, f"sanction {key} needs a real argument"


class TestFullSweepAcceptance:
    """The ISSUE acceptance gate: the full sweep executes every (op,
    point) pair of the committed catalog with zero unsanctioned
    non-clean outcomes and no stale sanctions."""

    def test_full_sweep_is_clean(self):
        engine = SweepEngine(SweepConfig(
            surface_path=str(SURFACE),
            src_root=str(SRC_ROOT),
            check_drift=False,  # the drift gate has its own test + CI job
            minimize=False,     # nothing to minimize when the sweep is clean
        ))
        pairs = engine.load_pairs()
        assert len(pairs) >= 50
        report = engine.run(engine.build_cases(pairs))

        swept_pairs = {(op, ref) for op, ref, _ in report.pair_outcomes}
        assert swept_pairs == {(p.op, p.ref) for p in pairs}

        assert report.unsanctioned == []
        assert report.stale_sanctions == []
        counts = report.outcome_counts()
        # The healthy tree recovers clean everywhere it can crash; the
        # only non-clean outcomes are the argued unreachable sites.
        assert counts.get("recovered-clean", 0) >= 90
        assert set(counts) <= {"recovered-clean", "unreached"}
        for key, outcome in report.pair_outcomes.items():
            if outcome != "recovered-clean":
                assert sanction_for(*key), f"unsanctioned {key}: {outcome}"
