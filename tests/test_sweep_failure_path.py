"""The sweep's failure path, driven by seeded bugs.

* A journal-replay fault that skips the last home block of every
  replayed transaction makes fail-stop ``workload`` cases diverge; the
  sweep minimizes the op list while the crash stays at the same
  ``(call, block, occurrence)``, and the reproducer bundle's recorded
  parameters replay the failure byte-identically.
* A raw device write seeded into ``unlink`` — the case the retired
  CRASH-HOOK-COVERAGE rule flagged as uncrashable — fails the sweep.
"""

import pytest

from repro.basefs.filesystem import BaseFilesystem
from repro.ondisk.journal import JournalTxn
from repro.sweep.cli import main as sweep_main
from repro.sweep.device import FAIL_STOP, FLUSH, WRITE
from repro.sweep.engine import OUTCOME_DIVERGED, SweepConfig, SweepEngine

CONFIG = SweepConfig(
    profiles=("metadata",), nops=12, ops=("workload",), crash_kinds=(FAIL_STOP,),
)


def _skip_last_home_block(self, device):
    for block, data in list(self.writes.items())[:-1]:
        device.write_block(block, data)


@pytest.fixture
def replay_skips_a_home_block(monkeypatch):
    monkeypatch.setattr(JournalTxn, "apply", _skip_last_home_block)


def _first_diverging_commit_record(engine):
    """The first fail-stop case crashing right after a commit record
    (a write sealed by a flush on both sides) that diverges."""
    for case in engine.build_cases():
        trace = engine.trace_of(case)
        at = trace.index(case.point)
        if not (0 < at < len(trace) - 1 and case.point.call == WRITE
                and trace[at - 1].call == FLUSH and trace[at + 1].call == FLUSH):
            continue
        result = engine.run_case(case)
        if result.outcome == OUTCOME_DIVERGED:
            return case, result
    raise AssertionError("the seeded replay fault diverged no commit-record case")


def test_seeded_replay_fault_is_minimized_and_replays_from_its_bundle(
    replay_skips_a_home_block,
):
    engine = SweepEngine(CONFIG)
    case, failing = _first_diverging_commit_record(engine)

    (result,) = engine.run([case]).results
    assert result.outcome == OUTCOME_DIVERGED
    ops = engine._workload_ops(case)
    minimized = result.minimized_ops
    assert 0 < len(minimized) < len(ops)
    # The shrunk workload still makes the same recorded call, and
    # crashing there still diverges.
    again = engine.run_case(case, ops=minimized)
    assert again.fired and again.outcome == OUTCOME_DIVERGED

    bundle = result.bundle
    assert bundle["sweep"]["minimized_ops"] == [op.describe() for op in minimized]
    rebuilt = SweepEngine.case_from_params(bundle["sweep"]["params"])
    assert rebuilt == case
    replay = SweepEngine(CONFIG).run_case(rebuilt)
    assert replay.outcome == OUTCOME_DIVERGED
    assert replay.detail == failing.detail
    assert replay.image == failing.image is not None


def test_device_write_seeded_into_unlink_fails_the_sweep(monkeypatch, capsys):
    # The retired CRASH-HOOK-COVERAGE rule flagged this write because
    # no fault hook reaches unlink.  The sweep records whatever unlink
    # writes, and this write breaks the bare run.
    unlink = BaseFilesystem.unlink

    def unlink_with_a_raw_write(self, *args, **kwargs):
        unlink(self, *args, **kwargs)
        self.device.write_block(7, b"x")

    monkeypatch.setattr(BaseFilesystem, "unlink", unlink_with_a_raw_write)
    code = sweep_main([
        "--ops", "workload", "--profiles", "metadata", "--nops", "12", "--no-minimize",
    ])
    assert code == 1
    assert "did not complete" in capsys.readouterr().err
