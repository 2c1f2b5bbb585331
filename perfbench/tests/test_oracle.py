"""The oracle must fail when the program is wrong, not only pass when it
is right."""

import copy

import pytest

from repro.basefs import BaseFilesystem

from perfbench import harness, oracle


@pytest.fixture(scope="module")
def mail():
    return harness.Prepared(harness.WORKLOADS["fsync_mail"], seed=9, smoke=True)


def durability_failures(prepared) -> tuple[int, oracle.Failures]:
    failures = oracle.Failures()
    stream = prepared.stream
    checked = oracle.durability_check(
        prepared.image, harness.BLOCK_COUNT, stream.prepop, stream.ops[: stream.probe],
        prepared.mount_rae, failures,
    )
    return checked, failures


def test_durability_check_passes_on_the_program_as_it_is(mail):
    checked, failures = durability_failures(mail)
    assert checked > 10 and failures.count == 0


def test_durability_check_catches_an_fsync_that_does_not_commit(mail, monkeypatch):
    monkeypatch.setattr(BaseFilesystem, "fsync", lambda self, fd, opseq=0: self.fd_table.get(fd))
    _checked, failures = durability_failures(mail)
    assert failures.count > 0
    assert "after power loss" in failures.notes[0]


def test_outcome_check_counts_divergences_and_raised_ops(mail):
    reference = mail.reference
    start = mail.stream.warmup
    got = [copy.copy(outcome) for outcome in reference.outcomes[start : start + 50]]
    clean = oracle.Failures()
    reference.check_outcomes(got, start, "rae", clean)
    assert clean.count == 0
    got[3].value = "something else"
    got[7] = None  # the op raised
    failures = oracle.Failures()
    reference.check_outcomes(got, start, "rae", failures)
    assert failures.count == 2
    assert failures.notes == [f"rae: op {start + 3} outcome differs from the spec", f"rae: op {start + 7} raised"]


def test_final_check_catches_a_diverged_tree(mail):
    fs = mail.mount_rae(mail.restored())
    for operation in mail.stream.ops:
        operation.apply(fs)
    survivor = mail.reference.spec.readdir("/mail/u0")[0]
    fs.unlink(f"/mail/u0/{survivor}")
    failures = oracle.Failures()
    mail.reference.check_final(fs, fs.device, "rae", failures)
    assert failures.count >= 1 and "final state" in failures.notes[0]
