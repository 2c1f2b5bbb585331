"""FLUSH-BARRIER: no in-place write may overtake an unflushed commit record.

The journal's atomicity pivot is the commit record: once it is on the
platter, replay applies the transaction; before that, replay discards
it.  That pivot only works if a device flush *orders* the commit record
against every later checkpoint/home-location write — a checkpoint that
reaches the disk while the commit record still sits in a volatile cache
is exactly the reordering window Chipmunk-style crash-consistency
studies catalog: crash inside it and recovery replays a half-applied
transaction or none at all, with the home location already mutated.

The check is interprocedural and barrier-aware: it tracks the *pending
unflushed commit record* through the persistence model's composed
summaries
(:mod:`repro.analysis.persistence.model`), so a commit record written
three calls deep (``JournalWriter.append``) and sealed by its own flush
makes the caller's writeback provably safe — and deleting that one
flush turns the caller's writeback into a finding that names the callee
chain.  Silent when the tree declares no ``spec/persistence.py``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.engine import ParsedModule, ProjectRule
from repro.analysis.findings import Finding
from repro.analysis.persistence import model_for


class FlushBarrierRule(ProjectRule):
    rule_id = "FLUSH-BARRIER"
    family = "persistence"
    description = (
        "every commit-record write must be flushed before any checkpoint/"
        "in-place write can follow, on every path (spec/persistence.py)"
    )

    def check_project(self, modules: Sequence[ParsedModule]) -> Iterable[Finding]:
        model = model_for(modules, self.context)
        if model is None:
            return
        for violation in model.violations:
            origin = f"{violation.origin[0]}:{violation.origin[1]}"
            site = f"{violation.site[0]}:{violation.site[1]}"
            if violation.via is None:
                message = (
                    f"in-place write may execute while the commit record "
                    f"written at {origin} is still unflushed — add a device "
                    f"flush between the commit record and this write"
                )
            else:
                message = (
                    f"call into {model.qualname(violation.via)} reaches an "
                    f"in-place write ({site}) while the commit record written "
                    f"at {origin} is still unflushed — flush the device "
                    f"before this call"
                )
            yield Finding(
                path=violation.path,
                line=violation.line,
                rule_id=self.rule_id,
                severity=self.severity,
                message=message,
            )
