"""Argued sanctions for sweep outcomes that are benign by design.

The sweep's contract is *zero unsanctioned non-clean outcomes*: every
(op, point, crash-kind) tuple that does not come back recovered-clean
is either a bug (fix it, add a regression test) or gets an entry here
with an argument a reviewer can check.  The table mirrors
``PERSIST_SANCTIONS`` in :mod:`repro.spec.persistence`: a pure literal
dict, and entries that no longer match any non-clean result are *stale*
and fail the sweep with exit 2 — the table may only shrink as the code
improves, never silently rot.

Keys are ``(op, ref, crash_kind)``; ``crash_kind`` may be the wildcard
``"*"`` when the argument is independent of how the crash is delivered.
"""

from __future__ import annotations

_WILDCARD = "*"

#: (op, "path:line", crash-kind) -> why the non-clean outcome is correct.
SWEEP_SANCTIONS: dict[tuple[str, str, str], str] = {
    ("commit", "blockdev/blkmq.py:222", _WILDCARD): (
        "unreached: commit's barrier is device.flush() called directly after "
        "drain+reap; no crash-entry op submits flush *requests* through blk-mq, "
        "so the dispatch flush branch is dynamically dead on every commit path. "
        "The static surface keeps the point because submit_flush is public API."
    ),
    ("unmount", "blockdev/blkmq.py:222", _WILDCARD): (
        "unreached: unmount reaches this point only through commit, and commit "
        "never submits flush requests through blk-mq (see the commit sanction)."
    ),
    ("commit", "basefs/filesystem.py:690", _WILDCARD): (
        "unreached: this is the ordered-data *submission* site — "
        "blkmq.submit_write only enqueues; no device call happens while the "
        "line is live, so there is no distinct durable state to crash into. "
        "The deferred device effect is swept as blockdev/blkmq.py:219 (the "
        "dispatch write), which covers the same data-write persistence."
    ),
    ("unmount", "basefs/filesystem.py:690", _WILDCARD): (
        "unreached: same submission-only site as the commit sanction — "
        "unmount reaches it through commit's ordered-data phase."
    ),
}


def sanction_for(op: str, ref: str, crash_kind: str) -> str | None:
    """The sanction text covering this tuple, or None."""
    exact = SWEEP_SANCTIONS.get((op, ref, crash_kind))
    if exact is not None:
        return exact
    return SWEEP_SANCTIONS.get((op, ref, _WILDCARD))


def validate_sanctions(
    pair_outcomes: dict[tuple[str, str, str], str],
    clean_outcome: str,
) -> list[tuple[str, str, str]]:
    """Stale sanction keys: entries matching no non-clean result.

    ``pair_outcomes`` maps (op, ref, crash_kind) to the aggregated
    outcome.  A sanction is live iff at least one swept tuple it covers
    came back non-clean.  Partial sweeps (filters, smoke caps) must not
    report staleness for tuples they never ran, so keys whose (op, ref)
    never appears in ``pair_outcomes`` are ignored, not stale.
    """
    stale: list[tuple[str, str, str]] = []
    for key in SWEEP_SANCTIONS:
        op, ref, kind = key
        covered = [
            outcome
            for (r_op, r_ref, r_kind), outcome in pair_outcomes.items()
            if r_op == op and r_ref == ref and (kind == _WILDCARD or kind == r_kind)
        ]
        if not covered:
            continue  # not swept this run; can't judge
        if all(outcome == clean_outcome for outcome in covered):
            stale.append(key)
    return stale
