"""fstests-style suite plumbing for the sweep.

The sweep's unit of execution is one (scenario, profile, crash kind,
trace point) case; this module gives those cases the shape of an
fstests run: stable case names (``sweep/<op>/NNN``), group membership
for selection (``-g workload``, ``-g power-loss``, ``-g flush``), scratch-image
setup/teardown with per-geometry template caching, and the familiar
one-line-per-case result listing with a totals footer.
"""

from __future__ import annotations

from repro.blockdev.device import MemoryBlockDevice
from repro.ondisk.mkfs import formatted_device


class ScratchImage:
    """Scratch-device setup/teardown, fstests SCRATCH_DEV style.

    ``mkfs`` on every case would dominate sweep time; instead ``setup()``
    hands out a durability-tracking device over the geometry's one shared
    formatted image.  ``teardown()`` exists for symmetry and for subclasses
    backed by real files; in-memory scratch devices are just dropped.
    """

    def __init__(self, block_count: int = 1024, journal_blocks: int = 8):
        self.block_count = block_count
        self.journal_blocks = journal_blocks

    def setup(self) -> MemoryBlockDevice:
        return formatted_device(self.block_count, self.journal_blocks, track_durability=True)

    def teardown(self, mem: MemoryBlockDevice | None = None) -> None:
        """Nothing to release: an in-memory scratch device is just dropped."""

    def __enter__(self) -> MemoryBlockDevice:
        return self.setup()

    def __exit__(self, *exc) -> None:
        self.teardown()


# ----------------------------------------------------------------------
# case naming and groups


def case_name(case, index: int) -> str:
    """``sweep/<op>/NNN`` — stable across runs for a fixed work-list."""
    return f"sweep/{case.op}/{index:03d}"


def case_groups(case) -> tuple[str, ...]:
    """Groups a case belongs to, fstests ``-g`` style."""
    return ("auto", case.op, case.crash_kind, case.point.call, case.profile)


def name_cases(cases) -> list[tuple[str, object]]:
    """Assign ``sweep/<op>/NNN`` names, numbering within each op."""
    counters: dict[str, int] = {}
    named: list[tuple[str, object]] = []
    for case in cases:
        counters[case.op] = counters.get(case.op, 0) + 1
        named.append((case_name(case, counters[case.op]), case))
    return named


def select_cases(named, groups: tuple[str, ...] | None) -> list[tuple[str, object]]:
    """Keep cases belonging to any requested group (None = all)."""
    if not groups:
        return list(named)
    wanted = set(groups)
    return [(name, case) for name, case in named if wanted & set(case_groups(case))]


# ----------------------------------------------------------------------
# result formatting

#: outcome -> fstests-style status word.
_STATUS = {
    "recovered-clean": "pass",
    "repaired": "pass",
    "diverged": "FAIL",
    "recovery-failed": "FAIL",
    "unreached": "FAIL",
}


def format_result_line(name: str, result) -> str:
    status = _STATUS.get(result.outcome, "FAIL")
    line = f"{name:<28} {status:<7} ({result.outcome})"
    if result.detail:
        line += f" — {result.detail}"
    return line


def format_report(named_results, report) -> str:
    """The run listing plus the fstests-style footer."""
    lines = [format_result_line(name, result) for name, result in named_results]
    counts = report.outcome_counts()
    lines.append("")
    lines.append(
        f"Ran {len(named_results)} cases: "
        + ", ".join(f"{count} {outcome}" for outcome, count in sorted(counts.items()))
    )
    if report.failures:
        lines.append(f"NON-CLEAN OUTCOMES ({len(report.failures)}):")
        for result in report.failures:
            suffix = f" — {result.detail}" if result.detail else ""
            lines.append(f"  {result.case.ident()}: {result.outcome}{suffix}")
    else:
        lines.append("All cases recovered clean.")
    return "\n".join(lines)
