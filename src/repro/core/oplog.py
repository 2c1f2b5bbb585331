"""Operation recording.

§3.2: "the base filesystem must record the operation sequence that tracks
the gap between the applications' view and the on-disk state. ...The
recorded operation sequence also reflects the outcome of the operations,
such as the return value, new file descriptors, and new inode numbers."

The log has two parts:

* **entries** — every operation completed since the last durability
  point (journal commit), each with its :class:`~repro.api.OpResult`
  outcome.  This is what constrained replay re-executes.
* **fd registry** — a snapshot of the open-descriptor table taken at the
  last durability point.  Descriptors can long outlive any single commit
  window, so truncating the entries must not lose them; the snapshot is
  the replay engine's starting fd state.

Truncation: when the base commits, everything recorded so far is
reflected on disk, so the entries are discarded and the registry is
re-snapshotted — the paper's "when a file descriptor is closed and the
buffered updates are flushed to disk, the corresponding recorded
operations can be discarded", generalized to the commit boundary that
actually makes updates durable here.

``read`` and ``lseek`` are recorded too: they mutate fd offsets (part of
essential state) and their recorded outcomes give constrained mode its
cross-check material.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.api import FsOp, OpResult
from repro.basefs.vfs import FdState


@dataclass(slots=True)
class OpRecord:
    """One completed operation and its application-visible outcome."""

    seq: int
    op: FsOp
    outcome: OpResult

    def describe(self) -> str:
        status = self.outcome.errno.name if self.outcome.errno else "ok"
        return f"#{self.seq} {self.op.describe()} -> {status}"


@dataclass
class OpLogStats:
    recorded: int = 0
    truncations: int = 0
    max_entries: int = 0
    max_bytes: int = 0


_FD_SLOT_BYTES = 64
_RECORD_BASE_BYTES = 96


def _record_bytes(op: FsOp, outcome: OpResult) -> int:
    """Approximate footprint of one record (payloads + fixed overhead)."""
    total = _RECORD_BASE_BYTES
    for value in op.args.values():
        if isinstance(value, (bytes, bytearray, str)):
            total += len(value)
    value = outcome.value
    if isinstance(value, (bytes, bytearray, str)):
        total += len(value)
    elif isinstance(value, list):
        total += sum(len(str(item)) for item in value)
    return total


@dataclass
class OpLog:
    entries: list[OpRecord] = field(default_factory=list)
    fd_snapshot: dict[int, FdState] = field(default_factory=dict)
    stats: OpLogStats = field(default_factory=OpLogStats)
    _entry_bytes: int = 0

    def record(self, seq: int, op: FsOp, outcome: OpResult) -> OpRecord:
        record = OpRecord(seq, op, outcome)
        entries = self.entries
        entries.append(record)
        self._entry_bytes += _record_bytes(op, outcome)
        stats = self.stats
        stats.recorded += 1
        if len(entries) > stats.max_entries:
            stats.max_entries = len(entries)
        window_bytes = _FD_SLOT_BYTES * len(self.fd_snapshot) + self._entry_bytes
        if window_bytes > stats.max_bytes:
            stats.max_bytes = window_bytes
        return record

    def truncate(self, open_fds: Mapping[int, FdState]) -> None:
        """Durability point reached: drop entries, refresh the registry.

        ``open_fds`` may be the live descriptor table: the copy that
        isolates the registry from later offset changes is made here,
        and only here."""
        self.entries.clear()
        self._entry_bytes = 0
        self.fd_snapshot = {fd: st.snapshot() for fd, st in open_fds.items()}
        self.stats.truncations += 1

    def __len__(self) -> int:
        return len(self.entries)

    def window_bounds(self) -> tuple[int, int] | None:
        """(first, last) correlation ids recorded in the current window.

        The sequence number *is* the correlation id threaded through the
        detector, the recovery phases, and the forensic bundle: a
        bundle's ``window`` section uses these bounds to state exactly
        which recorded ops constrained replay re-executed."""
        if not self.entries:
            return None
        return (self.entries[0].seq, self.entries[-1].seq)

    def approximate_bytes(self) -> int:
        """Rough memory footprint, for the op-log ablation benchmark.

        O(1): a running byte counter is maintained on ``record`` and
        reset on ``truncate`` — ``record`` needs this sum per append for
        its high-water mark, so a full rescan would make the commit
        window O(n²).
        """
        return _FD_SLOT_BYTES * len(self.fd_snapshot) + self._entry_bytes

    def recount_bytes(self) -> int:
        """Full-rescan footprint — the pre-optimization definition, kept
        as the oracle for the O(1) counter's regression test."""
        total = _FD_SLOT_BYTES * len(self.fd_snapshot)
        for record in self.entries:
            total += _record_bytes(record.op, record.outcome)
        return total
