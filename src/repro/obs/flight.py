"""The flight recorder: an always-on, fixed-cost pre-detection ring.

The contained reboot deliberately *discards* the failed base's state —
which is exactly the state a forensic investigation needs.  Membrane-
style fault isolation and EXPLODE-style systematic checking both rely
on a replayable record of the events leading up to a failure; this
module is that record for RAE.

A :class:`FlightRecorder` keeps a small ring of the most recent
operations and a baseline sample of cheap subsystem tallies (journal
commits, cache hits, device IO...).  At detection time — in the
supervisor, *before* :func:`repro.core.reboot.contained_reboot` runs —
the ring is **frozen**: copied into an immutable
:class:`FrozenFlight` (name, brief args, errno per op; the detector's
classification is the freeze ``reason``) together with the stat deltas
since the last baseline.  The frozen copy goes into the forensic bundle;
the live ring keeps recording.

Cost model: one tuple append per operation.  Only a frozen ring is ever
read, so the ring holds the operation itself and the frozen copy keeps
those tuples as they are: the :data:`DETAIL_LIMIT`-bounded detail
strings render when :attr:`FrozenFlight.entries` is read — for a
bundle, the first time the bundle is read, never inside the recovery
stall.  An operation is held only while every argument is
an ``int`` or a string no longer than :data:`DETAIL_LIMIT`; anything
else — a ``write`` payload above all — is rendered on the spot, so the
ring's footprint never grows with operation size.  No clock is read per
op (the caller passes the timestamp it already took) and no stats are
sampled per op — only at baseline/freeze time.  The recorder is on by
default (``RAEConfig(flight=False)`` disables it) and its steady-state
overhead must stay inside the obs-ablation benchmark's noise band.

Never imported by the replay closure (SHADOW-PURITY).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections import deque
from typing import Callable

Clock = Callable[[], float]
StatsSource = Callable[[], dict]

#: Default ring capacity (entries, not bytes; each entry is bounded).
DEFAULT_RING_SIZE = 64

#: Hard cap on one entry's detail string: payload args must never make
#: the ring's footprint grow with operation size.
DETAIL_LIMIT = 96


def _truncate(detail: str) -> str:
    if len(detail) <= DETAIL_LIMIT:
        return detail
    return detail[: DETAIL_LIMIT - 3] + "..."


def _render(seq: int, name: str, what, errno, ts: float) -> FlightEntry:
    """One ring tuple (see :meth:`FlightRecorder.note_op`) as an entry."""
    detail = what if isinstance(what, str) else _truncate(what.describe())
    return FlightEntry(seq, name, detail, errno.name if errno else None, ts)


@dataclass
class FlightEntry:
    """One operation of a frozen ring, rendered."""

    seq: int  # correlation id (op-log sequence number)
    name: str
    detail: str  # brief args, bounded
    errno: str | None
    ts: float

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": "op",  # bundle schema: the only kind there is
            "name": self.name,
            "detail": self.detail,
            "errno": self.errno,
            "ts": self.ts,
        }


@dataclass(frozen=True)
class FrozenFlight:
    """An immutable copy of the ring, taken at detection time."""

    reason: str
    trigger_seq: int | None
    frozen_at: float
    ring: tuple[tuple, ...]  # the ring's tuples as note_op appended them
    stat_deltas: dict
    ops_seen: int  # cumulative ops noted over the recorder's lifetime

    @property
    def entries(self) -> tuple[FlightEntry, ...]:
        """The frozen ring, rendered."""
        return tuple(_render(*entry) for entry in self.ring)

    def as_dict(self) -> dict:
        return {
            "reason": self.reason,
            "trigger_seq": self.trigger_seq,
            "frozen_at": self.frozen_at,
            "entries": [entry.as_dict() for entry in self.entries],
            "stat_deltas": dict(sorted(self.stat_deltas.items())),
            "ops_seen": self.ops_seen,
        }


class FlightRecorder:
    """Fixed-cost ring of recent operations, freezable at detection.

    ``stats_source`` is a callable returning a flat ``{name: number}``
    dict of cheap subsystem tallies; it is sampled at
    :meth:`rebaseline` and :meth:`freeze` time only (never per op), and
    the frozen record carries the deltas between the two samples.
    """

    def __init__(
        self,
        clock: Clock = time.perf_counter,
        size: int = DEFAULT_RING_SIZE,
        enabled: bool = True,
        stats_source: StatsSource | None = None,
    ):
        if size <= 0:
            raise ValueError(f"flight ring size must be positive, got {size}")
        self.clock: Clock = clock
        self.enabled = enabled
        self.size = size
        # (seq, name, FsOp | rendered detail, Errno | None, ts)
        self.entries: deque[tuple] = deque(maxlen=size)
        self.stats_source = stats_source
        self.ops_seen = 0
        self.freezes = 0
        self.last_frozen: FrozenFlight | None = None
        self._baseline: dict = {}

    # -- recording -----------------------------------------------------

    def note_op(self, seq: int, op, errno, ts: float) -> None:
        """Append one completed operation (O(1), nothing rendered).

        ``op`` is the :class:`~repro.api.FsOp`, ``errno`` its outcome's
        :class:`~repro.errors.Errno` or ``None``, ``ts`` a reading of
        this recorder's clock taken after the op finished."""
        if not self.enabled:
            return
        self.ops_seen += 1
        what = op
        for value in op.args.values():
            kind = type(value)
            if kind is not int and not (
                (kind is str or kind is bytes) and len(value) <= DETAIL_LIMIT
            ):
                what = _truncate(op.describe())
                break
        self.entries.append((seq, op.name, what, errno, ts))

    # -- baseline and freeze -------------------------------------------

    def _sample(self) -> dict:
        return dict(self.stats_source()) if self.stats_source is not None else {}

    def rebaseline(self) -> None:
        """Resample the stat baseline (call at mount and after each
        contained reboot swaps in a fresh base)."""
        if not self.enabled:
            return
        self._baseline = self._sample()

    def freeze(self, reason: str, trigger_seq: int | None = None) -> FrozenFlight | None:
        """Snapshot the ring and the stat deltas since the baseline.

        MUST run before the contained reboot: the deltas read the failed
        base's tallies, which the reboot discards.  The live ring keeps
        recording afterwards; the baseline is advanced to the freeze
        sample so nested detections report incremental deltas.
        """
        if not self.enabled:
            return None
        sample = self._sample()
        deltas = {key: value - self._baseline.get(key, 0) for key, value in sample.items()}
        self._baseline = sample
        self.freezes += 1
        frozen = FrozenFlight(
            reason=_truncate(reason),
            trigger_seq=trigger_seq,
            frozen_at=self.clock(),
            ring=tuple(self.entries),
            stat_deltas=deltas,
            ops_seen=self.ops_seen,
        )
        self.last_frozen = frozen
        return frozen

    def __len__(self) -> int:
        return len(self.entries)
