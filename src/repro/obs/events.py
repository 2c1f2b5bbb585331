"""Structured, correlated event log.

Spans (``repro.obs.trace``) answer *how long*; the event log answers
*what happened, in what order, about which operation*.  Every event
carries an optional **correlation id** — the supervisor's op-log
sequence number — so a detector classification, the recovery phases,
and the metadata hand-off can all be tied back to the operation that
caused them.  ``rae-report timeline`` merges events with spans into one
causally-ordered recovery narrative (both share the registry's injected
clock, so their timestamps are directly comparable).

Like the tracer, the log is a bounded ring: a supervisor lives for
millions of operations and must not grow without bound.  Cumulative
per-kind counts survive eviction; ``dropped`` says how many events fell
off the ring.

This module must stay out of the replay closure (SHADOW-PURITY forbids
``repro.obs`` under ``shadowfs/``/``spec/``): events are emitted by the
supervisor and the recovery coordinator *around* the shadow, never from
inside it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable

Clock = Callable[[], float]

#: Default bound on the event ring (cumulative counts are never dropped).
DEFAULT_EVENT_LIMIT = 1024


@dataclass
class Event:
    """One structured event: what (kind), when (ts), about which op
    (corr_id = op-log sequence number), plus free-form fields."""

    seq: int
    ts: float
    kind: str
    corr_id: int | None = None
    fields: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "corr_id": self.corr_id,
            "fields": dict(self.fields),
        }

    def describe(self) -> str:
        where = f" corr_id=#{self.corr_id}" if self.corr_id is not None else ""
        detail = "".join(
            f" {key}={value}" for key, value in self.fields.items() if value is not None
        )
        return f"{self.kind}{where}{detail}"


class EventLog:
    """Bounded ring of :class:`Event` records with cumulative counts."""

    def __init__(self, clock: Clock = time.perf_counter, enabled: bool = True, limit: int = DEFAULT_EVENT_LIMIT):
        if limit <= 0:
            raise ValueError(f"event limit must be positive, got {limit}")
        self.clock: Clock = clock
        self.enabled = enabled
        self.limit = limit
        self.events: deque[Event] = deque(maxlen=limit)
        self.emitted = 0
        self.counts: dict[str, int] = {}

    def emit(self, kind: str, corr_id: int | None = None, **fields) -> Event | None:
        """Record one event; returns it (or ``None`` when disabled)."""
        if not self.enabled:
            return None
        self.emitted += 1
        self.counts[kind] = self.counts.get(kind, 0) + 1
        event = Event(seq=self.emitted, ts=self.clock(), kind=kind, corr_id=corr_id, fields=fields)
        self.events.append(event)
        return event

    @property
    def dropped(self) -> int:
        """Events evicted from the ring (emitted but no longer kept)."""
        return max(0, self.emitted - len(self.events))

    def since(self, seq: int) -> list[Event]:
        """Events emitted after event number ``seq`` that are still in
        the ring — the forensic-bundle builder's slicing primitive."""
        # Sequence numbers are consecutive, so the answer is the ring's
        # last ``emitted - seq`` events: taken by count, not by scanning.
        tail = list(islice(reversed(self.events), max(0, self.emitted - seq)))
        tail.reverse()
        return tail

    def snapshot(self) -> list[dict]:
        return [event.as_dict() for event in self.events]

    def __len__(self) -> int:
        return len(self.events)
