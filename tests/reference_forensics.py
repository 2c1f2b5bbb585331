"""Eager forensic rendering, the reference the render-on-read bundle is
held to.

``FlightRecorder.freeze`` used to render every ring entry as the
recovery began, and ``CrossCheckCapture.note`` rendered one table row per
cross-checked operation while replay ran; the supervisor then rendered
both into the bundle before the stall ended.  Both now keep their raw
material and the bundle store renders it the first time a bundle is
read.  These are copies of the old bodies, sharing nothing with
``src/repro/obs/`` but the ring's tuple layout, so an edit to the lazy
path cannot move its reference with it.
"""

from __future__ import annotations

from dataclasses import dataclass

DETAIL_LIMIT = 96
VALUE_LIMIT = 80


def _truncate(detail: str) -> str:
    if len(detail) <= DETAIL_LIMIT:
        return detail
    return detail[: DETAIL_LIMIT - 3] + "..."


def _entry(seq: int, name: str, what, errno, ts: float) -> dict:
    detail = what if isinstance(what, str) else _truncate(what.describe())
    return {
        "seq": seq,
        "kind": "op",
        "name": name,
        "detail": detail,
        "errno": errno.name if errno else None,
        "ts": ts,
    }


@dataclass(frozen=True)
class ReferenceFrozenFlight:
    reason: str
    trigger_seq: int | None
    frozen_at: float
    entries: tuple[dict, ...]
    stat_deltas: dict
    ops_seen: int

    def as_dict(self) -> dict:
        return {
            "reason": self.reason,
            "trigger_seq": self.trigger_seq,
            "frozen_at": self.frozen_at,
            "entries": [dict(entry) for entry in self.entries],
            "stat_deltas": dict(sorted(self.stat_deltas.items())),
            "ops_seen": self.ops_seen,
        }


def reference_freeze(recorder, reason: str, trigger_seq: int | None = None) -> ReferenceFrozenFlight | None:
    """``FlightRecorder.freeze`` as it stood before the frozen ring kept
    its raw tuples: every entry rendered at freeze time."""
    if not recorder.enabled:
        return None
    sample = dict(recorder.stats_source()) if recorder.stats_source is not None else {}
    deltas = {key: value - recorder._baseline.get(key, 0) for key, value in sample.items()}
    recorder._baseline = sample
    recorder.freezes += 1
    frozen = ReferenceFrozenFlight(
        reason=_truncate(reason),
        trigger_seq=trigger_seq,
        frozen_at=recorder.clock(),
        entries=tuple(_entry(*entry) for entry in recorder.entries),
        stat_deltas=deltas,
        ops_seen=recorder.ops_seen,
    )
    recorder.last_frozen = frozen
    return frozen


def _brief_value(value) -> str | None:
    if value is None:
        return None
    if isinstance(value, (bytes, bytearray)):
        return f"<{len(value)} bytes>"
    text = repr(value)
    if len(text) > VALUE_LIMIT:
        text = text[: VALUE_LIMIT - 3] + "..."
    return text


def _side(outcome) -> dict:
    return {
        "value": _brief_value(outcome.value),
        "ino": outcome.ino,
        "errno": outcome.errno.name if outcome.errno is not None else None,
    }


class ReferenceCrossCheckCapture:
    """``CrossCheckCapture`` as it stood before ``note`` kept the raw
    pair: one row dict rendered per cross-checked operation."""

    def __init__(self, limit: int = 256):
        self.limit = limit
        self.rows: list[dict] = []
        self.captured = 0

    def note(self, record, replayed) -> None:
        self.captured += 1
        if len(self.rows) >= self.limit:
            return
        expected = record.outcome
        self.rows.append(
            {
                "corr_id": record.seq,
                "op": record.op.describe(),
                "expected": _side(expected),
                "observed": _side(replayed),
                "match": expected.same_outcome_as(replayed),
            }
        )

    def as_dict(self) -> dict:
        return {
            "rows": list(self.rows),
            "captured": self.captured,
            "dropped": max(0, self.captured - len(self.rows)),
            "divergent": len([row for row in self.rows if not row["match"]]),
        }
