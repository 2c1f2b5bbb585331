"""Forensic bundles: one inspectable JSON artifact per recovery.

On every recovery — successful or failed — the supervisor assembles a
**bundle**: the frozen pre-detection flight ring, the triggering
operation's correlation id and fault record, per-phase timings, the
constrained-mode cross-check divergence table, and the correlated
events emitted during the episode.  Together with ``rae-report bundle``
(pretty-printer) and ``rae-report timeline`` (span+event merge) this
turns every injected-fault scenario into a replayable, explainable
record rather than a counter increment.

Two placement rules keep the shadow pure:

* the **cross-check capture** rows are produced at the
  :class:`~repro.shadowfs.replay.ReplayEngine` call boundary — the
  recovery layer subclasses the engine and feeds a
  :class:`CrossCheckCapture` sink; the engine itself gains only a
  comparison seam and never imports this module;
* the **flight ring** is frozen by the supervisor *before* the
  contained reboot discards the failed base's state.

Bundle JSON schema (``schema`` = :data:`BUNDLE_SCHEMA`) is documented
in docs/OBSERVABILITY.md.  This module is pure stdlib on purpose: a
bundle must be loadable anywhere, including from a checkout that can't
import the filesystem stack.
"""

from __future__ import annotations

import json
from typing import Any

from repro.util import atomic_write_json

#: Version stamp for the bundle JSON layout.
BUNDLE_SCHEMA = 1

#: Keys every bundle must carry to be considered well-formed.
_REQUIRED_KEYS = ("schema", "outcome", "trigger", "phases", "crosschecks")

#: Cap on captured cross-check rows (the replay window is bounded by the
#: commit cadence, but a pathological window must not be).
DEFAULT_CROSSCHECK_LIMIT = 256

_VALUE_LIMIT = 80


def _brief_value(value: Any) -> str | None:
    """Bounded, JSON-safe rendering of an operation's return value."""
    if value is None:
        return None
    if isinstance(value, (bytes, bytearray)):
        return f"<{len(value)} bytes>"
    text = repr(value)
    if len(text) > _VALUE_LIMIT:
        text = text[: _VALUE_LIMIT - 3] + "..."
    return text


class CrossCheckCapture:
    """Per-op divergence table for constrained-mode replay.

    ``note`` receives every (record, replayed) pair the engine
    cross-checks — duck-typed: ``record`` has ``seq``/``op``/``outcome``
    and the outcomes are :class:`~repro.api.OpResult`-shaped — and keeps
    a bounded list of them with their verdict.  :attr:`rows` renders the
    table of expected vs. observed return value / inode / errno, flagged
    ``match``/divergent, when it is read: a bundle is read after the
    recovery stall, if ever.
    """

    def __init__(self, limit: int = DEFAULT_CROSSCHECK_LIMIT):
        if limit <= 0:
            raise ValueError(f"crosscheck capture limit must be positive, got {limit}")
        self.limit = limit
        self._noted: list[tuple] = []  # (record, replayed, match)
        self.captured = 0

    def note(self, record, replayed) -> None:
        self.captured += 1
        if len(self._noted) >= self.limit:
            return
        self._noted.append((record, replayed, record.outcome.same_outcome_as(replayed)))

    @property
    def rows(self) -> list[dict]:
        return [
            {
                "corr_id": record.seq,
                "op": record.op.describe(),
                "expected": self._side(record.outcome),
                "observed": self._side(replayed),
                "match": match,
            }
            for record, replayed, match in self._noted
        ]

    @staticmethod
    def _side(outcome) -> dict:
        return {
            "value": _brief_value(outcome.value),
            "ino": outcome.ino,
            "errno": outcome.errno.name if outcome.errno is not None else None,
        }

    @property
    def dropped(self) -> int:
        return max(0, self.captured - len(self._noted))

    def as_dict(self) -> dict:
        return {
            "rows": self.rows,
            "captured": self.captured,
            "dropped": self.dropped,
            "divergent": sum(1 for _record, _replayed, match in self._noted if not match),
        }


# ---------------------------------------------------------------------------
# Bundle assembly and storage


def build_bundle(
    *,
    outcome: str,
    trigger: dict,
    window: dict | None,
    flight,
    phases: dict,
    replay: dict | None,
    crosschecks,
    events: list[dict],
    nesting: int = 0,
    failure: dict | None = None,
) -> dict:
    """Assemble one recovery's forensic bundle (a plain JSON-able dict).

    ``outcome`` covers the §3.2 procedure (reboot → replay → handoff);
    a later post-commit failure surfaces as its own detection and, if it
    recovers, its own bundle.

    ``flight`` (a frozen ring or ``None``) and ``crosschecks`` may be
    passed unrendered — anything with ``as_dict()`` — in which case the
    bundle is JSON-able once :class:`BundleStore` has rendered it, the
    first time it is read; or as the dicts ``as_dict()`` returns.
    """
    if outcome not in ("success", "failure"):
        raise ValueError(f"bundle outcome must be success|failure, got {outcome!r}")
    bundle = {
        "schema": BUNDLE_SCHEMA,
        "outcome": outcome,
        "trigger": trigger,
        "window": window,
        "flight": flight,
        "phases": phases,
        "replay": replay,
        "crosschecks": crosschecks,
        "events": events,
        "nesting": nesting,
    }
    if failure is not None:
        bundle["failure"] = failure
    return bundle


def _rendered(bundle: dict) -> dict:
    """Render, in place and once, the sections :func:`build_bundle` was
    handed unrendered; the keys keep their places."""
    for key in ("flight", "crosschecks"):
        value = bundle[key]
        if value is not None and not isinstance(value, dict):
            bundle[key] = value.as_dict()
    return bundle


class BundleStore:
    """Bounded supervisor-lifetime store of forensic bundles.

    A bundle renders its flight ring and cross-check table the first
    time it is read through :attr:`bundles` or :attr:`last`, so a
    recovery pays for nothing nobody has read yet."""

    def __init__(self, limit: int = 16):
        if limit <= 0:
            raise ValueError(f"bundle store limit must be positive, got {limit}")
        self.limit = limit
        self._bundles: list[dict] = []
        self.built = 0

    def add(self, bundle: dict) -> None:
        self.built += 1
        self._bundles.append(bundle)
        if len(self._bundles) > self.limit:
            del self._bundles[0]

    def __len__(self) -> int:
        return len(self._bundles)

    @property
    def bundles(self) -> list[dict]:
        return [_rendered(bundle) for bundle in self._bundles]

    @property
    def last(self) -> dict | None:
        return _rendered(self._bundles[-1]) if self._bundles else None

    @property
    def dropped(self) -> int:
        return max(0, self.built - len(self._bundles))


def write_bundle(path: str, bundle: dict) -> str:
    """Write one bundle as JSON, atomically (temp file + rename)."""
    return atomic_write_json(path, bundle)


def load_bundle(path: str) -> dict:
    """Load and validate a bundle file.

    Raises ``OSError`` when the file is unreadable and ``ValueError``
    when it is not a well-formed bundle (corrupt JSON, wrong shape, or
    unknown schema) — the CLI maps both to exit code 2.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: bundle must be a JSON object, got {type(payload).__name__}")
    missing = [key for key in _REQUIRED_KEYS if key not in payload]
    if missing:
        raise ValueError(f"{path}: not a forensic bundle (missing {', '.join(missing)})")
    if payload["schema"] != BUNDLE_SCHEMA:
        raise ValueError(f"{path}: unsupported bundle schema {payload['schema']!r} (expected {BUNDLE_SCHEMA})")
    return payload


# ---------------------------------------------------------------------------
# Rendering


def _ms(seconds: Any) -> str:
    return f"{float(seconds) * 1000:.3f} ms" if seconds is not None else "?"


def render_bundle(bundle: dict) -> str:
    """Human-readable rendering of a bundle for ``rae-report bundle``."""
    trigger = bundle.get("trigger") or {}
    lines = [
        f"forensic bundle: {bundle['outcome']} recovery "
        f"(schema {bundle['schema']}, nesting {bundle.get('nesting', 0)})",
        "  trigger   : "
        f"kind={trigger.get('kind')} op={trigger.get('op')} "
        f"corr_id={trigger.get('corr_id')} — "
        f"{trigger.get('exception')}: {trigger.get('message')}",
    ]
    window = bundle.get("window")
    if window:
        bounds = ""
        if window.get("first_seq") is not None:
            bounds = f" (#{window['first_seq']}..#{window['last_seq']})"
        lines.append(
            f"  window    : {window.get('entries', 0)} recorded ops{bounds}, "
            f"~{window.get('bytes', 0)} B"
        )
    phases = bundle.get("phases") or {}
    lines.append(
        "  phases    : "
        + " | ".join(f"{name} {_ms(phases[name])}" for name in ("reboot", "replay", "handoff", "total") if name in phases)
    )
    replay = bundle.get("replay")
    if replay:
        lines.append(
            f"  replay    : {replay.get('constrained_ops', 0)} constrained + "
            f"{replay.get('autonomous_ops', 0)} autonomous, "
            f"{replay.get('skipped_errors', 0)} errno-skips, "
            f"{len(replay.get('discrepancies', []))} discrepancies "
            f"({replay.get('mode', '?')} shadow)"
        )
    failure = bundle.get("failure")
    if failure:
        lines.append(f"  failure   : phase={failure.get('phase')} — {failure.get('message')}")
    flight = bundle.get("flight")
    if flight:
        entries = flight.get("entries", [])
        lines.append(
            f"  flight ring (frozen at detection, {len(entries)} entries, "
            f"{flight.get('ops_seen', 0)} ops seen):"
        )
        for entry in entries:
            seq = entry.get("seq")
            where = f"#{seq}" if seq is not None else "-"
            status = f" -> {entry['errno']}" if entry.get("errno") else ""
            lines.append(f"    {where:>6s} {entry.get('kind', '?'):4s} {entry.get('detail', '')}{status}")
        deltas = flight.get("stat_deltas") or {}
        changed = {name: delta for name, delta in deltas.items() if delta}
        if changed:
            lines.append(
                "    stat deltas since baseline: "
                + ", ".join(f"{name}=+{delta}" for name, delta in sorted(changed.items()))
            )
    crosschecks = bundle.get("crosschecks") or {}
    rows = crosschecks.get("rows", [])
    lines.append(
        f"  cross-checks ({crosschecks.get('captured', 0)} captured, "
        f"{crosschecks.get('divergent', 0)} divergent, {crosschecks.get('dropped', 0)} dropped):"
    )
    for row in rows:
        verdict = "MATCH" if row.get("match") else "DIVERGED"
        lines.append(
            f"    #{row.get('corr_id')} {row.get('op')}  "
            f"expected {_render_side(row.get('expected'))} | "
            f"observed {_render_side(row.get('observed'))}  [{verdict}]"
        )
    bundle_events = bundle.get("events") or []
    if bundle_events:
        lines.append(f"  events ({len(bundle_events)}):")
        base_ts = bundle_events[0].get("ts", 0.0)
        for event in bundle_events:
            lines.append(f"    {_event_line(event, base_ts)}")
    return "\n".join(lines)


def _render_side(side: dict | None) -> str:
    side = side or {}
    if side.get("errno"):
        return side["errno"]
    text = side.get("value") if side.get("value") is not None else "ok"
    if side.get("ino") is not None:
        text = f"{text} (ino {side['ino']})"
    return str(text)


def _event_line(event: dict, base_ts: float) -> str:
    ts = event.get("ts")
    offset = f"+{ts - base_ts:.6f}s" if ts is not None else "?"
    corr = f" corr_id=#{event['corr_id']}" if event.get("corr_id") is not None else ""
    detail = "".join(
        f" {key}={value}"
        for key, value in (event.get("fields") or {}).items()
        if value is not None
    )
    return f"[{offset}] {event.get('kind', '?')}{corr}{detail}"


# ---------------------------------------------------------------------------
# Timeline merge: spans + events → one causally-ordered sequence


def merge_timeline(spans: list[dict], events: list[dict]) -> list[dict]:
    """Interleave span dicts (``Registry.snapshot()["spans"]``) and event
    dicts (``...["events"]``) into one list ordered by timestamp.

    Both streams are stamped by the same registry clock, so plain
    timestamp order *is* causal order; spans sort at their start time.
    """
    merged: list[dict] = []
    for span in spans:
        merged.append(
            {
                "ts": span.get("start"),
                "kind": "span",
                "name": span.get("name"),
                "duration": span.get("duration"),
                "depth": span.get("depth", 0),
                "attrs": span.get("attrs", {}),
            }
        )
    for event in events:
        merged.append(
            {
                "ts": event.get("ts"),
                "kind": "event",
                "name": event.get("kind"),
                "corr_id": event.get("corr_id"),
                "fields": event.get("fields", {}),
            }
        )
    merged.sort(key=lambda entry: (entry["ts"] is None, entry["ts"]))
    return merged


def _span_duration_footer(entries: list[dict]) -> str | None:
    """Percentile summary line over the closed spans of a timeline —
    the same p50/p95/p99 vocabulary as the histogram report lines."""
    durations = sorted(
        entry["duration"]
        for entry in entries
        if entry.get("kind") == "span" and entry.get("duration") is not None
    )
    if not durations:
        return None

    def pct(q: float) -> float:
        index = min(len(durations) - 1, max(0, round(q * len(durations)) - 1))
        return durations[index]

    return (
        f"spans: {len(durations)} closed, "
        f"p50={_ms(pct(0.50))} p95={_ms(pct(0.95))} p99={_ms(pct(0.99))}"
    )


def render_timeline(entries: list[dict]) -> str:
    """Render a merged timeline for ``rae-report timeline``."""
    if not entries:
        return "(no spans or events recorded)"
    base_ts = next((e["ts"] for e in entries if e["ts"] is not None), 0.0)
    lines = []
    for entry in entries:
        ts = entry.get("ts")
        offset = f"+{ts - base_ts:.6f}s" if ts is not None else "?"
        if entry["kind"] == "span":
            indent = "  " * int(entry.get("depth") or 0)
            duration = entry.get("duration")
            timing = _ms(duration) if duration is not None else "(open)"
            detail = "".join(
                f" {key}={value}"
                for key, value in (entry.get("attrs") or {}).items()
                if value is not None
            )
            lines.append(f"[{offset}] {indent}span  {entry.get('name')} ({timing}){detail}")
        else:
            corr = f" corr_id=#{entry['corr_id']}" if entry.get("corr_id") is not None else ""
            detail = "".join(
                f" {key}={value}"
                for key, value in (entry.get("fields") or {}).items()
                if value is not None
            )
            lines.append(f"[{offset}] event {entry.get('name')}{corr}{detail}")
    footer = _span_duration_footer(entries)
    if footer is not None:
        lines.append(footer)
    return "\n".join(lines)
