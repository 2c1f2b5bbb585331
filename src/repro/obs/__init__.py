"""Observability for the RAE stack: metrics, spans, events, forensics.

The supervisor owns a :class:`Registry`; everything else is pulled from
existing per-subsystem stats at snapshot time.  Nothing in the replay
closure (``repro.shadowfs``, ``repro.spec``) may import this package —
the shadow stays instrumentation-free (REPLAY-DETERMINISM, §3.2) — and
SHADOW-PURITY plus a dedicated test enforce that.

The recovery flight recorder lives here too: :class:`EventLog`
(correlated structured events), :class:`FlightRecorder` (always-on
pre-detection ring, frozen at detection time), and the forensic-bundle
machinery (:mod:`repro.obs.forensics`) that turns every recovery into
an inspectable JSON artifact.
"""

from repro.obs.events import Event, EventLog
from repro.obs.export import write_snapshot
from repro.obs.flight import FlightRecorder, FrozenFlight
from repro.obs.forensics import (
    BundleStore,
    CrossCheckCapture,
    build_bundle,
    load_bundle,
    merge_timeline,
    render_bundle,
    render_timeline,
    write_bundle,
)
from repro.obs.metrics import Counter, Gauge, Histogram, Registry
from repro.obs.trace import SpanEvent, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "SpanEvent",
    "Tracer",
    "Event",
    "EventLog",
    "FlightRecorder",
    "FrozenFlight",
    "BundleStore",
    "CrossCheckCapture",
    "build_bundle",
    "load_bundle",
    "write_bundle",
    "render_bundle",
    "merge_timeline",
    "render_timeline",
    "write_snapshot",
]
