"""Zero-dependency metrics: counters, gauges, log-scale histograms.

The observability layer lives entirely *outside* the replay closure:
nothing under ``repro.shadowfs`` or ``repro.spec`` may import it (the
SHADOW-PURITY lint rule and ``tests/test_obs.py`` both enforce this),
because the shadow must stay deterministic and instrumentation-free —
REPLAY-DETERMINISM bans ``time.*`` anywhere replay can reach.

Design points:

* **Injected monotonic clock.**  The :class:`Registry` takes a ``clock``
  callable (default :func:`time.perf_counter`) and hands it to every
  latency measurement and span.  Tests inject a fake clock and get
  bit-exact timings.
* **Disabled means free.**  A disabled registry hands out shared
  null instruments whose methods are no-ops; the supervisor additionally
  guards its hot-path instrumentation on a single cached boolean, so
  ``RAEConfig(metrics=False)`` costs one attribute test per operation.
* **Pull, don't push.**  Subsystems that must stay import-clean (the
  base filesystem, caches, block devices) are never instrumented
  in-place; the supervisor registers *collector* callbacks that read
  their existing stats dataclasses at snapshot time.
* **Fixed log-scale buckets.**  :class:`Histogram` precomputes its
  bucket boundaries (``lo * factor**i``) once and places observations
  with :func:`bisect.bisect_left`, so recording is O(log #buckets) with
  no allocation.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable

Clock = Callable[[], float]


class Counter:
    """A monotonically increasing count (events, errnos, cache hits)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value that can go up or down (queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed log-scale buckets with ``le`` (less-or-equal) semantics.

    Boundaries are ``lo * factor**i`` for ``i in range(buckets)``; an
    observation lands in the first bucket whose boundary is >= the
    value, or in the ``+inf`` overflow bucket past the last boundary.
    The defaults (1 µs × 2ⁿ, 24 buckets) span 1 µs to ~8.4 s — the full
    range of per-op latencies and recovery phases seen in this repo.
    """

    __slots__ = ("name", "boundaries", "bucket_counts", "overflow", "count", "sum", "min", "max")

    def __init__(self, name: str, lo: float = 1e-6, factor: float = 2.0, buckets: int = 24):
        if lo <= 0 or factor <= 1 or buckets < 1:
            raise ValueError(f"bad histogram shape: lo={lo} factor={factor} buckets={buckets}")
        self.name = name
        self.boundaries = [lo * factor**i for i in range(buckets)]
        self.bucket_counts = [0] * buckets
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = bisect_left(self.boundaries, value)
        if index >= len(self.boundaries):
            self.overflow += 1
        else:
            self.bucket_counts[index] += 1

    def percentile(self, q: float) -> float | None:
        """Estimated q-quantile (``0 < q <= 1``) from the bucket counts.

        No raw samples are kept, so this interpolates linearly inside
        the bucket holding the target rank and clamps to the observed
        ``min``/``max`` — exact at the extremes, within one log-scale
        bucket everywhere else.  ``None`` when nothing was observed.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        estimate = None
        for boundary, bucket_count in zip(self.boundaries, self.bucket_counts):
            if bucket_count:
                previous = cumulative
                cumulative += bucket_count
                if cumulative >= rank:
                    fraction = (rank - previous) / bucket_count
                    estimate = lower + (boundary - lower) * fraction
                    break
            lower = boundary
        if estimate is None:
            # Rank lands in the +inf overflow bucket: max is the best bound.
            estimate = self.max
        if self.min is not None:
            estimate = max(estimate, self.min)
        if self.max is not None:
            estimate = min(estimate, self.max)
        return estimate

    def snapshot(self) -> dict:
        buckets = [
            [f"{boundary:.9g}", count]
            for boundary, count in zip(self.boundaries, self.bucket_counts)
        ]
        buckets.append(["+inf", self.overflow])
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "buckets": buckets,
        }


class _NullCounter(Counter):
    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null", lo=1.0, factor=2.0, buckets=1)

Collector = Callable[[], dict]


@dataclass
class _CollectorEntry:
    prefix: str
    fn: Collector = field(repr=False)


class Registry:
    """Get-or-create instrument store plus pull-based collectors.

    ``snapshot()`` merges three sources: push instruments (counters,
    gauges, histograms the supervisor updates inline), collector
    callbacks (subsystem stats read on demand), and the tracer's span
    events.  ``to_json()`` is the export format documented in
    docs/OBSERVABILITY.md.
    """

    def __init__(self, enabled: bool = True, clock: Clock = time.perf_counter):
        from repro.obs.events import EventLog
        from repro.obs.trace import Tracer

        self.enabled = enabled
        self.clock: Clock = clock
        self.tracer = Tracer(clock=clock, enabled=enabled)
        # Correlated structured events share the tracer's clock so
        # `rae-report timeline` can merge both streams causally.
        self.events = EventLog(clock=clock, enabled=enabled)
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: list[_CollectorEntry] = []

    # -- instruments ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, lo: float = 1e-6, factor: float = 2.0, buckets: int = 24) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, lo=lo, factor=factor, buckets=buckets)
        return instrument

    # -- collectors ----------------------------------------------------

    def register_collector(self, prefix: str, fn: Collector) -> None:
        """Register a pull callback; its dict is namespaced under
        ``prefix.`` in every snapshot.  Re-registering a prefix replaces
        the previous callback (the supervisor re-registers on reboot)."""
        self._collectors = [e for e in self._collectors if e.prefix != prefix]
        self._collectors.append(_CollectorEntry(prefix=prefix, fn=fn))

    def collect(self) -> dict:
        merged: dict = {}
        for entry in self._collectors:
            for key, value in entry.fn().items():
                merged[f"{entry.prefix}.{key}"] = value
        return merged

    # -- export --------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "enabled": self.enabled,
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.snapshot() for name, h in sorted(self._histograms.items())},
            "collected": dict(sorted(self.collect().items())),
            "spans": [event.as_dict() for event in self.tracer.events],
            "events": self.events.snapshot(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)
