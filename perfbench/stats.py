"""Order statistics that refuse to say more than the sample supports."""

from __future__ import annotations

import math

# A percentile is reported only with at least this many samples beyond
# it, so p50 needs 20 samples, p90 100 and p99 1000.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(samples, q: float) -> float:
    """The ``q`` quantile (0 < q < 1) of ``samples``, nearest rank.

    Raises :class:`TooFewSamples` when fewer than :data:`MIN_BEYOND`
    samples lie beyond the returned rank.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples leaves {n - rank} beyond it; need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def percentile_or_none(samples, q: float) -> float | None:
    """:func:`percentile`, or ``None`` where it would refuse."""
    try:
        return percentile(samples, q)
    except TooFewSamples:
        return None
