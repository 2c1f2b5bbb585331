"""Layer-attribution profiling for the supervisor's op hot path.

:class:`LayerProfiler` decomposes every operation's wall time into
*self-time* per layer of the stack — ``api`` (supervisor dispatch) →
``vfs`` (path/dentry/fd logic in :class:`BaseFilesystem`) →
``pagecache`` (page + buffer caches) → ``journal`` → ``writeback`` →
``blkmq`` → ``device`` — by wrapping the live methods of the supervisor
side only.  Nothing under ``repro.shadowfs`` or ``repro.spec`` is
touched (SHADOW-PURITY): the shadow and the spec model stay
instrumentation-free, and the wrapping is runtime ``setattr`` on
instances the supervisor already owns, so no base-layer module gains an
``repro.obs`` import.

This is the product's live attribution: the totals land in every
registry snapshot as ``prof.*`` plus the ``layer.self.*`` histograms,
and ``rae-report report`` prints them as the per-layer table.  It is
not the benchmark's instrument — ``perfbench/`` runs with
``RAEConfig(profile=False)`` and uses its own class-level tracer.
"""

from repro.obs.prof.profiler import LAYERS, LayerProfiler

__all__ = ["LAYERS", "LayerProfiler"]
