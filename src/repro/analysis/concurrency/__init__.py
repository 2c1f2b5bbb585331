"""Concurrency-safety analysis for raelint — the fourth analysis layer.

The supervisor side is single-threaded today; the shadow stays
sequential and import-clean by construction (SHADOW-PURITY), which is
the paper's trust argument.  This layer keeps supervisor state under a
race detector from now on, so the first thread, executor pool, or event
loop that reaches it meets declared guards instead of a retrofit — the
same "verified at lint time" treatment purity, lock discipline, and
contracts get.

Three pieces, layered on the CFG/dataflow/call-graph machinery:

* :mod:`repro.analysis.concurrency.declared` — extraction of the
  declared concurrency spec from ``spec/concurrency.py``: the
  ``SHARED_CLASSES`` registry (classes whose instances are reachable
  from more than one thread or task) and the ``GUARDED_BY`` map (which
  lock must protect each shared attribute).  Both are pure literals,
  like ``OP_CONTRACTS``.  A declaration that names a nonexistent class
  or attribute is a *configuration error* (exit 2), not a finding — a
  guard that cannot bind protects nothing.
* :mod:`repro.analysis.concurrency.model` — the shared-state model: it
  seeds shared classes from ``threading.Thread`` targets, executor
  ``submit`` calls, asyncio task creation, and the declared registry,
  then collects every attribute access site on a shared class together
  with the Eraser-style may-held lockset at that site.
* the two consuming rules in :mod:`repro.analysis.rules` —
  RACE-LOCKSET and ATOMIC-RMW.
"""

from __future__ import annotations

from repro.analysis.concurrency.declared import (
    GUARD_SINGLE_THREADED,
    ConcurrencyConfigError,
    ConcurrencyDecls,
    declared_concurrency,
)
from repro.analysis.concurrency.model import (
    AccessSite,
    SharedStateModel,
    model_for,
    norm_token,
)

__all__ = [
    "AccessSite",
    "ConcurrencyConfigError",
    "ConcurrencyDecls",
    "GUARD_SINGLE_THREADED",
    "SharedStateModel",
    "declared_concurrency",
    "model_for",
    "norm_token",
]
