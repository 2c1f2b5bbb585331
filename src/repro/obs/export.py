"""JSON export of a registry snapshot.

``python -m repro.tools report --json PATH`` dumps one registry
snapshot (see :meth:`repro.obs.metrics.Registry.snapshot` for the
schema); ``rae-report timeline`` reads it back.
"""

from __future__ import annotations

from repro.obs.metrics import Registry
from repro.util import atomic_write_json


def write_snapshot(path: str, registry: Registry, meta: dict | None = None) -> str:
    """Write one registry snapshot (plus optional metadata) as JSON.

    Crash-safe like every committed artifact: serialized first, then
    written to a sibling temp file and :func:`os.replace`d into place —
    a crash (or an unserializable ``meta``) can never truncate or
    clobber an existing snapshot."""
    payload = {"meta": meta or {}, "snapshot": registry.snapshot()}
    atomic_write_json(path, payload)
    return path
