"""Persistence-effect analysis: the static half of crash consistency.

Builds an interprocedural model of every call site in ``basefs/``,
``ondisk/`` and ``blockdev/`` that transitively reaches ``write_block``
/ ``flush`` / journal ``commit``, classified by durability role
(journal write, commit record, barrier, checkpoint, data write) with
witness chains — on top of the flow layer's CFGs, dataflow solver and
call graph.  The FLUSH-BARRIER and PERSIST-ORDER rules are built on
this model; see ``docs/STATIC_ANALYSIS.md``.  Where the crash sweep
crashes is not decided here: it records the writes and flushes each
scenario actually issues (``docs/FAULT_SWEEP.md``).
"""

from repro.analysis.persistence.declared import (
    PersistenceConfigError,
    PersistenceDecls,
    declared_persistence,
)
from repro.analysis.persistence.model import PersistenceModel, PersistPoint, model_for

__all__ = [
    "PersistenceConfigError",
    "PersistenceDecls",
    "declared_persistence",
    "PersistenceModel",
    "PersistPoint",
    "model_for",
]
