"""The declared persistence spec: durability protocols and write roles.

The paper's availability argument leans on the journaled base recovering
to a consistent state after any contained reboot (§2, §4.1).  That only
holds if every durability-relevant code path follows the ordering
discipline *journal write → commit record → flush barrier → checkpoint*:
a checkpoint (in-place home-location write) that races ahead of the
flushed commit record is exactly the misordering class Chipmunk-style
studies catalog, and SquirrelFS shows the discipline can be enforced
statically as a typestate rather than discovered by crash testing
(PAPERS.md).

raelint's persistence rules (FLUSH-BARRIER and PERSIST-ORDER, see
``docs/STATIC_ANALYSIS.md``) extract this file from its AST, exactly
like ``OP_CONTRACTS``: every table must stay a pure literal.  A
declaration that names a function that does not exist in the tree is a
configuration error (raelint exits 2), not a finding: a protocol that
cannot bind checks nothing, and silently skipping it would let this
spec rot.  Where the crash sweep crashes is not declared here: it
records the writes and flushes each scenario actually issues
(``docs/FAULT_SWEEP.md``).

Persistence-point kinds (the classification vocabulary):

* ``journal-write``  — a write into the journal region (descriptor or
  logged data blocks); redundant by design, crash-safe at any moment.
* ``commit-record``  — the single write that makes a transaction
  durable once it reaches the platter; the atomicity pivot.
* ``barrier``        — a device flush; orders everything before it
  against everything after it.
* ``checkpoint``     — an in-place home-location write (direct or via
  cache writeback); only safe after the commit record is flushed.
* ``data-write``     — an ordered-mode data block write submitted ahead
  of the transaction's metadata.

``DURABILITY_PROTOCOL`` — ``{function: {"phases": ..., "events": ...}}``.
``phases`` is the ordered tuple of kinds the function must step through
on every CFG path; a ``"?"`` suffix marks a phase that may be skipped
(e.g. a commit with no dirty pages submits no data writes).  ``events``
maps non-primitive calls (``"receiver.method"``) to the kind they count
as, so a delegated step (``writer.append`` performing the commit-record
write) participates in the caller's typestate.  PERSIST-ORDER enforces
these automata, including early returns and exceptional edges.

``WRITE_SITE_ROLES`` — per-function positional roles for raw
``write_block`` call sites, in source order.  Without an entry every
``write_block`` in basefs/ondisk/blockdev defaults to ``checkpoint``
(the dangerous kind), so mislabeling fails loud.  An entry whose arity
does not match the function's actual ``write_block`` site count is a
configuration error.
"""

from __future__ import annotations

#: Ordered typestate per durability-protocol function.  ``"?"`` = the
#: phase may be skipped on some paths; ``events`` maps delegated calls
#: into the automaton (see module docstring).
DURABILITY_PROTOCOL = {
    # One journal transaction chunk: descriptor + data blocks into the
    # journal region, flush, then the commit record, then flush again so
    # the record is on the platter before the caller checkpoints.
    "JournalWriter.append": {
        "phases": ("journal-write", "barrier", "commit-record", "barrier"),
        "events": {},
    },
    # The journal manager: delegate the journal+commit writes to the
    # writer (which seals them), then checkpoint home locations, then
    # one barrier so recovery never sees a half-written home block.
    "JournalManager.commit": {
        "phases": ("commit-record", "checkpoint", "barrier"),
        "events": {"writer.append": "commit-record"},
    },
    # The filesystem commit: ordered-mode data writes (skipped when no
    # pages are dirty) are flushed before the journal transaction
    # commits — data-before-metadata, ext3 ordered mode.
    "BaseFilesystem.commit": {
        "phases": ("data-write?", "barrier", "commit-record"),
        "events": {"journal.commit": "commit-record"},
    },
}

#: Source-ordered roles for raw ``write_block`` sites in functions whose
#: writes are not checkpoints.  Anything undeclared defaults to
#: ``checkpoint`` — the kind FLUSH-BARRIER treats as dangerous.
WRITE_SITE_ROLES = {
    # Descriptor block, logged data blocks, commit record — in order.
    "JournalWriter.append": ("journal-write", "journal-write", "commit-record"),
    # Rewrites the journal superblock to empty the log.
    "reset_journal": ("journal-write",),
    # The multi-queue dispatch loop submits ordered-mode data blocks.
    "BlockMQ._dispatch": ("data-write",),
}

#: The closed vocabulary of persistence-point kinds.
PERSIST_KINDS = (
    "journal-write",
    "commit-record",
    "barrier",
    "checkpoint",
    "data-write",
)


def protocol_for(name: str) -> tuple[str, ...] | None:
    """Declared phase tuple for *name*, or None (runtime convenience)."""
    entry = DURABILITY_PROTOCOL.get(name)
    if entry is None:
        return None
    return tuple(entry["phases"])

