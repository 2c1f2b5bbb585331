"""The declared persistence spec: durability protocols and crash points.

The paper's availability argument leans on the journaled base recovering
to a consistent state after any contained reboot (§2, §4.1).  That only
holds if every durability-relevant code path follows the ordering
discipline *journal write → commit record → flush barrier → checkpoint*:
a checkpoint (in-place home-location write) that races ahead of the
flushed commit record is exactly the misordering class Chipmunk-style
studies catalog, and SquirrelFS shows the discipline can be enforced
statically as a typestate rather than discovered by crash testing
(PAPERS.md).

raelint's persistence rules (FLUSH-BARRIER, PERSIST-ORDER and
CRASH-HOOK-COVERAGE, see ``docs/STATIC_ANALYSIS.md``) extract this file
from its AST, exactly like ``OP_CONTRACTS``: every table must stay a
pure literal.  A declaration that names a function
that does not exist in the tree — or a stale sanction for a point that
is now hook-covered — is a configuration error (raelint exits 2), not a
finding: a protocol that cannot bind checks nothing, and silently
skipping it would let this spec rot.

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

``CRASH_ENTRY_POINTS`` — ``{op name: entry function}``: the roots the
crash-surface catalog (``raelint --emit-crash-surface``) walks to
enumerate *op → ordered persistence points*.  This is the direct input
work-list for ROADMAP item 3's fault-sweep engine: each (op, point)
pair is one crash the sweep must schedule.

``PERSIST_SANCTIONS`` — ``{function: argued justification}`` for
persistence points that are *not* reachable from any
``VALID_HOOK_NAMES`` fault-injection hook.  CRASH-HOOK-COVERAGE
requires every point to be hook-reachable (so the sweep engine can
actually crash there) or sanctioned here with a written argument.  A
sanction whose every point becomes hook-covered is stale and exits 2 —
the same ratchet direction as the baseline.
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

#: Crash-surface roots: op name -> entry function.  ``raelint
#: --emit-crash-surface`` walks the call graph from each entry and
#: emits the ordered persistence points it can reach (ROADMAP item 3's
#: sweep work-list).
CRASH_ENTRY_POINTS = {
    "commit": "BaseFilesystem.commit",
    "mount": "BaseFilesystem.__init__",
    "unmount": "BaseFilesystem.unmount",
    "journal-recover": "JournalManager.recover",
    "mkfs": "mkfs",
    "inode-repair": "write_inode",
    "image-clone": "clone_to_memory",
    "fault-injection": "FaultyBlockDevice.read_block",
    "cache-sync": "BufferCache.sync",
}

#: Function -> argued justification for persistence points that no
#: fault-injection hook covers.  Each entry is a promise: if the sweep
#: engine cannot crash there, here is why that is acceptable.  A stale
#: sanction (every point hook-covered, or the function gone) exits 2.
PERSIST_SANCTIONS = {
    # mkfs formats a raw device before any filesystem — and thus any
    # hook registry — exists; a crash mid-format is indistinguishable
    # from an unformatted disk and is rejected at mount.
    "mkfs": "runs before any filesystem object exists; a torn format "
            "fails superblock validation at mount instead of corrupting "
            "live state",
    # fsck's inode-repair library writes to a quiesced device that no
    # supervisor owns; the sweep targets supervised mounts only.
    "write_inode": "offline fsck repair primitive on a quiesced device; "
                   "no supervised mount exists to crash",
    # Cloning copies into a *fresh in-memory* device; the source device
    # under supervision is only read.
    "clone_to_memory": "writes go to the newly created in-memory clone, "
                       "not the supervised device; a crash discards the "
                       "clone and leaves the source untouched",
    # unmount stamps CLEAN only after commit() sealed everything; a
    # crash between commit and the stamp leaves state DIRTY, which
    # mount-time journal replay already recovers — the stamp is an
    # optimization, not a durability step.
    "BaseFilesystem.unmount": "the clean stamp follows a full commit; "
                              "crashing before the stamp leaves the DIRTY "
                              "path that mount-time replay covers",
    # BufferCache.sync is a bare writeback+flush convenience used by
    # tools/tests outside the journaled commit path; production commits
    # go through JournalManager.commit, which is hook-covered.
    "BufferCache.sync": "test/tool convenience outside the journaled "
                        "commit path; production writeback happens inside "
                        "JournalManager.commit under journal.commit",
    # The fault injector's sticky bit-flip rewrites a block *as the
    # injected fault itself* — it is the crash source, not a durability
    # step the sweep needs to interrupt.
    "FaultyBlockDevice.read_block": "the write is the injected "
                                    "corruption itself (sticky bit-flip "
                                    "on read), not a durability step",
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


def sanction_reason(name: str) -> str | None:
    """The argued justification for *name*'s sanction, if any."""
    return PERSIST_SANCTIONS.get(name)
