"""The declared concurrency spec: shared classes and their lock guards.

The supervisor side is driven by one thread today, and the only
parallelism in the tree is the multi-client workload driver's
cooperative interleaving.  The shadow will never be concurrent:
SHADOW-PURITY keeps it sequential and import-clean, which is the paper's
trust argument (§3.2), so nothing here names a shadow class.

raelint's concurrency rules (RACE-LOCKSET and ATOMIC-RMW, see
``docs/STATIC_ANALYSIS.md``) extract this file from its AST, exactly
like ``OP_CONTRACTS``: both tables must stay pure literals.

* ``SHARED_CLASSES`` — classes whose instances would be reachable from
  more than one thread or task the day a concurrent caller appears.
  Registering a class turns the lockset checks on *now*, before the
  first concurrent caller exists, so every new write to supervisor
  state grows up under the race detector instead of being retrofitted.
* ``GUARDED_BY`` — ``{"Class.attr": lock token}``.  A real token
  (``"self._lock"``) obliges every write site to hold that lock.  The
  sentinel ``"<single-threaded>"`` is the concurrency analogue of
  ``shadow_extra``: a written-down, argued sanction that the attribute
  is unsynchronized *because its owner is still driven by one thread
  today*.  Each sentinel below carries the argument and must flip to a
  real token in the PR that introduces the concurrent caller — flipping
  is a one-line spec change, and every unguarded write site immediately
  becomes a finding.

A declaration that names a class or attribute that does not exist in the
tree is a configuration error (raelint exits 2), not a finding: a guard
that cannot bind protects nothing, and silently skipping it would let
this registry rot.
"""

from __future__ import annotations

#: Supervisor-side state a concurrent caller would share across
#: threads/tasks.  Inferred escape seeds (``threading.Thread`` targets,
#: executor submits, asyncio task creation) extend this list
#: automatically; the registry exists to turn the checks on early.
SHARED_CLASSES = (
    # The supervisor facade: every client of a mounted volume calls
    # into one RAEFilesystem.
    "RAEFilesystem",
    # Appended on the hot path, drained by replay: a second thread of
    # control on either side meets the other's half-applied compound.
    "OpLog",
    # Classifies faults on the hot path; its history is read back by
    # supervisor snapshots and reports.
    "Detector",
    # The inode lock table itself: lock metadata is the first thing
    # concurrent clients contend on.
    "LockManager",
    # The multi-client workload driver is the natural first home of real
    # threads (today it interleaves clients cooperatively).
    "MultiClientWorkload",
)

#: Class attribute -> lock token that must be may-held at every write.
#: ``"<single-threaded>"`` = argued sanction, see module docstring.
GUARDED_BY = {
    # -- RAEFilesystem: all mutation happens on the single dispatch
    #    thread today; ops() is the only entry point and it is not
    #    reentrant.  A concurrent caller must route these through one
    #    supervisor lock (or an actor-style dispatch queue).
    "RAEFilesystem.base": "<single-threaded>",  # swapped only inside recovery
    "RAEFilesystem._in_recovery": "<single-threaded>",  # recovery re-entrance flag
    "RAEFilesystem.seq": "<single-threaded>",  # op sequence counter (rmw on every op)
    "RAEFilesystem._window_generation": "<single-threaded>",  # durability-point generation, moved at commit callbacks
    "RAEFilesystem.on_reboot": "<single-threaded>",  # reboot callbacks, registered before the workload runs
    "RAEFilesystem.forensics": "<single-threaded>",  # forensic bundle accumulator
    # -- OpLog: append/truncate mutate entries and the byte budget as
    #    one compound; a concurrent appender needs a log lock while
    #    replay reads a frozen snapshot.
    "OpLog.entries": "<single-threaded>",
    "OpLog._entry_bytes": "<single-threaded>",
    "OpLog.fd_snapshot": "<single-threaded>",
    # -- Detector: history is appended per classified fault, read by
    #    forensics; a ring-buffer swap or a history lock when concurrent.
    "Detector.history": "<single-threaded>",
    # -- LockManager: the held list *is* the lock state; it mutates
    #    inside acquire/release themselves, so its eventual guard is the
    #    manager's own internal mutex, never an inode lock.
    "LockManager.held": "<single-threaded>",
    # -- MultiClientWorkload: clients interleave cooperatively on one
    #    thread today; the threaded driver must give results/failures
    #    their own lock (or per-client buckets merged at the end).
    "MultiClientWorkload.results": "<single-threaded>",
    "MultiClientWorkload.runtime_failures": "<single-threaded>",
}
