"""Contained reboot (§2.2 problem 1, §3.2).

"Once an error is detected, all the states in the base filesystem's
memory is not trusted, so we need to reset them, including the metadata
and file descriptors."  Concretely:

* every metadata cache — dentry, inode, buffer — and the fd table,
  allocator state, lock state, and reservations are *discarded with the
  old filesystem object*;
* the **data pages survive**: "The data pages are shared between the
  base and the shadow because only applications can detect their
  corruption" (§2.3).  The dying instance's page cache hands its live
  LRU mapping to the new one, which adopts it as it is;
* the on-disk journal is replayed and reset by the re-mount, exactly as
  a crash-restart mount would, establishing the trusted on-disk state
  S0 that recovery reconstructs from;
* the OS and the application are untouched — in this reproduction that
  simply means no exception crosses the supervisor boundary.

The new instance reuses the old instance's :class:`HookPoints`: armed
deterministic bugs stay armed, which is the entire reason state
reconstruction cannot simply re-execute the sequence on the base.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.basefs.filesystem import BaseFilesystem
from repro.basefs.page_cache import Page
from repro.basefs.writeback import WritebackPolicy
from repro.blockdev.device import BlockDevice


@dataclass
class RebootResult:
    fs: BaseFilesystem
    preserved_pages: dict[tuple[int, int], Page]
    replayed_txns: int


def contained_reboot(
    old_fs: BaseFilesystem,
    device: BlockDevice,
    writeback_policy: WritebackPolicy | None = None,
    validate_on_sync: bool | None = None,
) -> RebootResult:
    """Tear down ``old_fs`` without writing anything it buffered, and
    re-mount the device as a fresh instance."""
    preserved = old_fs.page_cache.detach()
    # The pages are shared with the shadow / new instance as *read* cache:
    # the authoritative dirty copies arrive via the hand-off, so preserved
    # dirtiness is cleared — a failed recovery must never flush distrusted
    # buffered data.
    for page in preserved.pages.values():
        page.dirty = False
    hooks = old_fs.hooks

    # Scrub the distrusted state explicitly: a fenced instance must not
    # be usable by stale references (_mounted=False makes every
    # subsequent call fail fast).
    old_fs.inode_cache.drop_all()
    old_fs.dentry_cache.drop_all()
    old_fs.cache.drop_all()
    old_fs.fd_table.clear()
    old_fs.locks.release_all()
    old_fs._mounted = False
    # Cut the instance's own reference cycles at their back-references
    # (the daemon's fs, the journal's bound validator), so reference
    # counting frees it as soon as its last holder lets go — inside this
    # stall, not at whichever later collection the cyclic GC runs.  The
    # subsystems themselves stay: on_reboot callbacks read every
    # ``*.stats`` object of the instance being replaced.
    old_fs.writeback.fs = None
    old_fs.journal.validator = None

    new_fs = BaseFilesystem(
        device,
        hooks=hooks,
        buffer_cache_capacity=old_fs.cache.capacity,
        page_cache_capacity=old_fs.page_cache.capacity,
        inode_cache_capacity=old_fs.inode_cache.capacity,
        dentry_cache_capacity=old_fs.dentry_cache.capacity,
        writeback_policy=writeback_policy or old_fs.writeback.policy,
        validate_on_sync=old_fs.validate_on_sync if validate_on_sync is None else validate_on_sync,
        nr_queues=old_fs.blkmq.nr_queues,
        io_scheduler=old_fs.blkmq.scheduler,
        preserved_pages=preserved,
    )
    return RebootResult(fs=new_fs, preserved_pages=preserved.pages, replayed_txns=new_fs.replayed_txns)
