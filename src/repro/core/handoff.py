"""Metadata downloading: shadow output → rebooted base.

A thin orchestration over the base's absorb interfaces, in the order
that keeps every intermediate state safe:

1. stale preserved pages of inodes the shadow mutated are dropped;
2. metadata blocks land in the buffer cache (dirty, role-tagged);
3. allocator state reloads from those very bitmap blocks and is
   cross-checked against the shadow's reported free counts;
4. authoritative data pages land in the page cache (dirty);
5. the descriptor table is installed.

After hand-off, "the base resumes execution and admits new operations,
at which point all state within the base filesystem is correct and up to
date" — the supervisor then commits, making the recovered state durable
and truncating the op log.
"""

from __future__ import annotations

from repro.basefs.filesystem import BaseFilesystem
from repro.errors import RECOVERY_BOUNDARY_ERRORS, RecoveryFailure
from repro.shadowfs.output import MetadataUpdate


def download_metadata(
    fs: BaseFilesystem,
    update: MetadataUpdate,
    events=None,
    corr_id: int | None = None,
) -> None:
    """Absorb ``update`` into ``fs``.  Raises :class:`RecoveryFailure` on
    any inconsistency (the base must not resume on a bad hand-off).

    ``events``/``corr_id``: when the supervisor's event log is threaded
    through (duck-typed — this module never imports ``repro.obs``), the
    hand-off emits one ``handoff.download`` event carrying the
    triggering op's correlation id and the absorbed-state sizes, so the
    forensic timeline shows *what* was handed off, not just how long it
    took."""
    try:
        fs.page_cache.drop_inos(update.touched_inos)
        fs.absorb_metadata(update.metadata_blocks, update.roles)
        # Only bitmap groups the shadow actually rewrote need re-journaling.
        dirty_block_groups = set()
        dirty_inode_groups = set()
        for block, role in update.roles.items():
            if role != "bitmap":
                continue
            group = fs.layout.group_of_block(block)
            if block == fs.layout.block_bitmap_block(group):
                dirty_block_groups.add(group)
            elif block == fs.layout.inode_bitmap_block(group):
                dirty_inode_groups.add(group)
        fs.absorb_accounting(
            update.free_blocks,
            update.free_inodes,
            dirty_block_groups=dirty_block_groups,
            dirty_inode_groups=dirty_inode_groups,
        )
        fs.absorb_data_pages(update.data_pages)
        fs.absorb_fd_table(update.fd_table)
    except RECOVERY_BOUNDARY_ERRORS as exc:
        raise RecoveryFailure(f"metadata download failed: {exc}", phase="handoff") from exc
    if events is not None:
        events.emit(
            "handoff.download",
            corr_id=corr_id,
            metadata_blocks=len(update.metadata_blocks),
            data_pages=len(update.data_pages),
            fds=len(update.fd_table),
            touched_inos=len(update.touched_inos),
        )
