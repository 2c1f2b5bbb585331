"""Filesystem creation.

``mkfs`` lays down a fresh, fsck-clean image: superblock, empty journal,
bitmaps with every metadata block pre-allocated, zeroed inode tables, and
a root directory containing ``.`` and ``..``.  Both filesystems mount what
mkfs produces, and the property tests use "mkfs + operations + clean
unmount passes fsck" as a foundational invariant.
"""

from __future__ import annotations

from repro.blockdev.device import BlockDevice, DeviceImage, MemoryBlockDevice
from repro.ondisk.bitmap import Bitmap
from repro.ondisk.directory import DirBlock
from repro.ondisk.inode import FileType, OnDiskInode, make_mode
from repro.ondisk.journal import reset_journal
from repro.ondisk.layout import (
    BLOCK_SIZE,
    DEFAULT_BLOCKS_PER_GROUP,
    DEFAULT_INODES_PER_GROUP,
    DEFAULT_JOURNAL_BLOCKS,
    INODES_PER_BLOCK,
    ROOT_INO,
    DiskLayout,
)
from repro.ondisk.superblock import STATE_CLEAN, Superblock


def mkfs(
    device: BlockDevice,
    blocks_per_group: int = DEFAULT_BLOCKS_PER_GROUP,
    inodes_per_group: int = DEFAULT_INODES_PER_GROUP,
    journal_blocks: int = DEFAULT_JOURNAL_BLOCKS,
) -> Superblock:
    """Format ``device``; returns the superblock that was written.

    The device's existing contents are ignored except that only the blocks
    mkfs owns are written — data blocks keep whatever stale bytes they had,
    as on real disks.
    """
    if device.block_size != BLOCK_SIZE:
        raise ValueError(f"device block size {device.block_size} != format block size {BLOCK_SIZE}")
    layout = DiskLayout(
        block_count=device.block_count,
        blocks_per_group=blocks_per_group,
        inodes_per_group=inodes_per_group,
        journal_blocks=journal_blocks,
    )

    # Journal: empty, sequence 1.
    reset_journal(device, layout, start_seq=1)

    # Root directory: inode + one data block with "." and "..".
    root_data_block = layout.data_start(0)
    dir_block = DirBlock()
    if not dir_block.insert(ROOT_INO, ".", FileType.DIRECTORY):
        raise AssertionError("fresh dir block rejected '.'")
    if not dir_block.insert(ROOT_INO, "..", FileType.DIRECTORY):
        raise AssertionError("fresh dir block rejected '..'")
    device.write_block(root_data_block, dir_block.to_block())

    root = OnDiskInode(
        mode=make_mode(FileType.DIRECTORY, 0o755),
        nlink=2,  # "." and the parent link from itself
        size=BLOCK_SIZE,
        atime=1,
        mtime=1,
        ctime=1,
    )
    root.direct[0] = root_data_block

    # Per-group metadata: bitmaps and inode tables.
    free_blocks = 0
    for group in range(layout.group_count):
        present = layout.group_block_count(group)
        block_bitmap = Bitmap(layout.blocks_per_group)
        group_start = layout.group_start(group)
        for meta in layout.metadata_blocks(group):
            block_bitmap.set(meta - group_start)
        # Bits beyond the device end (short last group) are never free.
        for bit in range(present, layout.blocks_per_group):
            block_bitmap.set(bit)
        if group == 0:
            block_bitmap.set(root_data_block - group_start)

        inode_bitmap = Bitmap(layout.inodes_per_group)
        if group == 0:
            inode_bitmap.set(0)  # ino 1, reserved
            inode_bitmap.set(1)  # ino 2, root

        device.write_block(layout.block_bitmap_block(group), block_bitmap.to_block())
        device.write_block(layout.inode_bitmap_block(group), inode_bitmap.to_block())
        free_blocks += block_bitmap.count_free()

        table_start = layout.inode_table_start(group)
        zero_block = b"\x00" * BLOCK_SIZE
        for i in range(layout.inode_table_blocks):
            device.write_block(table_start + i, zero_block)

    # Write the root inode into its table slot.
    root_block, root_offset = layout.inode_location(ROOT_INO)
    table_block = bytearray(device.read_block(root_block))
    table_block[root_offset : root_offset + len(root.pack())] = root.pack()
    device.write_block(root_block, bytes(table_block))

    free_inodes = layout.inode_count - 2  # reserved + root

    sb = Superblock(
        block_size=BLOCK_SIZE,
        block_count=layout.block_count,
        blocks_per_group=layout.blocks_per_group,
        inodes_per_group=layout.inodes_per_group,
        journal_blocks=layout.journal_blocks,
        free_blocks=free_blocks,
        free_inodes=free_inodes,
        root_ino=ROOT_INO,
        mount_state=STATE_CLEAN,
    )
    device.write_block(0, sb.pack())
    device.flush()
    return sb


_TEMPLATES: dict[tuple[int, int], DeviceImage] = {}


def formatted_device(
    block_count: int = 4096, journal_blocks: int | None = None, track_durability: bool = False
) -> MemoryBlockDevice:
    """A fresh in-memory device over a just-formatted image: ``mkfs`` runs
    once per geometry and every such device shares its image (``restore``
    keeps a reference).  ``journal_blocks`` overrides the default journal
    for callers that hold huge uncommitted windows open."""
    journal = DEFAULT_JOURNAL_BLOCKS if journal_blocks is None else journal_blocks
    template = _TEMPLATES.get((block_count, journal))
    if template is None:
        scratch = MemoryBlockDevice(block_count=block_count)
        mkfs(scratch, journal_blocks=journal)
        template = _TEMPLATES[(block_count, journal)] = scratch.snapshot()
    device = MemoryBlockDevice(block_count=block_count, track_durability=track_durability)
    device.restore(template)
    return device


__all__ = ["mkfs", "formatted_device", "INODES_PER_BLOCK"]
