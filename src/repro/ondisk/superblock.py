"""The superblock: block 0 of every image.

Fields cover geometry (so :class:`~repro.ondisk.layout.DiskLayout` can be
reconstructed at mount time), free-space accounting, and mount state.  The
trailing CRC detects torn or corrupted superblocks; both filesystems and
fsck refuse images whose superblock fails validation — except the
crafted-image machinery, whose whole purpose is to produce images that
*pass* these checks yet still trip the base (§2.1's bypass-FSCK attacks).

``mount_state`` distinguishes a cleanly unmounted image (``CLEAN``) from
one that was in use (``DIRTY``); mounting a dirty image triggers journal
replay, exactly the path contained reboot takes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.ondisk.layout import BLOCK_SIZE, DiskLayout
from repro.util import checksum32

SUPERBLOCK_MAGIC = 0x5AD0_F54E  # "ShaDowFS", squinting
SUPERBLOCK_VERSION = 1

STATE_CLEAN = 1
STATE_DIRTY = 2

# magic, version, block_size, block_count, blocks_per_group,
# inodes_per_group, journal_blocks, group_count, free_blocks, free_inodes,
# root_ino, mount_state, mount_count, write_generation, checksum
_FORMAT = "<IIIIIIIIIIIIIQI"
_SIZE = struct.calcsize(_FORMAT)
_pack_body = struct.Struct(_FORMAT[:-1]).pack  # every field but the checksum
_BLOCK_PAD = bytes(BLOCK_SIZE - _SIZE)


@dataclass
class Superblock:
    """In-memory superblock.  ``pack``/``unpack`` round-trip block 0."""

    block_size: int
    block_count: int
    blocks_per_group: int
    inodes_per_group: int
    journal_blocks: int
    free_blocks: int
    free_inodes: int
    root_ino: int
    mount_state: int = STATE_CLEAN
    mount_count: int = 0
    write_generation: int = 0
    magic: int = SUPERBLOCK_MAGIC
    version: int = SUPERBLOCK_VERSION

    @property
    def group_count(self) -> int:
        return (self.block_count + self.blocks_per_group - 1) // self.blocks_per_group

    def layout(self) -> DiskLayout:
        """Reconstruct the geometry this superblock describes."""
        return DiskLayout(
            block_count=self.block_count,
            blocks_per_group=self.blocks_per_group,
            inodes_per_group=self.inodes_per_group,
            journal_blocks=self.journal_blocks,
        )

    def pack(self) -> bytes:
        """Serialize to one block, checksum included."""
        body = _pack_body(
            self.magic,
            self.version,
            self.block_size,
            self.block_count,
            self.blocks_per_group,
            self.inodes_per_group,
            self.journal_blocks,
            self.group_count,
            self.free_blocks,
            self.free_inodes,
            self.root_ino,
            self.mount_state,
            self.mount_count,
            self.write_generation,
        )
        return body + checksum32(body).to_bytes(4, "little") + _BLOCK_PAD

    @classmethod
    def unpack(cls, block: bytes, verify: bool = True) -> "Superblock":
        """Parse block 0.  Raises ``ValueError`` on any validation failure."""
        if len(block) < _SIZE:
            raise ValueError(f"superblock too short: {len(block)} bytes")
        fields = struct.unpack(_FORMAT, block[:_SIZE])
        (
            magic,
            version,
            block_size,
            block_count,
            blocks_per_group,
            inodes_per_group,
            journal_blocks,
            group_count,
            free_blocks,
            free_inodes,
            root_ino,
            mount_state,
            mount_count,
            write_generation,
            stored_crc,
        ) = fields
        if verify:
            if magic != SUPERBLOCK_MAGIC:
                raise ValueError(f"bad superblock magic 0x{magic:08x}")
            if version != SUPERBLOCK_VERSION:
                raise ValueError(f"unsupported superblock version {version}")
            actual_crc = checksum32(block[: _SIZE - 4])
            if actual_crc != stored_crc:
                raise ValueError(
                    f"superblock checksum mismatch: stored 0x{stored_crc:08x}, computed 0x{actual_crc:08x}"
                )
            if block_size != BLOCK_SIZE:
                raise ValueError(f"unsupported block size {block_size}")
        sb = cls(
            block_size=block_size,
            block_count=block_count,
            blocks_per_group=blocks_per_group,
            inodes_per_group=inodes_per_group,
            journal_blocks=journal_blocks,
            free_blocks=free_blocks,
            free_inodes=free_inodes,
            root_ino=root_ino,
            mount_state=mount_state,
            mount_count=mount_count,
            write_generation=write_generation,
            magic=magic,
            version=version,
        )
        if verify and group_count != sb.group_count:
            raise ValueError(f"superblock group_count {group_count} inconsistent with geometry {sb.group_count}")
        if verify and mount_state not in (STATE_CLEAN, STATE_DIRTY):
            raise ValueError(f"bad mount_state {mount_state}")
        return sb

    def validate_against(self, layout: DiskLayout) -> list[str]:
        """Cross-check against an independently known geometry (fsck)."""
        problems = []
        if self.block_count != layout.block_count:
            problems.append(f"block_count {self.block_count} != device {layout.block_count}")
        if self.blocks_per_group != layout.blocks_per_group:
            problems.append("blocks_per_group mismatch")
        if self.inodes_per_group != layout.inodes_per_group:
            problems.append("inodes_per_group mismatch")
        if self.journal_blocks != layout.journal_blocks:
            problems.append("journal_blocks mismatch")
        if not 1 <= self.root_ino <= layout.inode_count:
            problems.append(f"root_ino {self.root_ino} out of range")
        if self.free_blocks > self.block_count:
            problems.append(f"free_blocks {self.free_blocks} exceeds block_count")
        if self.free_inodes > layout.inode_count:
            problems.append(f"free_inodes {self.free_inodes} exceeds inode_count")
        return problems
