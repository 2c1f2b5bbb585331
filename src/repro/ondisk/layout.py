"""Disk geometry.

The image is divided into equal *block groups*, ext2-style, with every
block of the device belonging to exactly one group::

    group 0:  [ SB ][ journal ... ][ BB ][ IB ][ inode table ][ data ... ]
    group g:  [ BB ][ IB ][ inode table ][ data ... ]

where ``SB`` is the superblock (block 0), ``BB``/``IB`` are the group's
block and inode bitmaps, and the journal lives at the front of group 0
only.  Each group's block bitmap covers *its own* block range, including
the metadata blocks inside it (marked allocated at mkfs time).

Inode numbers are 1-based; 0 means "no inode" in directory entries and
block pointers.  Inode ``ROOT_INO`` (2, as in ext2) is the root directory;
inode 1 is reserved.  Inode ``i`` lives in group ``(i-1) //
inodes_per_group`` at index ``(i-1) % inodes_per_group`` in that group's
table.

:class:`DiskLayout` is pure arithmetic over these rules and is shared by
mkfs, the base, the shadow, fsck, and the crafted-image generator — any
disagreement about geometry would be a format bug, so there is exactly one
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

BLOCK_SIZE = 4096
INODE_SIZE = 256
INODES_PER_BLOCK = BLOCK_SIZE // INODE_SIZE  # 16

ROOT_INO = 2
FIRST_FREE_INO = 3  # 0 invalid, 1 reserved, 2 root

DEFAULT_BLOCKS_PER_GROUP = 1024
DEFAULT_INODES_PER_GROUP = 256
# 1 MiB of journal: large enough that a recovery hand-off commit — the
# biggest single transaction the system produces — fits as one atomic
# multi-chunk group (ext4's default journal is 64x this).
DEFAULT_JOURNAL_BLOCKS = 256


@dataclass(frozen=True)
class DiskLayout:
    """Immutable geometry for one filesystem image.

    Constructed either directly (mkfs) or from a superblock (mount).  All
    methods raise ``ValueError`` on out-of-range arguments, because callers
    include fsck and the crafted-image attack path where garbage input is
    the whole point.
    """

    block_count: int
    blocks_per_group: int = DEFAULT_BLOCKS_PER_GROUP
    inodes_per_group: int = DEFAULT_INODES_PER_GROUP
    journal_blocks: int = DEFAULT_JOURNAL_BLOCKS

    def __post_init__(self):
        if self.blocks_per_group < 8:
            raise ValueError(f"blocks_per_group too small: {self.blocks_per_group}")
        if self.blocks_per_group > BLOCK_SIZE * 8:
            raise ValueError("blocks_per_group exceeds one bitmap block")
        if self.inodes_per_group % INODES_PER_BLOCK != 0:
            raise ValueError(f"inodes_per_group must be a multiple of {INODES_PER_BLOCK}")
        if self.inodes_per_group > BLOCK_SIZE * 8:
            raise ValueError("inodes_per_group exceeds one bitmap block")
        if self.block_count < self.blocks_per_group:
            raise ValueError("device smaller than one block group")
        if self.journal_blocks < 8:
            raise ValueError(f"journal_blocks too small: {self.journal_blocks}")
        min_group0 = 1 + self.journal_blocks + 2 + self.inode_table_blocks + 1
        if self.blocks_per_group < min_group0:
            raise ValueError(
                f"group 0 metadata ({min_group0} blocks) does not fit in a "
                f"{self.blocks_per_group}-block group"
            )
        last_group = self.block_count - (self.group_count - 1) * self.blocks_per_group
        if last_group < 2 + self.inode_table_blocks:
            raise ValueError(
                f"last group ({last_group} blocks) cannot hold its own metadata "
                f"({2 + self.inode_table_blocks} blocks)"
            )

    # ---- derived sizes -------------------------------------------------
    # Computed once per (immutable) layout: every range check below reads
    # them.  cached_property stores into the instance dict directly, which
    # a frozen dataclass allows; equality and repr still see only the fields.

    @cached_property
    def inode_table_blocks(self) -> int:
        """Blocks occupied by one group's inode table."""
        return self.inodes_per_group // INODES_PER_BLOCK

    @cached_property
    def group_count(self) -> int:
        """Number of (possibly partial-last) block groups."""
        return (self.block_count + self.blocks_per_group - 1) // self.blocks_per_group

    @cached_property
    def inode_count(self) -> int:
        """Total inodes on the image."""
        return self.group_count * self.inodes_per_group

    # Per-group geometry tables, indexed by group: the hot readers (an
    # inode's location, a pointer's metadata test, a bitmap bit) index
    # these instead of chaining the range-checked per-group helpers.
    # They are arithmetic of the immutable fields, not image state.

    @cached_property
    def block_bitmap_blocks(self) -> tuple[int, ...]:
        return tuple(self._meta_start(group) for group in range(self.group_count))

    @cached_property
    def inode_bitmap_blocks(self) -> tuple[int, ...]:
        return tuple(self._meta_start(group) + 1 for group in range(self.group_count))

    @cached_property
    def inode_table_starts(self) -> tuple[int, ...]:
        return tuple(self._meta_start(group) + 2 for group in range(self.group_count))

    @cached_property
    def data_starts(self) -> tuple[int, ...]:
        return tuple(start + self.inode_table_blocks for start in self.inode_table_starts)

    @property
    def journal_start(self) -> int:
        """First journal block (immediately after the superblock)."""
        return 1

    # ---- per-group arithmetic -------------------------------------------

    def check_group(self, group: int) -> None:
        if not 0 <= group < self.group_count:
            raise ValueError(f"group {group} out of range [0, {self.group_count})")

    def group_start(self, group: int) -> int:
        """First block of ``group``."""
        self.check_group(group)
        return group * self.blocks_per_group

    def group_block_count(self, group: int) -> int:
        """Blocks actually present in ``group`` (the last may be short)."""
        start = self.group_start(group)
        return min(self.blocks_per_group, self.block_count - start)

    def _meta_start(self, group: int) -> int:
        """First metadata block of ``group`` (after SB+journal in group 0);
        the caller has range-checked ``group``."""
        if group == 0:
            return 1 + self.journal_blocks
        return group * self.blocks_per_group

    def block_bitmap_block(self, group: int) -> int:
        self.check_group(group)
        return self.block_bitmap_blocks[group]

    def inode_bitmap_block(self, group: int) -> int:
        self.check_group(group)
        return self.inode_bitmap_blocks[group]

    def inode_table_start(self, group: int) -> int:
        self.check_group(group)
        return self.inode_table_starts[group]

    def data_start(self, group: int) -> int:
        """First general-purpose data block of ``group``."""
        self.check_group(group)
        return self.data_starts[group]

    def metadata_blocks(self, group: int) -> list[int]:
        """Every block of ``group`` reserved for metadata (incl. SB/journal)."""
        self.check_group(group)
        blocks = []
        if group == 0:
            blocks.append(0)
            blocks.extend(range(self.journal_start, self.journal_start + self.journal_blocks))
        blocks.append(self.block_bitmap_block(group))
        blocks.append(self.inode_bitmap_block(group))
        start = self.inode_table_start(group)
        blocks.extend(range(start, start + self.inode_table_blocks))
        return blocks

    def group_of_block(self, block: int) -> int:
        if not 0 <= block < self.block_count:
            raise ValueError(f"block {block} out of range [0, {self.block_count})")
        return block // self.blocks_per_group

    def is_metadata_block(self, block: int) -> bool:
        """True if ``block`` holds format metadata (never file data).

        A group's metadata is one run from its first block to
        ``data_start`` — ``__post_init__`` rejected any geometry whose
        last group is too short to hold that run."""
        return block < self.data_starts[self.group_of_block(block)]

    def data_blocks_in_group(self, group: int) -> range:
        """The data-block range of ``group``."""
        start = self.group_start(group)
        return range(self.data_start(group), start + self.group_block_count(group))

    # ---- inode arithmetic ------------------------------------------------

    def check_ino(self, ino: int) -> None:
        if not 1 <= ino <= self.inode_count:
            raise ValueError(f"inode {ino} out of range [1, {self.inode_count}]")

    def group_of_ino(self, ino: int) -> int:
        self.check_ino(ino)
        return (ino - 1) // self.inodes_per_group

    def ino_index_in_group(self, ino: int) -> int:
        self.check_ino(ino)
        return (ino - 1) % self.inodes_per_group

    def inode_location(self, ino: int) -> tuple[int, int]:
        """Return ``(block, byte_offset)`` of inode ``ino`` on disk."""
        self.check_ino(ino)
        group, index = divmod(ino - 1, self.inodes_per_group)
        block, slot = divmod(index, INODES_PER_BLOCK)
        return self.inode_table_starts[group] + block, slot * INODE_SIZE
