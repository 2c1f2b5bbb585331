"""Tests for repro.ondisk.layout."""

import pytest

from repro.ondisk.layout import BLOCK_SIZE, INODE_SIZE, INODES_PER_BLOCK, ROOT_INO, DiskLayout


def make(block_count=4096, **kwargs) -> DiskLayout:
    return DiskLayout(block_count=block_count, **kwargs)


def test_constants_consistent():
    assert BLOCK_SIZE % INODE_SIZE == 0
    assert INODES_PER_BLOCK == BLOCK_SIZE // INODE_SIZE
    assert ROOT_INO == 2


def test_group_count_and_partial_last_group():
    layout = make(block_count=2500, blocks_per_group=1024)
    assert layout.group_count == 3
    assert layout.group_block_count(0) == 1024
    assert layout.group_block_count(2) == 452


def test_group0_has_superblock_and_journal():
    layout = make()
    meta = layout.metadata_blocks(0)
    assert 0 in meta
    assert layout.journal_start == 1
    assert all(1 <= b for b in range(layout.journal_start, layout.journal_start + layout.journal_blocks))
    assert layout.block_bitmap_block(0) == 1 + layout.journal_blocks


def test_later_groups_have_no_journal():
    layout = make()
    assert layout.block_bitmap_block(1) == layout.group_start(1)
    assert layout.inode_bitmap_block(1) == layout.group_start(1) + 1


def test_data_start_after_inode_table():
    layout = make()
    for group in range(layout.group_count):
        assert layout.data_start(group) == layout.inode_table_start(group) + layout.inode_table_blocks


def test_metadata_blocks_disjoint_from_data():
    layout = make()
    for group in range(layout.group_count):
        meta = set(layout.metadata_blocks(group))
        data = set(layout.data_blocks_in_group(group))
        assert not meta & data


def test_is_metadata_block():
    layout = make()
    assert layout.is_metadata_block(0)
    assert layout.is_metadata_block(layout.journal_start)
    assert layout.is_metadata_block(layout.inode_table_start(1))
    assert not layout.is_metadata_block(layout.data_start(0))


def test_inode_location_arithmetic():
    layout = make()
    block, offset = layout.inode_location(1)
    assert block == layout.inode_table_start(0)
    assert offset == 0
    block2, offset2 = layout.inode_location(INODES_PER_BLOCK + 1)
    assert block2 == layout.inode_table_start(0) + 1
    assert offset2 == 0
    # first inode of group 1
    ino = layout.inodes_per_group + 1
    block3, _ = layout.inode_location(ino)
    assert block3 == layout.inode_table_start(1)


def test_group_of_ino():
    layout = make()
    assert layout.group_of_ino(1) == 0
    assert layout.group_of_ino(layout.inodes_per_group) == 0
    assert layout.group_of_ino(layout.inodes_per_group + 1) == 1


def test_range_validation():
    layout = make()
    with pytest.raises(ValueError):
        layout.check_ino(0)
    with pytest.raises(ValueError):
        layout.check_ino(layout.inode_count + 1)
    with pytest.raises(ValueError):
        layout.group_of_block(layout.block_count)
    with pytest.raises(ValueError):
        layout.group_start(layout.group_count)


def test_rejects_impossible_geometry():
    with pytest.raises(ValueError):
        make(blocks_per_group=4)  # too small
    with pytest.raises(ValueError):
        make(inodes_per_group=100)  # not a multiple of inodes-per-block
    with pytest.raises(ValueError):
        make(block_count=100)  # smaller than one group
    with pytest.raises(ValueError):
        make(journal_blocks=2)  # journal too small
    with pytest.raises(ValueError):
        DiskLayout(block_count=2048, blocks_per_group=90, journal_blocks=80)  # group 0 overflow


def test_inode_count():
    layout = make(block_count=2500, blocks_per_group=1024, inodes_per_group=256)
    assert layout.inode_count == 3 * 256


# ---- is_metadata_block against its reference ------------------------------


def reference_is_metadata_block(layout: DiskLayout, block: int) -> bool:
    """The list-membership body is_metadata_block had before it became
    one comparison against the group's data start."""
    group = layout.group_of_block(block)
    return block in layout.metadata_blocks(group)


@pytest.mark.parametrize(
    "layout",
    [
        make(block_count=4096),
        make(block_count=4096, journal_blocks=768),
        make(block_count=2500),  # 452-block last group
        make(block_count=3 * 1024 + 18, journal_blocks=768),  # last group is all metadata
        make(block_count=700, blocks_per_group=128, inodes_per_group=32, journal_blocks=16),
    ],
    ids=["j256", "j768", "short-last", "j768-minimal-last", "small-groups"],
)
def test_is_metadata_block_matches_reference_on_every_block(layout):
    for block in range(layout.block_count):
        assert layout.is_metadata_block(block) == reference_is_metadata_block(layout, block), block
    for bad in (-1, layout.block_count):
        with pytest.raises(ValueError):
            layout.is_metadata_block(bad)


# ---- a last group too short for its own metadata --------------------------


def test_last_group_must_hold_its_own_metadata():
    # Default group sizes: a group's metadata is 2 bitmaps + 16 table blocks.
    for block_count in (1025, 1030, 1041):
        with pytest.raises(ValueError, match="last group"):
            make(block_count=block_count)
    layout = make(block_count=1042)
    assert layout.group_count == 2
    assert layout.metadata_blocks(1)[-1] == 1041 < layout.block_count
    assert list(layout.data_blocks_in_group(1)) == []
    assert make(block_count=1043).data_blocks_in_group(1) == range(1042, 1043)


def test_mkfs_on_the_boundary_geometries():
    from repro.blockdev.device import MemoryBlockDevice
    from repro.fsck.checker import Fsck
    from repro.ondisk.mkfs import mkfs

    with pytest.raises(ValueError, match="last group"):
        mkfs(MemoryBlockDevice(block_count=1035))
    device = MemoryBlockDevice(block_count=1042)
    mkfs(device)
    assert Fsck(device).run().clean


def test_crafted_superblock_with_short_last_group_is_refused_at_mount():
    """A checksummed superblock claiming such a geometry is a parse
    failure (ValueError) for both filesystems and an fsck finding, not a
    stray out-of-range device access later."""
    from repro.basefs.filesystem import BaseFilesystem
    from repro.fsck.checker import Fsck
    from repro.ondisk.superblock import Superblock
    from repro.shadowfs.filesystem import ShadowFilesystem
    from tests.conftest import formatted_device

    device = formatted_device()
    sb = Superblock.unpack(device.read_block(0))
    sb.block_count = 3 * 1024 + 10
    device.write_block(0, sb.pack())
    for mount in (BaseFilesystem, ShadowFilesystem):
        with pytest.raises(ValueError, match="last group"):
            mount(device)
    report = Fsck(device).run()
    assert not report.clean
    assert any(f.code == "sb-geometry" and "last group" in f.message for f in report.findings)
