"""Unit tests for each of the shadow's runtime checks in isolation."""

import pytest

from repro.errors import InvariantViolation
from repro.ondisk.directory import DirBlock
from repro.ondisk.inode import FileType, MAX_FILE_SIZE, OnDiskInode, make_mode
from repro.ondisk.layout import BLOCK_SIZE, DiskLayout
from repro.ondisk.superblock import Superblock
from repro.shadowfs.checks import CheckLevel, ShadowChecks


@pytest.fixture
def layout():
    return DiskLayout(block_count=4096)


def full(layout):
    return ShadowChecks(layout, level=CheckLevel.FULL)


def basic(layout):
    return ShadowChecks(layout, level=CheckLevel.BASIC)


def off(layout):
    return ShadowChecks(layout, level=CheckLevel.OFF)


def good_inode() -> OnDiskInode:
    return OnDiskInode(mode=make_mode(FileType.REGULAR, 0o644), nlink=1, size=10)


class TestInodeChecks:
    def test_valid_inode_passes(self, layout):
        full(layout).inode(5, good_inode())

    def test_free_inode_rejected(self, layout):
        with pytest.raises(InvariantViolation, match="free"):
            basic(layout).inode(5, OnDiskInode())

    def test_invalid_type_rejected(self, layout):
        inode = good_inode()
        inode.mode = 9 << 12
        with pytest.raises(InvariantViolation, match="invalid type"):
            basic(layout).inode(5, inode)

    def test_oversize_rejected(self, layout):
        inode = good_inode()
        inode.size = MAX_FILE_SIZE + 1
        with pytest.raises(InvariantViolation, match="exceeds maximum"):
            basic(layout).inode(5, inode)

    def test_unaligned_dir_size_rejected(self, layout):
        inode = OnDiskInode(mode=make_mode(FileType.DIRECTORY), nlink=2, size=100)
        with pytest.raises(InvariantViolation, match="unaligned"):
            basic(layout).inode(5, inode)

    def test_symlink_size_bounds(self, layout):
        inode = OnDiskInode(mode=make_mode(FileType.SYMLINK), nlink=1, size=BLOCK_SIZE)
        with pytest.raises(InvariantViolation):
            basic(layout).inode(5, inode)

    def test_zero_nlink_needs_orphan_permission(self, layout):
        inode = good_inode()
        inode.nlink = 0
        with pytest.raises(InvariantViolation, match="zero links"):
            basic(layout).inode(5, inode)
        basic(layout).inode(5, inode, allow_orphan=True)

    def test_bad_pointer_rejected(self, layout):
        inode = good_inode()
        inode.direct[0] = layout.block_count + 5
        with pytest.raises(InvariantViolation, match="out-of-range"):
            basic(layout).inode(5, inode)
        inode.direct[0] = 0  # hole is fine
        basic(layout).inode(5, inode)
        inode.indirect = layout.inode_table_start(0)  # metadata block
        with pytest.raises(InvariantViolation, match="metadata"):
            basic(layout).inode(5, inode)

    def test_off_level_skips_everything(self, layout):
        checks = off(layout)
        checks.inode(5, OnDiskInode())  # would fail at BASIC
        assert checks.stats.checks_run == 0


class TestCrossStructureChecks:
    def test_block_allocated_full_only(self, layout):
        allocated = {10}
        full(layout).block_allocated(10, lambda b: b in allocated)
        with pytest.raises(InvariantViolation):
            full(layout).block_allocated(11, lambda b: b in allocated)
        basic(layout).block_allocated(11, lambda b: b in allocated)  # no-op at BASIC

    def test_ino_allocated(self, layout):
        with pytest.raises(InvariantViolation):
            full(layout).ino_allocated(5, lambda i: False)

    def test_superblock_counts(self, layout):
        sb = Superblock(
            block_size=BLOCK_SIZE, block_count=4096, blocks_per_group=1024,
            inodes_per_group=256, journal_blocks=64, free_blocks=100,
            free_inodes=50, root_ino=2,
        )
        full(layout).superblock_counts(sb, 100, 50)
        with pytest.raises(InvariantViolation, match="free_blocks"):
            full(layout).superblock_counts(sb, 99, 50)
        with pytest.raises(InvariantViolation, match="free_inodes"):
            full(layout).superblock_counts(sb, 100, 49)


class TestDirChecks:
    def test_valid_dir_block(self, layout):
        block = DirBlock()
        block.insert(2, "x", FileType.REGULAR)
        basic(layout).dir_block(2, 200, block.to_block())

    def test_dir_block_hands_back_what_it_parsed_at_every_level(self, layout):
        block = DirBlock()
        block.insert(2, "x", FileType.REGULAR)
        block.insert(3, "y", FileType.DIRECTORY)
        for checks, counted in ((off(layout), 0), (basic(layout), 1), (full(layout), 1)):
            entries = checks.dir_block(2, 200, block.to_block())
            assert entries == block.entries()
            assert checks.stats.by_name.get("dir-block", 0) == counted

    def test_malformed_dir_block(self, layout):
        raw = bytearray(DirBlock().to_block())
        raw[4:6] = (2).to_bytes(2, "little")
        with pytest.raises(InvariantViolation, match="malformed"):
            basic(layout).dir_block(2, 200, bytes(raw))
        # Below BASIC nothing is checked, but the block is still parsed
        # (once) and the parser's own error surfaces.
        checks = off(layout)
        with pytest.raises(ValueError, match="rec_len 2 < header size"):
            checks.dir_block(2, 200, bytes(raw))
        assert checks.stats.checks_run == 0 and checks.stats.failures == 0

    def test_out_of_range_entry_ino(self, layout):
        block = DirBlock()
        block.insert(999999, "x", FileType.REGULAR)
        with pytest.raises(InvariantViolation, match="points at inode"):
            basic(layout).dir_block(2, 200, block.to_block())

    def test_dots_required(self, layout):
        with pytest.raises(InvariantViolation, match="lacks"):
            basic(layout).dir_has_dots(2, {"only-this"})
        basic(layout).dir_has_dots(2, {".", "..", "a"})


class TestInputAndFdChecks:
    def test_input_type_validation(self, layout):
        checks = basic(layout)
        checks.input_op("mkdir", {"path": "/a", "perms": 0o755})
        with pytest.raises(InvariantViolation):
            checks.input_op("mkdir", {"path": 5})
        with pytest.raises(InvariantViolation):
            checks.input_op("read", {"fd": "three", "length": 4})
        with pytest.raises(InvariantViolation):
            checks.input_op("write", {"fd": 3, "data": "not-bytes"})

    def test_fd_state_validation(self, layout):
        checks = basic(layout)
        checks.fd_state(3, 2, 0)
        with pytest.raises(InvariantViolation):
            checks.fd_state(1, 2, 0)
        with pytest.raises(InvariantViolation):
            checks.fd_state(3, 0, 0)
        with pytest.raises(InvariantViolation):
            checks.fd_state(3, 2, -1)

    def test_stats_accumulate(self, layout):
        checks = full(layout)
        checks.inode(5, good_inode())
        checks.dir_has_dots(2, {".", ".."})
        assert checks.stats.checks_run >= 2
        assert checks.stats.by_name.get("inode") == 1
