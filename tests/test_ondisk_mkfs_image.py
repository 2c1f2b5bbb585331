"""Tests for repro.ondisk.mkfs and repro.ondisk.image."""

import pytest

from repro.blockdev.device import MemoryBlockDevice, WriteFencedDevice
from repro.ondisk.directory import DirBlock
from repro.ondisk.image import (
    clone_to_memory,
    describe,
    dump_tree,
    read_inode,
    read_superblock,
    write_inode,
)
from repro.ondisk.layout import BLOCK_SIZE, ROOT_INO
from repro.ondisk.mkfs import mkfs
from repro.ondisk.superblock import STATE_CLEAN


@pytest.fixture
def device():
    dev = MemoryBlockDevice(block_count=4096)
    mkfs(dev)
    return dev


def test_mkfs_superblock_sane(device):
    sb = read_superblock(device)
    assert sb.mount_state == STATE_CLEAN
    assert sb.root_ino == ROOT_INO
    assert sb.block_count == 4096


def test_mkfs_root_directory(device):
    sb = read_superblock(device)
    root = read_inode(device, sb.layout(), ROOT_INO)
    assert root.is_dir and root.nlink == 2 and root.size == BLOCK_SIZE
    entries = DirBlock(device.read_block(root.direct[0])).entries()
    names = {e.name: e.ino for e in entries}
    assert names == {".": ROOT_INO, "..": ROOT_INO}


def test_mkfs_accounting_matches_bitmaps(device):
    sb = read_superblock(device)
    info = describe(device)
    assert info.free_blocks_by_bitmap == sb.free_blocks
    assert info.free_inodes_by_bitmap == sb.free_inodes
    assert info.live_inodes == 1  # just the root


def test_mkfs_rejects_wrong_block_size():
    class Odd(MemoryBlockDevice):
        pass

    odd = Odd(block_size=512, block_count=8192)
    with pytest.raises(ValueError):
        mkfs(odd)


def test_mkfs_partial_last_group():
    dev = MemoryBlockDevice(block_count=2500)
    sb = mkfs(dev)
    info = describe(dev)
    assert info.free_blocks_by_bitmap == sb.free_blocks
    # bits past the device end must be unusable
    layout = sb.layout()
    assert layout.group_block_count(2) == 2500 - 2048


def test_dump_tree_fresh(device):
    assert dump_tree(device) == {"/": ROOT_INO}


def test_clone_to_memory_is_independent(device):
    clone = clone_to_memory(device)
    clone.write_block(100, b"x" * BLOCK_SIZE)
    assert device.read_block(100) != clone.read_block(100)


def test_clone_to_memory_never_writes_its_source(device):
    # The fence raises on any write: the clone's writes all land in the
    # fresh device, so a crash mid-clone leaves the source untouched.
    image = device.snapshot()
    clone = clone_to_memory(WriteFencedDevice(device))
    assert clone.snapshot() == image
    assert device.snapshot() == image


def test_write_inode_roundtrip(device):
    sb = read_superblock(device)
    layout = sb.layout()
    inode = read_inode(device, layout, ROOT_INO)
    inode.mtime = 999
    write_inode(device, layout, ROOT_INO, inode)
    assert read_inode(device, layout, ROOT_INO).mtime == 999
