"""Tests for repro.ondisk.inode."""

import random

import pytest

from repro.ondisk.inode import (
    FileType,
    MAX_FILE_SIZE,
    N_DIRECT,
    OnDiskInode,
    PTRS_PER_BLOCK,
    SLOT_MODE,
    SLOT_NLINK,
    SLOT_SIZE,
    make_mode,
    mode_type,
    read_slot,
)
from repro.ondisk.layout import BLOCK_SIZE, INODE_SIZE
from tests.reference_ondisk import outcome, reference_unpack


def test_make_mode_and_type_accessors():
    inode = OnDiskInode(mode=make_mode(FileType.DIRECTORY, 0o750))
    assert inode.is_dir and not inode.is_regular and not inode.is_symlink
    assert inode.perms == 0o750
    assert inode.ftype == FileType.DIRECTORY


def test_pack_unpack_roundtrip():
    inode = OnDiskInode(
        mode=make_mode(FileType.REGULAR, 0o644),
        uid=1000,
        gid=1000,
        nlink=2,
        size=123456,
        atime=1,
        mtime=2,
        ctime=3,
        generation=9,
    )
    inode.direct[0] = 77
    inode.direct[11] = 88
    inode.indirect = 99
    inode.double_indirect = 100
    restored = OnDiskInode.unpack(inode.pack())
    assert restored == inode
    assert len(inode.pack()) == INODE_SIZE


def test_zero_slot_is_free():
    inode = OnDiskInode.unpack(b"\x00" * INODE_SIZE)
    assert inode.is_free
    assert inode.ftype == FileType.NONE


def test_checksum_detects_corruption():
    raw = bytearray(OnDiskInode(mode=make_mode(FileType.REGULAR), nlink=1).pack())
    raw[8] ^= 0x40
    with pytest.raises(ValueError, match="checksum"):
        OnDiskInode.unpack(bytes(raw))
    OnDiskInode.unpack(bytes(raw), verify=False)  # tolerated when asked


def test_block_count_rounding():
    inode = OnDiskInode(size=1)
    assert inode.block_count() == 1
    inode.size = BLOCK_SIZE
    assert inode.block_count() == 1
    inode.size = BLOCK_SIZE + 1
    assert inode.block_count() == 2
    inode.size = 0
    assert inode.block_count() == 0


def test_max_file_size_formula():
    assert MAX_FILE_SIZE == (N_DIRECT + PTRS_PER_BLOCK + PTRS_PER_BLOCK**2) * BLOCK_SIZE


def test_copy_is_deep_for_direct():
    inode = OnDiskInode()
    clone = inode.copy()
    clone.direct[0] = 5
    assert inode.direct[0] == 0


def test_direct_and_indirect_roots():
    inode = OnDiskInode()
    inode.direct[3] = 10
    inode.indirect = 20
    assert inode.direct_and_indirect_roots() == [10, 20]
    inode.double_indirect = 30
    assert 30 in inode.direct_and_indirect_roots()


def test_pack_rejects_wrong_pointer_count():
    inode = OnDiskInode()
    inode.direct = [0] * 5
    with pytest.raises(ValueError):
        inode.pack()


def test_invalid_type_bits_map_to_none():
    inode = OnDiskInode(mode=(9 << 12))
    assert inode.ftype == FileType.NONE


# ---- read_slot / unpack against the body unpack had ------------------------


def _random_inode(rng: random.Random) -> OnDiskInode:
    inode = OnDiskInode(
        mode=make_mode(rng.choice(list(FileType)), rng.randrange(0o10000)),
        uid=rng.randrange(1 << 32),
        gid=rng.randrange(1 << 32),
        nlink=rng.randrange(1 << 17),
        flags=rng.randrange(4),
        size=rng.randrange(MAX_FILE_SIZE * 2),
        atime=rng.randrange(1 << 40),
        mtime=rng.randrange(1 << 40),
        ctime=rng.randrange(1 << 40),
        generation=rng.randrange(1 << 32),
        indirect=rng.randrange(1 << 20),
        double_indirect=rng.randrange(1 << 20),
    )
    inode.direct = [rng.randrange(1 << 20) if rng.random() < 0.5 else 0 for _ in range(N_DIRECT)]
    return inode


def test_unpack_and_read_slot_match_reference_on_random_slots():
    rng = random.Random(2323)
    refused = 0
    for _round in range(300):
        inode = _random_inode(rng)
        slot = inode.pack()
        assert OnDiskInode.unpack(slot) == reference_unpack(slot) == inode
        fields = read_slot(slot)
        assert (fields[SLOT_MODE], fields[SLOT_NLINK], fields[SLOT_SIZE]) == (inode.mode, inode.nlink, inode.size)
        assert mode_type(fields[SLOT_MODE]) == inode.ftype
        damaged = bytearray(slot)
        for _flip in range(rng.randrange(1, 3)):
            damaged[rng.randrange(INODE_SIZE)] ^= 1 << rng.randrange(8)
        for verify in (True, False):
            got = outcome(OnDiskInode.unpack, bytes(damaged), verify=verify)
            assert got == outcome(reference_unpack, bytes(damaged), verify=verify)
            refused += isinstance(got, str)
    assert refused > 100


def test_read_slot_reads_a_table_block_in_place():
    rng = random.Random(7)
    inodes = [_random_inode(rng) if rng.random() < 0.6 else OnDiskInode() for _ in range(BLOCK_SIZE // INODE_SIZE)]
    block = b"".join(inode.pack() if not inode.is_free else bytes(INODE_SIZE) for inode in inodes)
    for view in (block, bytearray(block), memoryview(block)):
        for index, inode in enumerate(inodes):
            offset = index * INODE_SIZE
            fields = read_slot(view, offset)
            assert (fields is None) == inode.is_free
            assert OnDiskInode.unpack(block[offset : offset + INODE_SIZE]) == inode
            if fields is not None:
                assert fields == read_slot(block[offset : offset + INODE_SIZE])


def test_the_named_slot_shapes_match_reference():
    live = OnDiskInode(mode=make_mode(FileType.REGULAR), nlink=1).pack()
    stale = bytearray(live)
    stale[8] ^= 0x40
    zero_mode = OnDiskInode(mode=0, nlink=3).pack()  # written, checksummed, mode 0: not the zero slot
    crc_only = bytes(112) + b"\x01\x00\x00\x00" + bytes(INODE_SIZE - 116)
    padding_only = bytes(116) + b"\x01" + bytes(INODE_SIZE - 117)  # zero within the format: still free
    for raw in (bytes(INODE_SIZE), live, bytes(stale), zero_mode, crc_only, padding_only, live[:116], live[:50], b""):
        for verify in (True, False):
            assert outcome(OnDiskInode.unpack, raw, verify=verify) == outcome(reference_unpack, raw, verify=verify)
    assert read_slot(bytes(INODE_SIZE)) is None and read_slot(padding_only) is None
    assert read_slot(zero_mode)[SLOT_NLINK] == 3
    with pytest.raises(ValueError, match="too short: 50 bytes"):
        read_slot(live[:50])
    with pytest.raises(ValueError, match="too short"):
        read_slot(live, offset=INODE_SIZE - 100)
