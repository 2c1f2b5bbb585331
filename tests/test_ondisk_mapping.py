"""Tests for repro.ondisk.mapping."""

import random
import struct

import pytest

from repro.blockdev.device import MemoryBlockDevice
from repro.ondisk.inode import N_DIRECT, OnDiskInode, PTRS_PER_BLOCK
from repro.ondisk.layout import BLOCK_SIZE
from repro.ondisk.mapping import BlockMapReader, pack_pointers, pointer_at, unpack_pointers, with_pointer
from tests.reference_ondisk import outcome, reference_pointer_at, reference_with_pointer


@pytest.fixture
def device():
    return MemoryBlockDevice(block_count=4096)


def reader(device):
    return BlockMapReader(device.read_block)


def test_pointer_pack_roundtrip():
    pointers = [0] * PTRS_PER_BLOCK
    pointers[0], pointers[1023] = 42, 99
    assert unpack_pointers(pack_pointers(pointers)) == pointers


def test_pack_validates_length():
    with pytest.raises(ValueError):
        pack_pointers([1, 2, 3])
    with pytest.raises(ValueError):
        unpack_pointers(b"short")


def _random_block(rng: random.Random) -> bytes:
    """Pointers of every width, holes included."""
    return struct.pack(
        f"<{PTRS_PER_BLOCK}I",
        *(rng.choice([0, rng.randrange(1, 1 << 16), rng.randrange(1 << 32)]) for _ in range(PTRS_PER_BLOCK)),
    )


@pytest.mark.parametrize("seed", range(8))
def test_one_pointer_access_matches_the_whole_block_reference(seed):
    rng = random.Random(seed)
    block = _random_block(rng)
    for index in [0, PTRS_PER_BLOCK - 1] + [rng.randrange(PTRS_PER_BLOCK) for _ in range(16)]:
        assert pointer_at(block, index) == reference_pointer_at(block, index) == unpack_pointers(block)[index]
        value = rng.choice([0, rng.randrange(1 << 32)])
        updated = with_pointer(block, index, value)
        assert type(updated) is bytes
        assert updated == reference_with_pointer(block, index, value)
        assert pointer_at(updated, index) == value
    # Any bytes-like view of the block reads and rewrites the same.
    for view in (bytearray(block), memoryview(block)):
        assert pointer_at(view, PTRS_PER_BLOCK - 1) == reference_pointer_at(block, PTRS_PER_BLOCK - 1)
        assert with_pointer(view, 0, 7) == reference_with_pointer(block, 0, 7)


@pytest.mark.parametrize("size", [0, 4, BLOCK_SIZE - 1, BLOCK_SIZE + 4])
@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_wrong_sized_indirect_block_is_a_value_error(size, kind):
    # ReplayEngine.run turns ValueError (not struct.error, which would
    # escape outcome()) into a RecoveryFailure, so a short read must
    # surface as one, worded as the whole-block parser words it.
    block = kind(bytes(size))
    expected = outcome(reference_pointer_at, block, 0)
    assert expected.startswith("ValueError: ")
    assert outcome(pointer_at, block, 0) == expected
    assert outcome(with_pointer, block, 0, 1) == outcome(reference_with_pointer, block, 0, 1) == expected


def test_resolve_direct(device):
    inode = OnDiskInode()
    inode.direct[4] = 123
    assert reader(device).resolve(inode, 4) == 123
    assert reader(device).resolve(inode, 5) == 0  # hole


def test_resolve_single_indirect(device):
    inode = OnDiskInode()
    pointers = [0] * PTRS_PER_BLOCK
    pointers[7] = 555
    device.write_block(100, pack_pointers(pointers))
    inode.indirect = 100
    assert reader(device).resolve(inode, N_DIRECT + 7) == 555
    assert reader(device).resolve(inode, N_DIRECT + 8) == 0


def test_resolve_double_indirect(device):
    inode = OnDiskInode()
    inner = [0] * PTRS_PER_BLOCK
    inner[3] = 777
    device.write_block(200, pack_pointers(inner))
    outer = [0] * PTRS_PER_BLOCK
    outer[2] = 200
    device.write_block(201, pack_pointers(outer))
    inode.double_indirect = 201
    logical = N_DIRECT + PTRS_PER_BLOCK + 2 * PTRS_PER_BLOCK + 3
    assert reader(device).resolve(inode, logical) == 777


def test_resolve_missing_indirect_is_hole(device):
    inode = OnDiskInode()
    assert reader(device).resolve(inode, N_DIRECT) == 0
    assert reader(device).resolve(inode, N_DIRECT + PTRS_PER_BLOCK) == 0


def test_resolve_bounds(device):
    inode = OnDiskInode()
    with pytest.raises(ValueError):
        reader(device).resolve(inode, -1)
    with pytest.raises(ValueError):
        reader(device).resolve(inode, N_DIRECT + PTRS_PER_BLOCK + PTRS_PER_BLOCK**2)


def test_iter_data_blocks_respects_size(device):
    inode = OnDiskInode(size=3 * BLOCK_SIZE)
    inode.direct[0], inode.direct[2] = 10, 30  # logical 1 is a hole
    assert list(reader(device).iter_data_blocks(inode)) == [(0, 10), (2, 30)]


def test_all_referenced_blocks_includes_pointer_blocks(device):
    inode = OnDiskInode()
    inode.direct[0] = 9
    pointers = [0] * PTRS_PER_BLOCK
    pointers[0] = 11
    device.write_block(10, pack_pointers(pointers))
    inode.indirect = 10
    assert sorted(reader(device).all_referenced_blocks(inode)) == [9, 10, 11]


def test_read_file_range_with_holes(device):
    inode = OnDiskInode(size=2 * BLOCK_SIZE + 100)
    device.write_block(50, b"A" * BLOCK_SIZE)
    inode.direct[0] = 50  # logical 1 hole, logical 2 mapped
    device.write_block(51, b"B" * BLOCK_SIZE)
    inode.direct[2] = 51
    r = reader(device)
    assert r.read_file_range(inode, 0, 4) == b"AAAA"
    assert r.read_file_range(inode, BLOCK_SIZE - 2, 4) == b"AA\x00\x00"
    assert r.read_file_range(inode, 2 * BLOCK_SIZE, 200) == b"B" * 100  # clamped at size
    assert r.read_file_range(inode, inode.size + 5, 10) == b""
    with pytest.raises(ValueError):
        r.read_file_range(inode, -1, 4)
