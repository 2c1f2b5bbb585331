"""Logical-to-physical block mapping.

An inode maps logical file blocks to physical device blocks through 12
direct pointers, a single-indirect block, and a double-indirect block.

The indirect-block format is stated once, here: ``pointer_at`` reads one
pointer in place, ``with_pointer`` returns the block with one pointer
replaced, and ``unpack_pointers`` / ``pack_pointers`` are for the
callers that walk a whole block (truncate, fsck reachability,
validate-on-sync).  Every block map in the program — the base's, the
shadow's and fsck's — reads and writes pointers through these four.

``BlockMapReader`` is the shared resolver.  Reading the mapping requires
reads of the indirect blocks, so it takes a ``read_block`` callable: the
base passes its buffer cache's ``read``, fsck a read that also records
reachability, the scrubber and image tools the raw device read.  The
shadow keeps its own resolver, because it reports a corrupt mapping as
``InvariantViolation`` and an out-of-range block as ``EFBIG`` rather
than ``ValueError``, but it shares the pointer reader.

Writing the mapping (growing files) is policy-laden and lives in each
filesystem on top of ``with_pointer``.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterator

from repro.ondisk.inode import N_DIRECT, PTRS_PER_BLOCK, OnDiskInode
from repro.ondisk.layout import BLOCK_SIZE

ReadBlock = Callable[[int], bytes]

_POINTER = struct.Struct("<I")


def _check_size(block: bytes) -> None:
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"indirect block must be {BLOCK_SIZE} bytes, got {len(block)}")


def pointer_at(block: bytes, index: int) -> int:
    """Pointer ``index`` (0..1023) of an indirect block, read in place."""
    _check_size(block)
    return _POINTER.unpack_from(block, index * 4)[0]


def with_pointer(block: bytes, index: int, value: int) -> bytes:
    """A copy of an indirect block with pointer ``index`` set to ``value``."""
    _check_size(block)
    updated = bytearray(block)
    _POINTER.pack_into(updated, index * 4, value)
    return bytes(updated)


def unpack_pointers(block: bytes) -> list[int]:
    """Parse an indirect block into its 1024 u32 pointers."""
    _check_size(block)
    return list(struct.unpack(f"<{PTRS_PER_BLOCK}I", block))


def pack_pointers(pointers: list[int]) -> bytes:
    """Serialize 1024 u32 pointers into an indirect block."""
    if len(pointers) != PTRS_PER_BLOCK:
        raise ValueError(f"expected {PTRS_PER_BLOCK} pointers, got {len(pointers)}")
    return struct.pack(f"<{PTRS_PER_BLOCK}I", *pointers)


class BlockMapReader:
    """Resolve and enumerate an inode's block map, read-only."""

    def __init__(self, read_block: ReadBlock):
        self._read = read_block

    def resolve(self, inode: OnDiskInode, logical: int) -> int:
        """Physical block for logical block ``logical``; 0 means hole."""
        if logical < 0:
            raise ValueError(f"negative logical block {logical}")
        if logical < N_DIRECT:
            return inode.direct[logical]
        logical -= N_DIRECT
        if logical < PTRS_PER_BLOCK:
            if not inode.indirect:
                return 0
            return pointer_at(self._read(inode.indirect), logical)
        logical -= PTRS_PER_BLOCK
        if logical < PTRS_PER_BLOCK * PTRS_PER_BLOCK:
            if not inode.double_indirect:
                return 0
            outer_index, inner_index = divmod(logical, PTRS_PER_BLOCK)
            inner_block = pointer_at(self._read(inode.double_indirect), outer_index)
            if not inner_block:
                return 0
            return pointer_at(self._read(inner_block), inner_index)
        raise ValueError(f"logical block {logical + N_DIRECT + PTRS_PER_BLOCK} beyond maximum file size")

    def iter_data_blocks(self, inode: OnDiskInode) -> Iterator[tuple[int, int]]:
        """Yield ``(logical, physical)`` for every mapped (nonzero) block
        within the inode's size."""
        for logical in range(inode.block_count()):
            physical = self.resolve(inode, logical)
            if physical:
                yield logical, physical

    def all_referenced_blocks(self, inode: OnDiskInode) -> list[int]:
        """Every physical block the inode references — data *and* the
        indirect blocks themselves.  fsck's reachability set."""
        blocks: list[int] = [b for b in inode.direct if b]
        if inode.indirect:
            blocks.append(inode.indirect)
            blocks.extend(b for b in unpack_pointers(self._read(inode.indirect)) if b)
        if inode.double_indirect:
            blocks.append(inode.double_indirect)
            outer = unpack_pointers(self._read(inode.double_indirect))
            for inner_block in outer:
                if inner_block:
                    blocks.append(inner_block)
                    blocks.extend(b for b in unpack_pointers(self._read(inner_block)) if b)
        return blocks

    def read_file_range(self, inode: OnDiskInode, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset``, zero-filling holes,
        truncating at EOF."""
        if offset < 0 or length < 0:
            raise ValueError("negative offset or length")
        if offset >= inode.size:
            return b""
        length = min(length, inode.size - offset)
        out = bytearray()
        while length > 0:
            logical, within = divmod(offset, BLOCK_SIZE)
            take = min(BLOCK_SIZE - within, length)
            physical = self.resolve(inode, logical)
            if physical:
                out += self._read(physical)[within : within + take]
            else:
                out += b"\x00" * take
            offset += take
            length -= take
        return bytes(out)
