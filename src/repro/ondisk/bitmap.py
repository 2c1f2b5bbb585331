"""Allocation bitmaps.

One :class:`Bitmap` covers one block group's blocks or inodes; it
serializes to exactly one device block (the layout guarantees a group's
bitmap fits).  Bit ``i`` set means "allocated".

The class is used by mkfs (to pre-mark metadata), by the base's allocators,
by the shadow (read-only consistency checks and autonomous-mode
allocation), and by fsck (to rebuild expected bitmaps).  It is therefore
strictly mechanical — no allocation *policy* lives here.
"""

from __future__ import annotations

from repro.ondisk.layout import BLOCK_SIZE


def bit_in_block(block: bytes, nbits: int, bit: int) -> bool:
    """Bit ``bit`` of a serialized bitmap block, read in place — for
    readers that want one bit and would otherwise copy the whole block
    into a :class:`Bitmap` to ask for it."""
    if not 0 <= bit < nbits:
        raise ValueError(f"bit {bit} out of range [0, {nbits})")
    return bool(block[bit >> 3] & (1 << (bit & 7)))


def _block_value(block: bytes, nbits: int) -> int:
    """The first ``nbits`` bits of a serialized bitmap block as one
    integer (bit ``i`` of the map is bit ``i`` of the value)."""
    return int.from_bytes(block[: (nbits + 7) >> 3], "little") & ((1 << nbits) - 1)


def first_clear_in_block(block: bytes, nbits: int) -> int | None:
    """The lowest clear bit of a serialized bitmap block, or None if all
    ``nbits`` are set — ``Bitmap.find_free(start=0)`` read in place."""
    free = _block_value(block, nbits) ^ ((1 << nbits) - 1)
    # x & -x isolates the lowest set bit of x.
    return (free & -free).bit_length() - 1 if free else None


def count_set_in_block(block: bytes, nbits: int) -> int:
    """How many of the first ``nbits`` bits of a serialized bitmap block
    are set, read in place."""
    return _block_value(block, nbits).bit_count()


def with_bit(block: bytes, nbits: int, bit: int, value: bool) -> bytes:
    """A copy of a serialized bitmap block with ``bit`` set or cleared."""
    if not 0 <= bit < nbits:
        raise ValueError(f"bit {bit} out of range [0, {nbits})")
    updated = bytearray(block)
    if value:
        updated[bit >> 3] |= 1 << (bit & 7)
    else:
        updated[bit >> 3] &= ~(1 << (bit & 7)) & 0xFF
    return bytes(updated)


class Bitmap:
    """A fixed-size bit vector with find-free support.

    ``nbits`` is the logical size; bits beyond it exist in the serialized
    block but are treated as allocated so they can never be handed out.
    """

    def __init__(self, nbits: int, data: bytes | None = None):
        if not 0 < nbits <= BLOCK_SIZE * 8:
            raise ValueError(f"nbits {nbits} does not fit one block")
        self.nbits = nbits
        if data is None:
            self._bytes = bytearray(BLOCK_SIZE)
        else:
            if len(data) != BLOCK_SIZE:
                raise ValueError(f"bitmap block must be {BLOCK_SIZE} bytes, got {len(data)}")
            self._bytes = bytearray(data)

    @classmethod
    def from_block(cls, nbits: int, block: bytes) -> "Bitmap":
        return cls(nbits, data=block)

    def to_block(self) -> bytes:
        return bytes(self._bytes)

    def _check(self, bit: int) -> None:
        if not 0 <= bit < self.nbits:
            raise ValueError(f"bit {bit} out of range [0, {self.nbits})")

    def test(self, bit: int) -> bool:
        return bit_in_block(self._bytes, self.nbits, bit)

    def set(self, bit: int) -> None:
        self._check(bit)
        self._bytes[bit >> 3] |= 1 << (bit & 7)

    def clear(self, bit: int) -> None:
        self._check(bit)
        self._bytes[bit >> 3] &= ~(1 << (bit & 7)) & 0xFF

    def find_free(self, start: int = 0) -> int | None:
        """First clear bit at or after ``start`` (wrapping), or None if full.

        The wrap-around search is what the base's locality-seeking allocator
        relies on: it passes a goal bit and takes the nearest free one.
        """
        start %= self.nbits
        free = _block_value(self._bytes, self.nbits) ^ ((1 << self.nbits) - 1)
        # x & -x isolates the lowest set bit of x.
        ahead = free >> start
        if ahead:
            return start + (ahead & -ahead).bit_length() - 1
        if free:
            return (free & -free).bit_length() - 1
        return None

    def find_free_run(self, length: int, start: int = 0) -> int | None:
        """First position (>= start, no wrap) of ``length`` clear bits."""
        if length <= 0:
            raise ValueError("length must be positive")
        run = 0
        for bit in range(start, self.nbits):
            if self.test(bit):
                run = 0
            else:
                run += 1
                if run == length:
                    return bit - length + 1
        return None

    def count_set(self) -> int:
        return count_set_in_block(self._bytes, self.nbits)

    def count_free(self) -> int:
        return self.nbits - self.count_set()

    def set_bits(self) -> list[int]:
        """All set bit positions (used by fsck and equivalence checks)."""
        return [bit for bit in range(self.nbits) if self.test(bit)]

    def copy(self) -> "Bitmap":
        return Bitmap(self.nbits, data=bytes(self._bytes))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self.nbits == other.nbits and self.set_bits() == other.set_bits()

    def __repr__(self) -> str:
        return f"Bitmap(nbits={self.nbits}, set={self.count_set()})"
