"""Tests for repro.ondisk.bitmap."""

import random

import pytest

from repro.ondisk.bitmap import Bitmap, bit_in_block
from repro.ondisk.layout import BLOCK_SIZE


def test_set_test_clear():
    bm = Bitmap(64)
    assert not bm.test(5)
    bm.set(5)
    assert bm.test(5)
    bm.clear(5)
    assert not bm.test(5)


def test_bounds_checked():
    bm = Bitmap(64)
    with pytest.raises(ValueError):
        bm.test(64)
    with pytest.raises(ValueError):
        bm.set(-1)
    with pytest.raises(ValueError):
        Bitmap(0)
    with pytest.raises(ValueError):
        Bitmap(BLOCK_SIZE * 8 + 1)


def test_find_free_wraps():
    bm = Bitmap(8)
    for bit in (0, 1, 2):
        bm.set(bit)
    assert bm.find_free(start=6) == 6
    bm = Bitmap(8)
    for bit in range(3, 8):
        bm.set(bit)
    assert bm.find_free(start=5) == 0  # wrapped


def test_find_free_full():
    bm = Bitmap(4)
    for bit in range(4):
        bm.set(bit)
    assert bm.find_free() is None


def test_find_free_run():
    bm = Bitmap(16)
    bm.set(3)
    assert bm.find_free_run(3) == 0
    assert bm.find_free_run(4) == 4
    assert bm.find_free_run(13) is None
    with pytest.raises(ValueError):
        bm.find_free_run(0)


def test_counts():
    bm = Bitmap(100)
    for bit in range(0, 100, 3):
        bm.set(bit)
    assert bm.count_set() == 34
    assert bm.count_free() == 66
    assert bm.set_bits() == list(range(0, 100, 3))


def test_serialization_roundtrip():
    bm = Bitmap(777)
    for bit in (0, 1, 776, 400):
        bm.set(bit)
    restored = Bitmap.from_block(777, bm.to_block())
    assert restored == bm
    assert restored.set_bits() == [0, 1, 400, 776]


def test_block_size_enforced():
    with pytest.raises(ValueError):
        Bitmap(64, data=b"short")


def test_copy_independent():
    bm = Bitmap(8)
    bm.set(1)
    other = bm.copy()
    other.set(2)
    assert not bm.test(2)
    assert other.test(1)


def test_equality_requires_same_nbits():
    a, b = Bitmap(8), Bitmap(9)
    assert a != b


# ---- reference implementations -------------------------------------------
# The bit-at-a-time bodies find_free and count_set had before they became
# integer arithmetic; kept here as the oracle the fast ones must agree with.


def reference_find_free(bm: Bitmap, start: int = 0) -> int | None:
    start = start % bm.nbits
    for i in range(bm.nbits):
        bit = (start + i) % bm.nbits
        if not bm.test(bit):
            return bit
    return None


def reference_count_set(bm: Bitmap) -> int:
    raw = bm.to_block()
    total = 0
    full_bytes, rem = divmod(bm.nbits, 8)
    for i in range(full_bytes):
        total += raw[i].bit_count()
    for bit in range(full_bytes * 8, full_bytes * 8 + rem):
        if raw[bit >> 3] & (1 << (bit & 7)):
            total += 1
    return total


def _random_bitmaps():
    """Seeded bitmaps of awkward sizes and densities, each with the
    serialized bits beyond ``nbits`` set at random (they must never
    count, and never be handed out)."""
    rng = random.Random(1515)
    for nbits in (1, 7, 8, 9, 63, 64, 65, 100, 777, 1024, BLOCK_SIZE * 8 - 3, BLOCK_SIZE * 8):
        for density in (0.0, 0.03, 0.5, 0.97, 1.0):
            raw = bytearray(BLOCK_SIZE)
            for bit in range(nbits):
                if rng.random() < density:
                    raw[bit >> 3] |= 1 << (bit & 7)
            for bit in range(nbits, min(nbits + 40, BLOCK_SIZE * 8)):
                if rng.random() < 0.5:
                    raw[bit >> 3] |= 1 << (bit & 7)
            yield rng, Bitmap.from_block(nbits, bytes(raw))


def test_find_free_and_count_match_reference_on_random_bitmaps():
    for rng, bm in _random_bitmaps():
        assert bm.count_set() == reference_count_set(bm)
        starts = {0, 1, bm.nbits - 1, bm.nbits, bm.nbits + 1, 3 * bm.nbits + 2}
        starts.update(rng.randrange(0, 2 * bm.nbits + 1) for _ in range(12))
        for start in starts:
            assert bm.find_free(start) == reference_find_free(bm, start), (bm.nbits, start)


@pytest.mark.parametrize("nbits", [13, 16, 21])
def test_find_free_edge_shapes(nbits):
    # Full: nothing to find from any start, tail bits of the last byte clear.
    full = Bitmap(nbits)
    for bit in range(nbits):
        full.set(bit)
    assert full.find_free(0) is None and full.find_free(nbits - 1) is None
    assert full.find_free(nbits + 5) is None
    # Only bit 0 free: every start beyond it wraps onto it.
    only_zero = full.copy()
    only_zero.clear(0)
    for start in (0, 1, nbits - 1, nbits, nbits + 1):
        assert only_zero.find_free(start) == 0 == reference_find_free(only_zero, start)
    # A run of 0xFF bytes ending mid-byte: bits 0..10 set, 11 free.
    run = Bitmap(nbits)
    for bit in range(11):
        run.set(bit)
    assert run.find_free(0) == 11 == reference_find_free(run, 0)
    assert run.find_free(11) == 11 and run.find_free(12) == 12
    assert run.count_set() == 11 == reference_count_set(run)


def test_bit_in_block_is_test_without_the_copy():
    for rng, bm in _random_bitmaps():
        raw = bm.to_block()
        for bit in {0, bm.nbits - 1, *(rng.randrange(bm.nbits) for _ in range(16))}:
            assert bit_in_block(raw, bm.nbits, bit) is bm.test(bit)
        for bad in (-1, bm.nbits):
            with pytest.raises(ValueError) as fast:
                bit_in_block(raw, bm.nbits, bad)
            with pytest.raises(ValueError) as slow:
                bm.test(bad)
            assert str(fast.value) == str(slow.value)
