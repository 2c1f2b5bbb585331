"""Tests for repro.ondisk.journal."""

import pytest

from repro.blockdev.device import MemoryBlockDevice
from repro.ondisk.journal import (
    MAX_TAGS,
    JournalWriter,
    replay_journal,
    reset_journal,
)
from repro.ondisk.layout import BLOCK_SIZE, DiskLayout


def make(track_durability=False):
    device = MemoryBlockDevice(block_count=2048, track_durability=track_durability)
    layout = DiskLayout(block_count=2048, blocks_per_group=1024, journal_blocks=64)
    reset_journal(device, layout)
    if track_durability:
        device.flush()
    return device, layout


def data_block(tag: int) -> bytes:
    return bytes([tag]) * BLOCK_SIZE


def test_empty_journal_replays_nothing():
    device, layout = make()
    assert replay_journal(device, layout) == []


def test_append_and_replay_applies_writes():
    device, layout = make()
    writer = JournalWriter(device, layout)
    target = layout.data_start(0) + 3
    writer.append({target: data_block(7)})
    # Home location untouched until replay applies it.
    txns = replay_journal(device, layout, apply=True)
    assert len(txns) == 1 and txns[0].seq == 1
    assert device.read_block(target) == data_block(7)


def test_replay_without_apply_leaves_device():
    device, layout = make()
    writer = JournalWriter(device, layout)
    target = layout.data_start(0)
    writer.append({target: data_block(9)})
    txns = replay_journal(device, layout, apply=False)
    assert txns[0].writes == {target: data_block(9)}
    assert device.read_block(target) == b"\x00" * BLOCK_SIZE


def test_multiple_transactions_sequence():
    device, layout = make()
    writer = JournalWriter(device, layout)
    base = layout.data_start(0)
    for i in range(3):
        writer.append({base + i: data_block(i + 1)})
    txns = replay_journal(device, layout)
    assert [t.seq for t in txns] == [1, 2, 3]


def test_torn_commit_yields_prefix():
    device, layout = make()
    writer = JournalWriter(device, layout)
    base = layout.data_start(0)
    writer.append({base: data_block(1)})
    writer.append({base + 1: data_block(2)})
    # Corrupt the second transaction's commit block (last written block
    # of the region so far): descriptor at +1.. txn1 occupies 3 blocks.
    commit_block = layout.journal_start + 1 + 3 + 2  # jsb | d,b,c | d,b -> commit
    raw = bytearray(device.read_block(commit_block))
    raw[0] ^= 0xFF
    device.write_block(commit_block, bytes(raw))
    txns = replay_journal(device, layout)
    assert [t.seq for t in txns] == [1]
    # The torn transaction's home block must not have been applied.
    assert device.read_block(base + 1) == b"\x00" * BLOCK_SIZE


def test_data_crc_mismatch_rejects_txn():
    device, layout = make()
    writer = JournalWriter(device, layout)
    base = layout.data_start(0)
    writer.append({base: data_block(5)})
    # Corrupt the journaled data copy.
    journaled_data = layout.journal_start + 2
    raw = bytearray(device.read_block(journaled_data))
    raw[100] ^= 0x01
    device.write_block(journaled_data, bytes(raw))
    assert replay_journal(device, layout) == []


def test_reset_bumps_sequence_and_forgets():
    device, layout = make()
    writer = JournalWriter(device, layout)
    base = layout.data_start(0)
    writer.append({base: data_block(1)})
    writer.reset()
    assert replay_journal(device, layout) == []  # old txn unreachable
    writer.append({base + 1: data_block(2)})
    txns = replay_journal(device, layout)
    assert [t.seq for t in txns] == [2]


def test_capacity_accounting():
    device, layout = make()
    writer = JournalWriter(device, layout)
    assert writer.free_blocks == layout.journal_blocks - 1
    assert writer.blocks_needed(5) == 7
    assert writer.can_fit(writer.free_blocks - 2)
    assert not writer.can_fit(writer.free_blocks - 1)


def test_append_validates_input():
    device, layout = make()
    writer = JournalWriter(device, layout)
    with pytest.raises(ValueError):
        writer.append({})
    with pytest.raises(ValueError):
        writer.append({layout.data_start(0): b"short"})
    with pytest.raises(ValueError):
        writer.append({layout.journal_start + 1: data_block(1)})  # inside journal
    with pytest.raises(ValueError):
        writer.blocks_needed(MAX_TAGS + 1)


def test_overflow_requires_reset():
    device, layout = make()
    writer = JournalWriter(device, layout)
    base = layout.data_start(0)
    per_txn = 20
    while writer.can_fit(per_txn):
        writer.append({base + i: data_block(1) for i in range(per_txn)})
    with pytest.raises(ValueError, match="does not fit"):
        writer.append({base + i: data_block(2) for i in range(per_txn)})


def test_crash_before_commit_flush_is_atomic():
    """With a durability-tracked device, a crash right after append+flush
    still replays the full transaction (the commit path flushes)."""
    device, layout = make(track_durability=True)
    writer = JournalWriter(device, layout)
    base = layout.data_start(0)
    writer.append({base: data_block(3)})  # append() flushes internally
    device.crash()
    txns = replay_journal(device, layout)
    assert [t.seq for t in txns] == [1]
    assert device.read_block(base) == data_block(3)


def test_journal_superblock_checksum_guard():
    device, layout = make()
    raw = bytearray(device.read_block(layout.journal_start))
    raw[4] ^= 0xFF
    device.write_block(layout.journal_start, bytes(raw))
    with pytest.raises(ValueError):
        replay_journal(device, layout)


def test_multi_block_commit_record_is_the_one_the_concatenating_crc_wrote():
    """The data CRC is chained through ``zlib.crc32``'s running value;
    the bytes on the journal are those of the formula that concatenated
    the 4-byte running CRC and each 4 KiB block."""
    import random
    import struct
    import zlib

    rng = random.Random(2323)
    device, layout = make()
    writer = JournalWriter(device, layout)
    base = layout.data_start(0)
    cursor = layout.journal_start + 1
    for seq, nblocks in enumerate((1, 2, 7, 23), start=1):
        writes = {base + offset: rng.randbytes(BLOCK_SIZE) for offset in rng.sample(range(500), nblocks)}
        writer.append(writes)
        data_crc = 0
        for index, block in enumerate(sorted(writes)):
            assert device.read_block(cursor + 1 + index) == writes[block]
            data_crc = zlib.crc32(struct.pack("<I", data_crc) + writes[block]) & 0xFFFFFFFF
        commit = struct.pack("<IIQI", 0x10DE_10AD, 2, seq, data_crc)
        commit += struct.pack("<I", zlib.crc32(commit) & 0xFFFFFFFF)
        assert device.read_block(cursor + 1 + len(writes)) == commit + bytes(BLOCK_SIZE - len(commit))
        cursor += len(writes) + 2
    # ... and replay, which chains the same way, accepts all of them.
    assert [len(txn.writes) for txn in replay_journal(device, layout, apply=False)] == [1, 2, 7, 23]
