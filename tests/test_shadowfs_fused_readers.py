"""The shadow's one-pass readers against the two-pass bodies they replaced.

``walk_entries`` validates a directory block's chain, names and types in
one pass, and ``ShadowFilesystem._iget`` reads, checks and decodes an
inode slot in place.  Each must give what its reference in
``tests/reference_ondisk.py`` gives on valid and malformed input alike:
the same records or inode, the same first error (type and text), the
same ``InvariantViolation.check``, and the same check counts.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.api import OpenFlags
from repro.basefs.filesystem import BaseFilesystem
from repro.errors import InvariantViolation
from repro.ondisk.directory import DirBlock, walk_entries, walk_records
from repro.ondisk.inode import MAX_FILE_SIZE, N_DIRECT, FileType
from repro.ondisk.layout import BLOCK_SIZE, INODE_SIZE
from repro.shadowfs.checks import CheckLevel
from repro.shadowfs.filesystem import ShadowFilesystem
from repro.util import checksum32
from tests.conftest import formatted_device
from tests.reference_ondisk import outcome, reference_iget, reference_walk_entries

# ---- directory blocks --------------------------------------------------------


def _random_block(rng: random.Random) -> bytes:
    block = DirBlock()
    live: list[str] = []
    for step in range(rng.randrange(1, 50)):
        if live and rng.random() < 0.3:
            block.remove(live.pop(rng.randrange(len(live))))
            continue
        name = f"{'é' if rng.random() < 0.2 else 'n'}{step}-" + "x" * rng.randrange(0, 40)
        if block.insert(rng.randrange(1, 5000), name, rng.choice(list(FileType))):
            live.append(name)
    return block.to_block()


def _damaged(rng: random.Random, raw: bytes) -> bytes:
    damaged = bytearray(raw)
    offsets = [record[0] for record in walk_records(raw)]
    for _flip in range(rng.randrange(1, 4)):
        at = rng.choice(offsets) + rng.randrange(12)  # a header or the name right after it
        damaged[min(at, BLOCK_SIZE - 1)] ^= 1 << rng.randrange(8)
    return bytes(damaged)


def test_walk_entries_matches_the_two_pass_walk_on_seeded_blocks():
    rng = random.Random(3939)
    refused = set()
    for _round in range(80):
        raw = _random_block(rng)
        assert walk_entries(raw) == reference_walk_entries(raw)
        for _variant in range(10):
            damaged = _damaged(rng, raw)
            one_pass, two_pass = outcome(walk_entries, damaged), outcome(reference_walk_entries, damaged)
            assert one_pass == two_pass
            if isinstance(one_pass, str):
                refused.add(one_pass.split(":")[0])
    # The damage reached the chain rules, the name rules and the type rule.
    assert {"ValueError", "UnicodeDecodeError"} <= refused


@pytest.mark.parametrize(
    "name_damage",
    [
        lambda raw, at: raw.__setitem__(at + 8, 0xFF),  # name not UTF-8
        lambda raw, at: raw.__setitem__(at + 7, 9),  # unknown file type
        lambda raw, at: raw.__setitem__(at + 6, 0),  # empty name
    ],
)
def test_a_chain_error_after_a_name_error_is_the_one_raised(name_damage):
    """The one pass holds a name or type error until the chain is walked:
    a broken record further on must still be what the walk reports."""
    block = DirBlock()
    for ino, name in enumerate(("first", "second", "third"), start=1):
        block.insert(ino, name, FileType.REGULAR)
    offsets = [record[0] for record in walk_records(block.to_block())]
    raw = bytearray(block.to_block())
    name_damage(raw, offsets[0])
    held = outcome(walk_entries, bytes(raw))
    assert held == outcome(reference_walk_entries, bytes(raw)) and isinstance(held, str)
    raw[offsets[2] + 4 : offsets[2] + 6] = (14).to_bytes(2, "little")  # unaligned rec_len
    first = outcome(walk_entries, bytes(raw))
    assert first == outcome(reference_walk_entries, bytes(raw))
    assert "unaligned rec_len" in first


# ---- inode slots ---------------------------------------------------------------

_FORMAT = "<IIIIIQQQQI" + "I" * N_DIRECT + "III"
_SIZE = struct.calcsize(_FORMAT)
_MODE, _NLINK, _SIZE_FIELD, _POINTERS = 0, 3, 5, 10


def _slot(fields: list[int], crc_ok: bool = True) -> bytes:
    body = struct.pack(_FORMAT, *fields[:-1], 0)[:-4]
    crc = checksum32(body) ^ (0 if crc_ok else 1)
    return body + struct.pack("<I", crc) + bytes(INODE_SIZE - _SIZE)


@pytest.fixture(scope="module")
def image() -> tuple[bytes, list[int]]:
    """A committed, cleanly unmounted image with files, a directory and a
    symlink, so the seeded slots start from every live type; and the
    inode numbers of everything on it."""
    device = formatted_device()
    fs = BaseFilesystem(device)
    fs.mkdir("/d", opseq=1)
    paths = ["/", "/d", "/s"]
    for index in range(6):
        path = f"/d/f{index}"
        fd = fs.open(path, OpenFlags.CREAT, opseq=2 + index)
        fs.write(fd, b"x" * (index * 3000 + 1), opseq=10 + index)
        fs.close(fd, opseq=20 + index)
        paths.append(path)
    fs.symlink("/d/f0", "/s", opseq=30)
    inos = [fs.lstat(path).ino for path in paths]
    fs.unmount()
    return device.snapshot(), inos


def _shadow(image: tuple[bytes, list[int]], level: CheckLevel) -> ShadowFilesystem:
    device = formatted_device()
    device.restore(image[0])
    return ShadowFilesystem(device, check_level=level)


def _slot_location(shadow: ShadowFilesystem, ino: int) -> tuple[int, int]:
    per_block = BLOCK_SIZE // INODE_SIZE
    group, index = divmod(ino - 1, shadow.layout.inodes_per_group)
    meta = 1 + shadow.layout.journal_blocks if group == 0 else group * shadow.layout.blocks_per_group
    return meta + 2 + index // per_block, (index % per_block) * INODE_SIZE


def _put(shadow: ShadowFilesystem, ino: int, slot: bytes) -> None:
    block, offset = _slot_location(shadow, ino)
    raw = bytearray(shadow._read_block(block))
    raw[offset : offset + INODE_SIZE] = slot
    shadow.overlay.write(block, bytes(raw), role="itable")


def _clear_bitmap_bit(shadow: ShadowFilesystem, ino: int) -> None:
    group, index = divmod(ino - 1, shadow.layout.inodes_per_group)
    block = shadow.layout.inode_bitmap_block(group)
    raw = bytearray(shadow._read_block(block))
    raw[index // 8] &= ~(1 << (index % 8)) & 0xFF
    shadow.overlay.write(block, bytes(raw), role="bitmap")


def _mutations(rng: random.Random, fields: list[int], layout) -> list[tuple[str, list[int], bool]]:
    """``(what, fields, checksum ok)`` per seeded damage of one live slot."""

    def with_(index: int, value: int) -> list[int]:
        changed = list(fields)
        changed[index] = value
        return changed

    metadata_block = layout.inode_table_start(rng.randrange(layout.group_count))
    pointer = _POINTERS + rng.randrange(N_DIRECT + 2)
    return [
        ("valid", list(fields), True),
        ("checksum", list(fields), False),
        ("zeroed, stale checksum", [0] * len(fields), False),
        ("free mode", with_(_MODE, 0), True),
        ("bad type", with_(_MODE, (rng.choice((0, 4, 9, 15)) << 12) | 0o644), True),
        ("directory", with_(_MODE, (int(FileType.DIRECTORY) << 12) | 0o755), True),
        ("symlink", with_(_MODE, (int(FileType.SYMLINK) << 12) | 0o777), True),
        ("oversize", with_(_SIZE_FIELD, MAX_FILE_SIZE + rng.randrange(1, 9)), True),
        ("odd size", with_(_SIZE_FIELD, rng.randrange(BLOCK_SIZE * 3)), True),
        ("zero links", with_(_NLINK, 0), True),
        ("many links", with_(_NLINK, 65536 + rng.randrange(100)), True),
        ("far pointer", with_(pointer, layout.block_count + rng.randrange(1000)), True),
        ("metadata pointer", with_(pointer, metadata_block), True),
        ("superblock pointer", with_(pointer, rng.randrange(1, layout.journal_blocks + 1)), True),
        ("data pointer", with_(pointer, layout.data_start(rng.randrange(layout.group_count)) + 5), True),
    ]


def _result(shadow: ShadowFilesystem, read, *args):
    """What one read gave — the inode (``_iget`` wraps it in a ``Ref``),
    or the error with the check it names — and the counts it left."""
    try:
        value = read(*args)
        result = ("inode", value.inode if hasattr(value, "inode") else value)
    except (InvariantViolation, ValueError) as exc:
        result = (type(exc).__name__, str(exc), getattr(exc, "check", None))
    stats = shadow.checks.stats
    return result, stats.failures, dict(stats.by_name)


@pytest.mark.parametrize("level", list(CheckLevel), ids=lambda level: level.name)
def test_iget_matches_the_two_pass_read_on_seeded_slots(image, level):
    rng = random.Random(4242 + int(level))
    probe = _shadow(image, level)
    refused = set()
    for _round in range(12):
        ino = rng.choice(image[1])
        block, offset = _slot_location(probe, ino)
        fields = list(struct.unpack_from(_FORMAT, probe._read_block(block), offset))
        for what, changed, crc_ok in _mutations(rng, fields, probe.layout):
            for allow_orphan in (False, True):
                one, two = _shadow(image, level), _shadow(image, level)
                for shadow in (one, two):
                    _put(shadow, ino, _slot(changed, crc_ok))
                fused = _result(one, one._iget, ino, allow_orphan)
                reference = _result(two, reference_iget, two, ino, allow_orphan, int(level))
                assert fused == reference, (what, ino, allow_orphan)
                if fused[0][0] != "inode":
                    refused.add(fused[0][2] or fused[0][0])
    # The seeded damage reached the decoder and, with checks on, each check.
    assert refused == ({"ValueError", "inode", "block-pointer"} if level >= CheckLevel.BASIC else {"ValueError"})


@pytest.mark.parametrize("level", list(CheckLevel), ids=lambda level: level.name)
def test_iget_matches_the_two_pass_read_on_free_unallocated_and_out_of_range_inodes(image, level):
    probe = _shadow(image, level)
    for ino, damage in [
        (2, lambda shadow: _clear_bitmap_bit(shadow, 2)),
        (3, lambda shadow: _clear_bitmap_bit(shadow, 3)),
        (200, lambda shadow: None),  # a never-used slot
        (0, lambda shadow: None),
        (probe.layout.inode_count + 1, lambda shadow: None),
    ]:
        one, two = _shadow(image, level), _shadow(image, level)
        for shadow in (one, two):
            damage(shadow)
        assert _result(one, one._iget, ino) == _result(two, reference_iget, two, ino, False, int(level)), ino
