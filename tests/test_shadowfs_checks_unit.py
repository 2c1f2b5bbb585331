"""Unit tests for each of the shadow's runtime checks in isolation."""

import random

import pytest

from repro.errors import InvariantViolation
from repro.ondisk.directory import DirBlock
from repro.ondisk.inode import FileType, MAX_FILE_SIZE, OnDiskInode, make_mode
from repro.ondisk.layout import BLOCK_SIZE, DiskLayout
from repro.ondisk.superblock import Superblock
from repro.shadowfs.checks import CheckLevel, ShadowChecks
from tests.reference_ondisk import reference_entries


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

    def test_dir_lookup_builds_the_match_and_checks_the_whole_block(self, layout):
        block = DirBlock()
        block.insert(2, "x", FileType.REGULAR)
        block.insert(3, "y", FileType.DIRECTORY)
        block.insert(999999, "z", FileType.REGULAR)
        checks = basic(layout)
        with pytest.raises(InvariantViolation, match="entry 'z' points at inode 999999"):
            checks.dir_lookup(2, 200, block.to_block(), "x")  # found first, refused all the same
        block.remove("z")
        assert checks.dir_lookup(2, 200, block.to_block(), "y") == block.find("y")
        assert checks.dir_lookup(2, 200, block.to_block(), "absent") is None
        assert checks.stats.by_name == {"dir-block": 3} and checks.stats.failures == 1

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


# ---- one-name lookup against dir_block + linear search ----------------------


def reference_dir_block(checks: ShadowChecks, ino: int, block: int, raw: bytes):
    """``ShadowChecks.dir_block`` as it stood before the walkers: parse
    every live record into a DirEntry, then range-check the entries."""
    if checks.level < CheckLevel.BASIC:
        return reference_entries(raw)
    checks._ran("dir-block")
    try:
        entries = reference_entries(raw)
    except ValueError as exc:
        checks._fail("dir-block", f"directory {ino} block {block} is malformed: {exc}")
    for entry in entries:
        if not 1 <= entry.ino <= checks.layout.inode_count:
            checks._fail("dir-block", f"directory {ino} entry {entry.name!r} points at inode {entry.ino}")
    return entries


def reference_dir_lookup(checks: ShadowChecks, ino: int, block: int, raw: bytes, name: str):
    for entry in reference_dir_block(checks, ino, block, raw):
        if entry.name == name:
            return entry
    return None


def _outcome(checks: ShadowChecks, function, *args):
    """What the call gave — value or exception, with the check it names
    — and what it left in the check statistics."""
    try:
        result = function(*args)
    except (InvariantViolation, ValueError) as exc:
        result = (type(exc).__name__, str(exc), getattr(exc, "check", None))
    stats = checks.stats
    return result, stats.checks_run, stats.failures, dict(stats.by_name)


def _damaged_dir_blocks(rng: random.Random):
    """(block, names to ask for): random insert/remove histories, clean
    and with a few bits flipped where the record headers sit."""
    for _round in range(40):
        block = DirBlock()
        live = []
        for step in range(rng.randrange(1, 60)):
            if live and rng.random() < 0.35:
                block.remove(live.pop(rng.randrange(len(live))))
            else:
                name = rng.choice(["f", "файл", "longer-name-"]) + str(step)
                if block.insert(rng.randrange(1, 3000), name, rng.choice(list(FileType)[1:])):
                    live.append(name)
        names = live[:2] + live[-1:] + ["absent", ""]
        raw = block.to_block()
        yield raw, names
        for _variant in range(10):
            damaged = bytearray(raw)
            for _flip in range(rng.randrange(1, 3)):
                damaged[rng.randrange(rng.choice((16, 128, 1024)))] ^= 1 << rng.randrange(8)
            yield bytes(damaged), names


@pytest.mark.parametrize("level", [CheckLevel.FULL, CheckLevel.BASIC, CheckLevel.OFF])
def test_dir_lookup_and_dir_block_match_their_reference(layout, level):
    rng = random.Random(2323)
    refused = violations = 0
    for raw, names in _damaged_dir_blocks(rng):
        new, old = ShadowChecks(layout, level), ShadowChecks(layout, level)
        listed = _outcome(new, new.dir_block, 7, 300, raw)
        assert listed == _outcome(old, reference_dir_block, old, 7, 300, raw)
        for name in names:
            found = _outcome(new, new.dir_lookup, 7, 300, raw, name)
            assert found == _outcome(old, reference_dir_lookup, old, 7, 300, raw, name), name
        refused += isinstance(listed[0], tuple)
        violations += isinstance(listed[0], tuple) and listed[0][0] == "InvariantViolation"
        if level < CheckLevel.BASIC:
            assert new.stats.checks_run == 0
    assert refused > 50
    assert (violations == 0) if level < CheckLevel.BASIC else (violations == refused)
