"""Tests for repro.ondisk.directory."""

import random

import pytest

from repro.ondisk.directory import MAX_NAME_LEN, DirBlock, DirEntry, entry_size, walk_entries, walk_records
from repro.ondisk.inode import FileType
from repro.ondisk.layout import BLOCK_SIZE
from tests.reference_ondisk import outcome, reference_entries, reference_records
from tests.reference_ondisk import reference_find as reference_find_as_stored


def test_fresh_block_is_empty():
    block = DirBlock()
    assert block.entries() == []
    assert block.is_empty()
    assert len(block.to_block()) == BLOCK_SIZE


def test_insert_find_remove():
    block = DirBlock()
    assert block.insert(10, "hello", FileType.REGULAR)
    entry = block.find("hello")
    assert entry is not None and entry.ino == 10 and entry.ftype == FileType.REGULAR
    assert block.remove("hello")
    assert block.find("hello") is None
    assert not block.remove("hello")


def test_insert_many_until_full():
    block = DirBlock()
    count = 0
    while block.insert(count + 1, f"file{count:04d}", FileType.REGULAR):
        count += 1
    # 8-byte header + 8-byte name rounded = 16 bytes per entry minimum,
    # so a 4096-byte block fits a couple hundred of these.
    assert count >= 200
    assert len(block.entries()) == count


def test_remove_first_entry_keeps_chain_valid():
    block = DirBlock()
    block.insert(1, "a", FileType.REGULAR)
    block.insert(2, "b", FileType.REGULAR)
    block.remove("a")
    assert [e.name for e in block.entries()] == ["b"]
    # space is reusable
    assert block.insert(3, "c", FileType.REGULAR)


def test_remove_middle_folds_into_previous():
    block = DirBlock()
    for i, name in enumerate(("x", "y", "z"), start=1):
        block.insert(i, name, FileType.REGULAR)
    block.remove("y")
    assert [e.name for e in block.entries()] == ["x", "z"]
    # the freed slack is reusable for a same-size name
    assert block.insert(9, "w", FileType.REGULAR)
    names = [e.name for e in block.entries()]
    assert "w" in names


def test_reinsert_after_remove_is_deterministic():
    a, b = DirBlock(), DirBlock()
    for block in (a, b):
        block.insert(1, "one", FileType.REGULAR)
        block.insert(2, "two", FileType.REGULAR)
        block.remove("one")
        block.insert(3, "three", FileType.DIRECTORY)
    assert a.to_block() == b.to_block()


def test_serialization_roundtrip():
    block = DirBlock()
    block.insert(5, "name-5", FileType.SYMLINK)
    restored = DirBlock(block.to_block())
    assert [e.ino for e in restored.entries()] == [5]


def test_long_names():
    block = DirBlock()
    name = "n" * MAX_NAME_LEN
    assert block.insert(1, name, FileType.REGULAR)
    assert block.find(name).ino == 1
    with pytest.raises(ValueError):
        block.insert(2, "n" * (MAX_NAME_LEN + 1), FileType.REGULAR)


def test_insert_validates_args():
    block = DirBlock()
    with pytest.raises(ValueError):
        block.insert(0, "zero-ino", FileType.REGULAR)
    with pytest.raises(ValueError):
        block.insert(1, "", FileType.REGULAR)


def test_malformed_block_detected():
    raw = bytearray(DirBlock().to_block())
    raw[4:6] = (3).to_bytes(2, "little")  # rec_len 3: under header size
    with pytest.raises(ValueError):
        DirBlock(bytes(raw)).entries()


def test_overrun_rec_len_detected():
    raw = bytearray(DirBlock().to_block())
    raw[4:6] = (BLOCK_SIZE + 8).to_bytes(2, "little")
    with pytest.raises(ValueError):
        DirBlock(bytes(raw)).entries()


def test_free_space_probe_is_non_mutating():
    block = DirBlock()
    before = block.to_block()
    assert block.free_space_for("anything")
    assert block.to_block() == before


def test_entry_size_alignment():
    assert entry_size(1) % 4 == 0
    assert entry_size(4) == 12
    assert entry_size(5) == 16


def test_direntry_rejects_bad_names():
    with pytest.raises(ValueError):
        DirEntry(ino=1, name="", ftype=FileType.REGULAR)


def test_wrong_block_size_rejected():
    with pytest.raises(ValueError):
        DirBlock(b"\x00" * 100)


# ---- find against its reference -------------------------------------------


def reference_find(block: DirBlock, name: str) -> DirEntry | None:
    """The body find had before it compared names as stored: parse
    every live record into a DirEntry, then look through them."""
    for entry in reference_entries(block.to_block()):
        if entry.name == name:
            return entry
    return None


def _both(raw: bytes, name: str):
    """(outcome of find, outcome of the reference), an outcome being the
    entry found or the text of the ValueError raised."""
    return [outcome(finder, DirBlock(raw), name) for finder in (DirBlock.find, reference_find)]


def _random_history(rng: random.Random) -> tuple[bytes, list[str], list[str]]:
    """A block after a random insert/remove history, with the names
    still in it and the names removed from it."""
    block = DirBlock()
    live: list[str] = []
    gone: list[str] = []
    for step in range(rng.randrange(1, 120)):
        if live and rng.random() < 0.4:
            name = live.pop(rng.randrange(len(live)))
            assert block.remove(name)
            gone.append(name)
        else:
            name = rng.choice(["f", "file", "файл", "a-much-longer-file-name-"]) * rng.randrange(1, 4) + str(step)
            if block.insert(step + 1, name, rng.choice(list(FileType)[1:])):
                live.append(name)
    return block.to_block(), live, gone


def test_find_matches_reference_on_random_histories():
    rng = random.Random(1515)
    for _round in range(40):
        raw, live, gone = _random_history(rng)
        for name in live + gone + ["", ".", "no-such-name"]:
            fast, slow = _both(raw, name)
            assert fast == slow, name
            assert (fast is not None) == (name in live)


def test_find_on_the_shapes_deletion_leaves_behind():
    block = DirBlock()
    for ino, name in enumerate(("ab", "abc", "a", "abcd-long-enough-to-leave-slack", "z"), start=1):
        block.insert(ino, name, FileType.REGULAR)
    block.remove("ab")  # leading free slot, rec_len kept
    block.remove("abcd-long-enough-to-leave-slack")  # folded into "a"'s rec_len
    block.insert(9, "abcdef", FileType.SYMLINK)  # too long for the leading slot: carved out of that slack
    raw = block.to_block()
    assert walk_records(raw)[0][1] == 0
    for name in ("ab", "abc", "a", "abcdef", "abcd-long-enough-to-leave-slack", "z", "abcde", "b"):
        fast, slow = _both(raw, name)
        assert fast == slow, name
    assert DirBlock(raw).find("abcdef").ino == 9 and DirBlock(raw).find("abc").ino == 2
    assert DirBlock(raw).find("ab") is None  # a prefix of live names, itself deleted


def _record(block: DirBlock, index: int) -> int:
    return walk_records(block.to_block())[index][0]


@pytest.mark.parametrize(
    "damage, text",
    [
        (lambda raw, at: raw.__setitem__(slice(at + 4, at + 6), (3).to_bytes(2, "little")), "< header size"),
        (lambda raw, at: raw.__setitem__(slice(at + 4, at + 6), (14).to_bytes(2, "little")), "unaligned rec_len"),
        (lambda raw, at: raw.__setitem__(slice(at + 4, at + 6), (BLOCK_SIZE).to_bytes(2, "little")), "overruns the block"),
        (lambda raw, at: raw.__setitem__(at + 6, 200), "exceeds rec_len"),
        (lambda raw, at: raw.__setitem__(at + 7, 9), "9 is not a valid FileType"),
        (lambda raw, at: raw.__setitem__(at + 6, 0), "empty directory entry name"),
    ],
)
def test_find_raises_what_the_reference_raises_on_a_malformed_block(damage, text):
    block = DirBlock()
    for ino, name in enumerate(("first", "second", "third"), start=1):
        block.insert(ino, name, FileType.REGULAR)
    raw = bytearray(block.to_block())
    damage(raw, _record(block, 1))  # the damaged record sits *after* "first"
    for name in ("first", "third", "absent"):
        fast, slow = _both(bytes(raw), name)
        assert isinstance(fast, str) and text in fast
        assert fast == slow


def test_find_does_not_decode_the_names_it_passes_over():
    """The one input find is more lenient on than the reference: another
    entry's name that is not UTF-8.  Listing the block still refuses it."""
    block = DirBlock()
    block.insert(1, "good", FileType.REGULAR)
    block.insert(2, "evil", FileType.REGULAR)
    raw = bytearray(block.to_block())
    at = _record(block, 1) + 8
    raw[at : at + 4] = b"\xff\xfe\xfd\xfc"
    assert DirBlock(bytes(raw)).find("good").ino == 1
    with pytest.raises(UnicodeDecodeError):
        DirBlock(bytes(raw)).entries()


def test_direntry_name_length_is_measured_in_bytes():
    DirEntry(ino=1, name="é" * 127, ftype=FileType.REGULAR)  # 254 bytes
    with pytest.raises(ValueError, match="name too long"):
        DirEntry(ino=1, name="é" * 128, ftype=FileType.REGULAR)  # 256 bytes
    DirEntry(ino=1, name="😀" * 63, ftype=FileType.REGULAR)  # 252 bytes
    with pytest.raises(ValueError, match="name too long"):
        DirEntry(ino=1, name="😀" * 64, ftype=FileType.REGULAR)


# ---- the walkers against the object-building bodies they replaced ----------


def _assert_walkers_match(raw: bytes, names=()) -> None:
    assert outcome(walk_records, raw) == outcome(reference_records, raw)
    listed = outcome(reference_entries, raw)
    assert outcome(lambda: DirBlock(raw).entries()) == listed
    walked = outcome(walk_entries, raw)
    if isinstance(listed, str):
        assert walked == listed
    else:
        assert walked == [(e.offset, e.ino, e.name, e.ftype) for e in listed]
    for name in names:
        assert outcome(lambda: DirBlock(raw).find(name)) == outcome(reference_find_as_stored, raw, name), name


def test_walkers_match_reference_on_random_histories_and_random_damage():
    rng = random.Random(2323)
    refused = 0
    for _round in range(60):
        raw, live, _gone = _random_history(rng)
        probes = live[:3] + ["", "no-such-name"]
        _assert_walkers_match(raw, probes)
        for _variant in range(12):
            damaged = bytearray(raw)
            for _flip in range(rng.randrange(1, 4)):
                # Headers sit at the front of a young block: aim there.
                damaged[rng.randrange(rng.choice((32, 256, BLOCK_SIZE)))] ^= 1 << rng.randrange(8)
            _assert_walkers_match(bytes(damaged), probes)
            refused += isinstance(outcome(walk_entries, bytes(damaged)), str)
    assert refused > 100  # the damage does reach the rules
    for _round in range(20):  # and blocks that were never directory blocks
        _assert_walkers_match(rng.randbytes(BLOCK_SIZE), ["x"])
    for size in (0, 100, BLOCK_SIZE - 1, BLOCK_SIZE + 4):
        _assert_walkers_match(bytes(size), ["x"])


@pytest.mark.parametrize(
    "damage",
    [
        lambda raw, at: raw.__setitem__(slice(at + 4, at + 6), (3).to_bytes(2, "little")),
        lambda raw, at: raw.__setitem__(slice(at + 4, at + 6), (14).to_bytes(2, "little")),
        lambda raw, at: raw.__setitem__(slice(at + 4, at + 6), (BLOCK_SIZE).to_bytes(2, "little")),
        lambda raw, at: raw.__setitem__(slice(at + 4, at + 6), (BLOCK_SIZE + 8).to_bytes(2, "little")),
        lambda raw, at: raw.__setitem__(at + 6, 200),
        lambda raw, at: raw.__setitem__(at + 7, 9),
        lambda raw, at: raw.__setitem__(at + 6, 0),
        lambda raw, at: raw.__setitem__(slice(at + 6, at + 8), b"\x00\x09"),  # empty name *and* bad type
        lambda raw, at: raw.__setitem__(at + 8, 0xFF),  # name not UTF-8
        lambda raw, at: raw.__setitem__(slice(at + 7, at + 9), b"\x09\xff"),  # ... *and* bad type
    ],
)
def test_walkers_match_reference_on_the_named_malformations(damage):
    block = DirBlock()
    for ino, name in enumerate(("first", "second", "third"), start=1):
        block.insert(ino, name, FileType.REGULAR)
    for index in (0, 1, 2):
        raw = bytearray(block.to_block())
        damage(raw, _record(block, index))
        if index == 1:  # the first record may span the block and the last has room for any name
            assert isinstance(outcome(walk_entries, bytes(raw)), str)
        _assert_walkers_match(bytes(raw), ["first", "second", "third", "absent"])


def test_walkers_on_a_chain_that_ends_off_the_block():
    block = DirBlock()
    block.insert(1, "only", FileType.REGULAR)
    raw = bytearray(block.to_block())
    raw[4:6] = (BLOCK_SIZE - 4).to_bytes(2, "little")  # next header would start at 4092
    assert "crosses block end" in outcome(walk_records, bytes(raw))
    _assert_walkers_match(bytes(raw), ["only"])


def test_walkers_read_any_buffer_in_place():
    block = DirBlock()
    block.insert(7, "seven", FileType.DIRECTORY)
    raw = block.to_block()
    for view in (raw, bytearray(raw), memoryview(raw)):
        assert walk_records(view) == reference_records(raw)
    assert walk_entries(bytearray(raw)) == walk_entries(raw) == [(0, 7, "seven", FileType.DIRECTORY)]
