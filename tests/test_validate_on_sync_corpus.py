"""Validate-on-sync against its reference on a corruption corpus.

``BaseFilesystem._validate_txn`` checks ``dir`` and ``itable`` blocks
through the in-place walkers; ``reference_validate_txn`` is the body it
had before (every record parsed into an object).  A seeded workload
commits real transactions; each one is captured as the journal manager
hands it over, damaged in every named way and by random bit flips, and
both validators must return the same problem list — same accept/reject,
same strings, same order — on every variant.
"""

import random
import struct

from repro.api import OpenFlags
from repro.basefs.filesystem import BaseFilesystem
from repro.ondisk.directory import walk_records
from repro.ondisk.inode import MAX_FILE_SIZE, FileType, OnDiskInode, make_mode
from repro.ondisk.layout import BLOCK_SIZE, INODE_SIZE
from repro.ondisk.mapping import pack_pointers, unpack_pointers
from repro.ondisk.mkfs import formatted_device
from tests.reference_ondisk import reference_validate_txn

SEED = 2323


# ---- damage: each takes a block and an rng, returns the damaged block -----


def _live_slots(block: bytes) -> list[int]:
    return [
        offset
        for offset in range(0, BLOCK_SIZE, INODE_SIZE)
        if not OnDiskInode.unpack(block[offset : offset + INODE_SIZE], verify=False).is_free
    ]


def _rewrite_inode(change):
    """Damage that survives the checksum: unpack a live slot, change a
    field, pack it again (which re-checksums)."""

    def damage(block: bytes, rng: random.Random) -> bytes:
        offset = rng.choice(_live_slots(block))
        inode = OnDiskInode.unpack(block[offset : offset + INODE_SIZE])
        change(inode)
        return block[:offset] + inode.pack() + block[offset + INODE_SIZE :]

    return damage


def _flip_in_slot(at: int):
    """One bit flipped ``at`` bytes into a live slot, checksum left stale."""

    def damage(block: bytes, rng: random.Random) -> bytes:
        raw = bytearray(block)
        raw[rng.choice(_live_slots(block)) + at] ^= 1 << rng.randrange(8)
        return bytes(raw)

    return damage


def _set_dir(inode: OnDiskInode) -> None:
    inode.mode = make_mode(FileType.DIRECTORY)
    inode.size = BLOCK_SIZE + 7


ITABLE_DAMAGE = {
    "checksum bit": _flip_in_slot(113),
    "bit in the slot's padding": _flip_in_slot(200),
    "mode bit, stale checksum": _flip_in_slot(1),
    "size bit, stale checksum": _flip_in_slot(22),
    "nlink bit, stale checksum": _flip_in_slot(13),
    "invalid type": _rewrite_inode(lambda inode: setattr(inode, "mode", 9 << 12)),
    "mode zero in a written slot": _rewrite_inode(lambda inode: setattr(inode, "mode", 0)),
    "size over the maximum": _rewrite_inode(lambda inode: setattr(inode, "size", MAX_FILE_SIZE + 1)),
    "directory of unaligned size": _rewrite_inode(_set_dir),
    "implausible nlink": _rewrite_inode(lambda inode: setattr(inode, "nlink", 70000)),
    "every rule at once": _rewrite_inode(
        lambda inode: (setattr(inode, "mode", 9 << 12), setattr(inode, "size", MAX_FILE_SIZE + 5), setattr(inode, "nlink", 1 << 20))
    ),
}


def _on_record(live: bool, patch):
    """Apply ``patch(raw, offset, rec_len)`` to one record of the chain."""

    def damage(block: bytes, rng: random.Random) -> bytes:
        records = [r for r in walk_records(block) if (r[1] != 0) == live] or walk_records(block)
        offset, _ino, rec_len, _name_len, _ftype = rng.choice(records)
        raw = bytearray(block)
        patch(raw, offset, rec_len)
        return bytes(raw)

    return damage


def _set_rec_len(value):
    return lambda raw, offset, rec_len: struct.pack_into("<H", raw, offset + 4, value(rec_len))


def _shorten_last(block: bytes, rng: random.Random) -> bytes:
    offset, _ino, rec_len, _name_len, _ftype = walk_records(block)[-1]
    raw = bytearray(block)
    struct.pack_into("<IHBB", raw, offset, 0, rec_len - 4, 0, 0)  # the chain now ends 4 bytes short
    return bytes(raw)


DIR_DAMAGE = {
    "rec_len under the header": _on_record(True, _set_rec_len(lambda rec_len: 3)),
    "rec_len unaligned": _on_record(True, _set_rec_len(lambda rec_len: rec_len + 2)),
    "rec_len overrunning": _on_record(True, _set_rec_len(lambda rec_len: BLOCK_SIZE)),
    "rec_len of a free slot": _on_record(False, _set_rec_len(lambda rec_len: 6)),
    "name_len over rec_len": _on_record(True, lambda raw, offset, rec_len: raw.__setitem__(offset + 6, 255)),
    "bad file type": _on_record(True, lambda raw, offset, rec_len: raw.__setitem__(offset + 7, 9)),
    "empty name": _on_record(True, lambda raw, offset, rec_len: raw.__setitem__(offset + 6, 0)),
    "empty name and bad file type": _on_record(True, lambda raw, offset, rec_len: raw.__setitem__(slice(offset + 6, offset + 8), b"\x00\x09")),
    "name not UTF-8": _on_record(True, lambda raw, offset, rec_len: raw.__setitem__(offset + 8, 0xFF)),
    "name not UTF-8 and bad file type": _on_record(
        True, lambda raw, offset, rec_len: (raw.__setitem__(offset + 8, 0xFF), raw.__setitem__(offset + 7, 200))
    ),
    "chain ending off the block": _shorten_last,
    "ino zeroed": _on_record(True, lambda raw, offset, rec_len: raw.__setitem__(slice(offset, offset + 4), bytes(4))),
}


def _point_outside(block: bytes, rng: random.Random) -> bytes:
    pointers = unpack_pointers(block)
    pointers[rng.randrange(len(pointers))] = 1 << 30
    live = [i for i, p in enumerate(pointers) if p and p != 1 << 30]
    if live:
        pointers[rng.choice(live)] = 0xFFFF_FFFF
    return pack_pointers(pointers)


def _bit_flips(block: bytes, rng: random.Random) -> bytes:
    raw = bytearray(block)
    # Metadata sits at the front of these blocks: aim most flips there.
    for _ in range(rng.randrange(1, 4)):
        limit = rng.choice((64, 512, BLOCK_SIZE))
        raw[rng.randrange(limit)] ^= 1 << rng.randrange(8)
    return bytes(raw)


DAMAGE_BY_ROLE = {
    "itable": ITABLE_DAMAGE,
    "dir": DIR_DAMAGE,
    "indirect": {"pointers out of range": _point_outside},
}


# ---- the workload whose commits are captured --------------------------------


def _drive(fs: BaseFilesystem, rng: random.Random) -> None:
    """Namespace and data churn with a commit every few ops: directory
    blocks with tombstones and slack, inode-table blocks in several
    groups, a symlink, and files long enough for indirect blocks."""
    seq = 10
    names: list[str] = []
    dirs = ["/"]
    for step in range(160):
        seq += 1
        roll = rng.random()
        parent = rng.choice(dirs)
        if roll < 0.12 and len(dirs) < 6:
            path = f"{parent.rstrip('/')}/d{step}"
            fs.mkdir(path, opseq=seq)
            dirs.append(path)
        elif roll < 0.55 or not names:
            path = f"{parent.rstrip('/')}/" + rng.choice(["f", "файл-", "a-rather-long-file-name-"]) + str(step)
            fd = fs.open(path, OpenFlags.CREAT, opseq=seq)
            size = 70_000 if step % 40 == 5 else rng.randrange(0, 6000)
            fs.write(fd, bytes([step % 251]) * size, opseq=seq)
            fs.close(fd)
            names.append(path)
        elif roll < 0.8:
            fs.unlink(names.pop(rng.randrange(len(names))), opseq=seq)
        elif roll < 0.9:
            old = names.pop(rng.randrange(len(names)))
            new = f"{rng.choice(dirs).rstrip('/')}/r{step}"
            fs.rename(old, new, opseq=seq)
            names.append(new)
        else:
            fs.symlink(rng.choice(names), f"{parent.rstrip('/')}/s{step}", opseq=seq)
        if step % 4 == 3:
            fs.commit()
    fs.commit()


def _both(fs: BaseFilesystem, txn: dict[int, bytes]) -> list[str]:
    """The new validator's problems, asserted equal to the reference's."""
    problems = fs._validate_txn(txn)
    assert problems == reference_validate_txn(fs, txn)
    return problems


def test_validate_txn_matches_its_reference_on_the_corruption_corpus():
    rng = random.Random(SEED)
    fs = BaseFilesystem(formatted_device(8192))
    seen = {"commits": 0, "variants": 0, "rejected": 0}
    rejected_by: dict[str, int] = {}

    def check(txn: dict[int, bytes]) -> list[str]:
        seen["commits"] += 1
        assert _both(fs, txn) == []  # what the base commits, it accepts
        for block in sorted(txn):
            role = "sb" if block == 0 else fs._block_role.get(block, "unknown")
            damages = dict(DAMAGE_BY_ROLE.get(role, {}))
            damages["bit flips"] = damages["more bit flips"] = _bit_flips
            for label, damage in damages.items():
                if role == "itable" and not _live_slots(txn[block]):
                    continue
                problems = _both(fs, {**txn, block: damage(txn[block], rng)})
                seen["variants"] += 1
                if problems:
                    seen["rejected"] += 1
                    rejected_by[f"{role}: {label}"] = rejected_by.get(f"{role}: {label}", 0) + 1
            if role in ("dir", "indirect", "symlink"):
                group = fs.layout.group_of_block(block)
                bit = block - fs.layout.group_start(group)
                fs.alloc.block_bitmaps[group].clear(bit)
                try:
                    problems = _both(fs, txn)
                finally:
                    fs.alloc.block_bitmaps[group].set(bit)
                assert any(f"block {block} is not allocated in the bitmap" in p for p in problems)
                # ... and a cleared bit under a block that is also damaged
                if role == "dir":
                    fs.alloc.block_bitmaps[group].clear(bit)
                    try:
                        _both(fs, {**txn, block: DIR_DAMAGE["bad file type"](txn[block], rng)})
                    finally:
                        fs.alloc.block_bitmaps[group].set(bit)
        for skew in (("free_blocks", 1), ("free_inodes", -2)):
            name, by = skew
            setattr(fs.alloc, name, getattr(fs.alloc, name) + by)
            try:
                problems = _both(fs, txn)
            finally:
                setattr(fs.alloc, name, getattr(fs.alloc, name) - by)
            assert any(f"{name} accounting" in p for p in problems)
        return []

    fs.journal.validator = check
    _drive(fs, rng)

    assert seen["commits"] >= 30 and seen["variants"] >= 2000
    # Every named damage is one the validators reject at least once (the
    # random flips may land in slack and pass), so the corpus compares
    # problem strings, not two empty lists.
    named = [f"{role}: {label}" for role, damages in DAMAGE_BY_ROLE.items() for label in damages]
    expected_to_pass = {"itable: mode zero in a written slot", "itable: bit in the slot's padding", "dir: ino zeroed"}
    for label in named:
        if label in expected_to_pass:
            continue
        assert rejected_by.get(label), f"{label} was never rejected ({rejected_by})"
    assert rejected_by.get("dir: bit flips") and rejected_by.get("itable: bit flips")
