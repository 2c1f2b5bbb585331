"""The commit's device-write sequence is pinned.

A seeded data workload on the base — four files, one of them sparse past
the double-indirect boundary (logical 1 036), one past the
single-indirect boundary (logical 12), a default 4 096-page cache pushed
past capacity by reads (~200 dirty pages among 4 096 cached at each
commit) — commits twice and unmounts.  Every device write and flush, in
the order the device sees them, goes into one sha256.  Recorded at
afe42a5, when write-back
still sorted every cached key and block maps unpacked whole indirect
blocks to read one pointer; a change to either path that moves one byte
or reorders one write fails here.
"""

from __future__ import annotations

import hashlib
import random

from repro.api import OpenFlags
from repro.basefs.filesystem import BaseFilesystem
from repro.blockdev.device import CountingDevice
from repro.fsck import Fsck
from repro.ondisk.inode import N_DIRECT, PTRS_PER_BLOCK
from repro.ondisk.layout import BLOCK_SIZE
from tests.conftest import formatted_device

SINGLE_START = N_DIRECT  # first logical block behind the single-indirect block
DOUBLE_START = N_DIRECT + PTRS_PER_BLOCK  # first logical block behind the double-indirect block

PINNED_WRITE_SEQUENCE = "98542a145ab416692b39fcc66e38580e1823cc0c1578368a27a91dfebaafc415"
PINNED_WRITES = 469


class RecordingDevice(CountingDevice):
    """Hashes every write and flush in the order the device sees them."""

    def __init__(self, inner):
        super().__init__(inner)
        self.sequence = hashlib.sha256()

    def write_block(self, block: int, data: bytes) -> None:
        self.sequence.update(b"w%d:" % block + bytes(data))
        super().write_block(block, data)

    def flush(self) -> None:
        self.sequence.update(b"f")
        super().flush()


def _logicals(rng: random.Random) -> list[int]:
    """Block positions around both indirect boundaries and a second
    double-indirect inner block."""
    pool = (
        list(range(0, SINGLE_START + 3))
        + list(range(DOUBLE_START - 3, DOUBLE_START + 3))
        + [rng.randrange(SINGLE_START, DOUBLE_START) for _ in range(40)]
        + [DOUBLE_START + PTRS_PER_BLOCK + rng.randrange(PTRS_PER_BLOCK) for _ in range(20)]
    )
    rng.shuffle(pool)
    return pool


def run_workload(seed: int = 2611) -> RecordingDevice:
    rng = random.Random(seed)
    device = RecordingDevice(formatted_device(block_count=16384))
    fs = BaseFilesystem(device)
    opseq = iter(range(1, 1_000_000))
    fds = {
        path: fs.open(path, OpenFlags.CREAT, opseq=next(opseq)) for path in ("/sparse", "/single", "/small", "/wide")
    }
    limits = {"/sparse": None, "/single": DOUBLE_START, "/small": SINGLE_START, "/wide": None}

    def write_at(path: str, logical: int, blocks: int) -> None:
        fs.lseek(fds[path], logical * BLOCK_SIZE + rng.randrange(64), 0, opseq=next(opseq))
        fs.write(fds[path], rng.randbytes(blocks * BLOCK_SIZE - rng.randrange(128)), opseq=next(opseq))

    def read_at(path: str, logical: int, blocks: int) -> None:
        fs.lseek(fds[path], logical * BLOCK_SIZE, 0, opseq=next(opseq))
        fs.read(fds[path], blocks * BLOCK_SIZE, opseq=next(opseq))

    for round_ in range(2):
        # Interleaved writes: dirty pages of four inodes arrive out of
        # (ino, logical) order.
        for path, logical in zip(rng.choices(list(fds), k=120), _logicals(rng) * 2):
            limit = limits[path]
            if limit is not None:
                logical %= limit
            write_at(path, logical, rng.randint(1, 3))
        # Sequential reads fill the cache with clean pages (read-ahead
        # included) until it evicts.
        for path in ("/wide", "/sparse"):
            for start in range(0, DOUBLE_START + 2 * PTRS_PER_BLOCK, 64):
                read_at(path, start, 64)
        fs.commit()
        if round_ == 0:
            fs.truncate("/single", (SINGLE_START + 200) * BLOCK_SIZE, opseq=next(opseq))
    for fd in fds.values():
        fs.close(fd, opseq=next(opseq))
    fs.unmount()
    return device


def test_commit_write_sequence_is_pinned():
    device = run_workload()
    assert device.writes == PINNED_WRITES
    assert device.sequence.hexdigest() == PINNED_WRITE_SEQUENCE
    assert Fsck(device).run().clean
