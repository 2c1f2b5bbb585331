"""Seeded, stationary op-stream generators for the six workloads.

The program under test receives only the :class:`~repro.api.FsOp` lists
made here.  Every generator

* is a pure function of its :class:`random.Random`, so one seed gives
  one stream;
* keeps its own model of the namespace and emits only operations that
  succeed (the oracle re-checks this on the spec model);
* is *stationary*: the live-file population is held inside a band (a
  create at the top of the band becomes an unlink and the reverse), each
  ``mkdir`` is paired with its ``rmdir``, and overwrites stay inside the
  file, so per-op cost does not drift with stream length and op counts
  can be fixed;
* keeps at most one descriptor open, so the lowest-free-fd rule makes
  every fd number :data:`FD`.

A throughput stream ends with a short *recovery probe*: a few episodes
of the workload's own mix that each trip the armed bug, so that the
stall is measured in every workload's state.

Shares in the tables of README.md are shares of *actions*; an action is
one to fourteen ops (``open``+``write``+``close`` is one create action).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.api import FsOp, OpenFlags, op

FD = 3
# The two arms alternate in blocks of about this many ops.
BLOCK_OPS = 500
# Ops of the workload's own mix before each trigger of the recovery probe.
PROBE_EPISODE_OPS = 10
TRIGGER_NAME = "trigger-now"
TRIGGER_PATH = "/" + TRIGGER_NAME

_CREAT = int(OpenFlags.CREAT)
_APPEND = int(OpenFlags.APPEND)
_MIB = 1 << 20


@dataclass
class Stream:
    """One workload's inputs: the image's pre-population, then the
    warm-up prefix and the measured region as one continuous stream."""

    prepop: list[FsOp]
    ops: list[FsOp]
    warmup: int  # ops[:warmup] run untimed
    blocks: list[tuple[int, int]]  # the measured region as [lo, hi) index ranges
    probe: int  # ops[probe:] is the recovery probe; len(ops) when there is none
    triggers: tuple[int, ...]  # indices in ops of the recovery trigger mkdirs

    @property
    def measured(self) -> int:
        """Ops in the measured region (the probe is measured apart)."""
        return self.probe - self.warmup


class _Files:
    """Live regular files with O(1) random pick and removal."""

    def __init__(self):
        self.paths: list[str] = []
        self.size: dict[str, int] = {}
        self._index: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.paths)

    def add(self, path: str, size: int) -> None:
        self._index[path] = len(self.paths)
        self.paths.append(path)
        self.size[path] = size

    def remove(self, path: str) -> None:
        index = self._index.pop(path)
        last = self.paths.pop()
        if last != path:
            self.paths[index] = last
            self._index[last] = index
        del self.size[path]

    def pick(self, rng: random.Random) -> str:
        return self.paths[int(rng.random() * len(self.paths))]


class _Generator:
    """Base: ``step(room)`` appends between 1 and ``room`` ops to
    ``self.out``; ``emit(n)`` appends exactly ``n``."""

    #: (low, high) band the live-file population must stay inside.
    band: tuple[int, int] = (0, 0)

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.out: list[FsOp] = []
        self.files = _Files()
        self.triggers: list[int] = []
        self._serial = 0

    def fresh(self, prefix: str) -> str:
        self._serial += 1
        return f"{prefix}{self._serial}"

    def emit(self, n: int) -> None:
        target = len(self.out) + n
        while len(self.out) < target:
            self.step(target - len(self.out))

    def episode(self, mix_ops: int) -> None:
        """``mix_ops`` ops of the workload's own mix, then trip the armed
        bug: ``mkdir`` of :data:`TRIGGER_PATH`, on which the harness's
        ``dir.insert`` hook raises, then its ``rmdir``."""
        self.emit(mix_ops)
        self.triggers.append(len(self.out))
        self.out.append(op("mkdir", path=TRIGGER_PATH))
        self.out.append(op("rmdir", path=TRIGGER_PATH))

    def step(self, room: int) -> None:
        raise NotImplementedError

    def prepopulate(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """Ops that open the warm-up prefix, where a random prefix would
        not make the caches resident."""

    def banded(self, grow: bool, shrink: bool) -> tuple[bool, bool]:
        """Keep the population in :attr:`band`: a grow action at the top
        of the band becomes a shrink action, and the reverse."""
        low, high = self.band
        if grow and len(self.files) >= high:
            return False, True
        if shrink and len(self.files) <= low:
            return True, False
        return grow, shrink

    # -- shared actions ------------------------------------------------

    def create(self, path: str, lo: int, hi: int, sync: bool = False) -> None:
        data = self.rng.randbytes(self.rng.randint(lo, hi))
        self.out.append(op("open", path=path, flags=_CREAT))
        self.out.append(op("write", fd=FD, data=data))
        if sync:
            self.out.append(op("fsync", fd=FD))
        self.out.append(op("close", fd=FD))
        self.files.add(path, len(data))

    def unlink(self, path: str) -> None:
        self.out.append(op("unlink", path=path))
        self.files.remove(path)

    def rename(self, src: str, dst: str) -> None:
        self.out.append(op("rename", src=src, dst=dst))
        size = self.files.size[src]
        self.files.remove(src)
        self.files.add(dst, size)

    def mkdir_rmdir(self, path: str) -> None:
        self.out.append(op("mkdir", path=path))
        self.out.append(op("rmdir", path=path))

    def open_close(self, path: str) -> None:
        self.out.append(op("open", path=path))
        self.out.append(op("close", fd=FD))

    def stat_filler(self) -> None:
        self.out.append(op("stat", path=self.files.pick(self.rng)))


class MetaLookup(_Generator):
    """Read-only namespace traffic over a fully cached tree."""

    CHAINS, FILES_PER_LEAF = 16, 32

    def __init__(self, rng):
        super().__init__(rng)
        self.leaves: list[str] = []

    def prepopulate(self) -> None:
        for chain in range(self.CHAINS):
            path = ""
            for part in (f"c{chain:02d}", "d", "e"):
                path += "/" + part
                self.out.append(op("mkdir", path=path))
            self.leaves.append(path)
            for index in range(self.FILES_PER_LEAF):
                self.create(f"{path}/f{index:02d}", 512, 4096)

    def warm(self) -> None:
        # One stat of every file: a random prefix would leave a few of the
        # 512 cold, and their first lookups would be the measured p99.
        for path in self.files.paths:
            self.out.append(op("stat", path=path))

    def step(self, room: int) -> None:
        r = self.rng.random()
        if r < 0.55:
            self.stat_filler()
        elif r < 0.65:
            self.out.append(op("lstat", path=self.files.pick(self.rng)))
        elif r < 0.80:
            self.out.append(op("readdir", path=self.rng.choice(self.leaves)))
        elif room >= 2:
            self.open_close(self.files.pick(self.rng))
        else:
            self.stat_filler()


class CreateChurn(_Generator):
    """Namespace writes: allocator, bitmaps, directory blocks, dentries."""

    DIRS, POPULATION = 8, 256
    band = (POPULATION - 16, POPULATION + 16)

    def __init__(self, rng):
        super().__init__(rng)
        self.dirs = [f"/d{index}" for index in range(self.DIRS)]

    def _new_path(self) -> str:
        return f"{self.rng.choice(self.dirs)}/{self.fresh('f')}"

    def prepopulate(self) -> None:
        for path in self.dirs:
            self.out.append(op("mkdir", path=path))
        for _ in range(self.POPULATION):
            self.create(self._new_path(), 100, 6000)

    def step(self, room: int) -> None:
        r = self.rng.random()
        grow, shrink = self.banded(r < 0.40, 0.40 <= r < 0.80)
        if grow:
            if room >= 3:
                self.create(self._new_path(), 100, 6000)
            else:
                self.stat_filler()
        elif shrink:
            self.unlink(self.files.pick(self.rng))
        elif r < 0.90:
            self.rename(self.files.pick(self.rng), self._new_path())
        elif room >= 2:
            self.mkdir_rmdir(f"{self.rng.choice(self.dirs)}/{self.fresh('s')}")
        else:
            self.stat_filler()


class FsyncMail(_Generator):
    """Mail spool: one commit per delivered or appended message."""

    USERS, POPULATION = 4, 128
    band = (POPULATION - 16, POPULATION + 16)

    def __init__(self, rng):
        super().__init__(rng)
        self.users = [f"/mail/u{index}" for index in range(self.USERS)]

    def _deliver(self) -> None:
        self.create(f"{self.rng.choice(self.users)}/{self.fresh('m')}", 512, 8192, sync=True)

    def prepopulate(self) -> None:
        self.out.append(op("mkdir", path="/mail"))
        for path in self.users:
            self.out.append(op("mkdir", path=path))
        for _ in range(self.POPULATION):
            self._deliver()

    def step(self, room: int) -> None:
        r = self.rng.random()
        grow, shrink = self.banded(r < 0.30, r >= 0.75)
        if shrink:
            self.unlink(self.files.pick(self.rng))
        elif room < 4:
            self.stat_filler()
        elif grow:
            self._deliver()
        elif r < 0.55:
            path = self.files.pick(self.rng)
            data = self.rng.randbytes(self.rng.randint(256, 2048))
            self.out.append(op("open", path=path, flags=_APPEND))
            self.out.append(op("write", fd=FD, data=data))
            self.out.append(op("fsync", fd=FD))
            self.out.append(op("close", fd=FD))
            self.files.size[path] += len(data)
        else:
            path = self.files.pick(self.rng)
            self.out.append(op("open", path=path))
            self.out.append(op("read", fd=FD, length=self.files.size[path]))
            self.out.append(op("close", fd=FD))


class DataCold(_Generator):
    """Random reads and overwrites over a file set larger than the page
    cache (24 MiB against 4096 pages = 16 MiB)."""

    FILES, FILE_BYTES, CHUNK, WARM_READ = 24, _MIB, 256 * 1024, 64 * 1024

    def prepopulate(self) -> None:
        self.out.append(op("mkdir", path="/data"))
        for index in range(self.FILES):
            path = f"/data/f{index:02d}"
            self.out.append(op("open", path=path, flags=_CREAT))
            for _ in range(self.FILE_BYTES // self.CHUNK):
                self.out.append(op("write", fd=FD, data=self.rng.randbytes(self.CHUNK)))
            self.out.append(op("close", fd=FD))
            self.files.add(path, self.FILE_BYTES)

    def warm(self) -> None:
        # Read every file once, so the page cache is full and evicting
        # before timing starts; the per-op cost follows the number of
        # cached pages, and random accesses fill them too slowly.
        for path in self.files.paths:
            self.out.append(op("open", path=path))
            for _ in range(self.FILE_BYTES // self.WARM_READ):
                self.out.append(op("read", fd=FD, length=self.WARM_READ))
            self.out.append(op("close", fd=FD))

    def step(self, room: int) -> None:
        if room < 4:
            self.stat_filler()
            return
        accesses = min(self.rng.randint(1, 6), (room - 2) // 2)
        self.out.append(op("open", path=self.files.pick(self.rng)))
        for _ in range(accesses):
            length = self.rng.randint(2048, 16384)
            offset = self.rng.randint(0, self.FILE_BYTES - length)
            self.out.append(op("lseek", fd=FD, offset=offset, whence=0))
            if self.rng.random() < 0.60:
                self.out.append(op("read", fd=FD, length=length))
            else:
                self.out.append(op("write", fd=FD, data=self.rng.randbytes(length)))
        self.out.append(op("close", fd=FD))


class RecoveryMix(_Generator):
    """Fileserver-like mix without ``fsync``; the recovery workloads cut
    it into episodes (:meth:`_Generator.episode`)."""

    DIRS, POPULATION, MAX_OFFSET = 4, 48, 24 * 1024
    band = (POPULATION - 8, POPULATION + 8)
    #: cumulative action shares: create, write, read, open+close, unlink,
    #: stat, readdir, mkdir+rmdir, rename (the fileserver weights 2, 3, 3,
    #: 1, 1, 2, .5, .3, .3 over 13.1)
    _CUM = (0.153, 0.382, 0.611, 0.687, 0.763, 0.916, 0.954, 0.977, 1.0)

    def __init__(self, rng):
        super().__init__(rng)
        self.dirs = [f"/srv{index}" for index in range(self.DIRS)]

    def _new_path(self) -> str:
        return f"{self.rng.choice(self.dirs)}/{self.fresh('f')}"

    def prepopulate(self) -> None:
        for path in self.dirs:
            self.out.append(op("mkdir", path=path))
        for _ in range(self.POPULATION):
            self.create(self._new_path(), 1024, 8192)

    def _io(self, room: int, write: bool) -> None:
        if room < 4:
            self.stat_filler()
            return
        path = self.files.pick(self.rng)
        size = self.files.size[path]
        offset = self.rng.randint(0, min(size, self.MAX_OFFSET))
        self.out.append(op("open", path=path))
        self.out.append(op("lseek", fd=FD, offset=offset, whence=0))
        if write:
            data = self.rng.randbytes(self.rng.randint(512, 4096))
            self.out.append(op("write", fd=FD, data=data))
            self.files.size[path] = max(size, offset + len(data))
        else:
            self.out.append(op("read", fd=FD, length=self.rng.randint(1024, 16384)))
        self.out.append(op("close", fd=FD))

    def step(self, room: int) -> None:
        r = self.rng.random()
        cum = self._CUM
        grow, shrink = self.banded(r < cum[0], cum[3] <= r < cum[4])
        if grow:
            if room >= 3:
                self.create(self._new_path(), 512, 6144)
            else:
                self.stat_filler()
        elif shrink:
            self.unlink(self.files.pick(self.rng))
        elif r < cum[1]:
            self._io(room, write=True)
        elif r < cum[2]:
            self._io(room, write=False)
        elif r < cum[3] and room >= 2:
            self.open_close(self.files.pick(self.rng))
        elif r < cum[5]:
            self.stat_filler()
        elif r < cum[6]:
            self.out.append(op("readdir", path=self.rng.choice(self.dirs)))
        elif r < cum[7] and room >= 2:
            self.mkdir_rmdir(f"{self.rng.choice(self.dirs)}/{self.fresh('s')}")
        elif r >= cum[7]:
            self.rename(self.files.pick(self.rng), self._new_path())
        else:
            self.stat_filler()


GENERATORS = {
    "meta_lookup": MetaLookup,
    "create_churn": CreateChurn,
    "fsync_mail": FsyncMail,
    "data_cold": DataCold,
    "recovery_longwindow": RecoveryMix,
    "recovery_default": RecoveryMix,
}


def make_stream(name: str, rng: random.Random, count: int, warmup: int, probe_episodes: int,
                episode_ops: int) -> Stream:
    """The stream of workload ``name``.  With ``episode_ops`` the
    workload is made of episodes, and ``count`` and ``warmup`` are in
    episodes; otherwise they are in ops and ``probe_episodes`` follow."""
    gen = GENERATORS[name](rng)
    gen.prepopulate()
    prepop, gen.out = gen.out, []
    blocks = []
    if episode_ops:
        for _ in range(warmup):
            gen.episode(episode_ops)
        warmup = len(gen.out)
        # A block is whole episodes, so every block holds the same number of stalls.
        per_block = max(1, round(BLOCK_OPS / (episode_ops + 2)))
        for start in range(0, count, per_block):
            lo = len(gen.out)
            for _ in range(min(per_block, count - start)):
                gen.episode(episode_ops)
            blocks.append((lo, len(gen.out)))
        probe = len(gen.out)
    else:
        gen.warm()
        gen.emit(warmup)
        warmup = len(gen.out)
        gen.emit(count)
        probe = len(gen.out)
        blocks = [(lo, min(lo + BLOCK_OPS, probe)) for lo in range(warmup, probe, BLOCK_OPS)]
        # The recovery probe: what a stall costs an application that was
        # doing *this*, with this workload's caches and op-log window.
        for _ in range(probe_episodes):
            gen.episode(PROBE_EPISODE_OPS)
    return Stream(prepop=prepop, ops=gen.out, warmup=warmup, blocks=blocks, probe=probe,
                  triggers=tuple(gen.triggers))
