"""The correctness side of the benchmark.

A number is accepted only from a run whose outputs were checked: the
stream is first run on :class:`repro.spec.SpecFilesystem` (the
reference), and after the timed region every measured outcome, the final
tree and the unmounted image are compared against it.  Each divergence
is one *failed op*; nothing here runs inside a timed region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import FilesystemAPI, FsOp, OpenFlags, OpResult
from repro.basefs import BaseFilesystem
from repro.blockdev import MemoryBlockDevice
from repro.errors import FsError
from repro.fsck import Fsck
from repro.spec import SpecFilesystem, capture_state, outcomes_equivalent, states_equivalent


class SupervisorNumbering(FilesystemAPI):
    """Give ``fs`` the logical timestamps the supervisor would.

    ``RAEFilesystem._call`` draws one sequence number per supervised API
    call — including the ``stat`` that ``FsOp.apply`` issues after a
    ``mkdir`` — and ``fstat_ino`` is not numbered.  Timestamps are those
    numbers, so the reference must count identically for states to
    compare equal.
    """

    def __init__(self, fs: FilesystemAPI):
        self.fs = fs
        self.seq = 0

    def _next(self) -> int:
        self.seq += 1
        return self.seq

    def mkdir(self, path, perms=0o755, opseq=0):
        return self.fs.mkdir(path, perms, opseq=self._next())

    def rmdir(self, path, opseq=0):
        return self.fs.rmdir(path, opseq=self._next())

    def unlink(self, path, opseq=0):
        return self.fs.unlink(path, opseq=self._next())

    def rename(self, src, dst, opseq=0):
        return self.fs.rename(src, dst, opseq=self._next())

    def link(self, existing, new, opseq=0):
        return self.fs.link(existing, new, opseq=self._next())

    def symlink(self, target, path, opseq=0):
        return self.fs.symlink(target, path, opseq=self._next())

    def readlink(self, path):
        self._next()
        return self.fs.readlink(path)

    def readdir(self, path):
        self._next()
        return self.fs.readdir(path)

    def stat(self, path):
        self._next()
        return self.fs.stat(path)

    def lstat(self, path):
        self._next()
        return self.fs.lstat(path)

    def truncate(self, path, size, opseq=0):
        return self.fs.truncate(path, size, opseq=self._next())

    def open(self, path, flags=OpenFlags.NONE, perms=0o644, opseq=0):
        return self.fs.open(path, flags, perms, opseq=self._next())

    def close(self, fd, opseq=0):
        return self.fs.close(fd, opseq=self._next())

    def read(self, fd, length, opseq=0):
        return self.fs.read(fd, length, opseq=self._next())

    def write(self, fd, data, opseq=0):
        return self.fs.write(fd, data, opseq=self._next())

    def lseek(self, fd, offset, whence=0, opseq=0):
        return self.fs.lseek(fd, offset, whence, opseq=self._next())

    def fsync(self, fd, opseq=0):
        return self.fs.fsync(fd, opseq=self._next())

    def fstat_ino(self, fd):
        return self.fs.fstat_ino(fd)


class GeneratorError(RuntimeError):
    """The stream produced an errno on the reference: the generator is
    wrong, and the oracle could not run."""


@dataclass
class Failures:
    """Failed ops of one run, counted and (the first few) named."""

    count: int = 0
    notes: list[str] = field(default_factory=list)
    _LIMIT = 20

    def add(self, note: str, count: int = 1) -> None:
        self.count += count
        if len(self.notes) < self._LIMIT:
            self.notes.append(note)

    def merge(self, other: "Failures") -> None:
        self.count += other.count
        self.notes.extend(other.notes[: self._LIMIT - len(self.notes)])


class Reference:
    """The spec's verdict on one stream: per-op outcomes and final tree."""

    def __init__(self, prepop: list[FsOp], ops: list[FsOp]):
        self.spec = SpecFilesystem()
        numbered = SupervisorNumbering(self.spec)
        self._apply(numbered, prepop, "pre-population")
        # Each arm mounts the pre-populated image under a new supervisor,
        # whose numbering starts over.
        numbered.seq = 0
        self.outcomes: list[OpResult] = self._apply(numbered, ops, "stream")
        self.final_state = capture_state(self.spec)

    @staticmethod
    def _apply(fs: FilesystemAPI, ops: list[FsOp], what: str) -> list[OpResult]:
        outcomes = []
        for index, operation in enumerate(ops):
            outcome = operation.apply(fs)
            if outcome.errno is not None:
                raise GeneratorError(
                    f"{what} op {index} {operation.describe()} -> {outcome.errno.name} on the spec"
                )
            outcomes.append(outcome)
        return outcomes

    def check_outcomes(self, got: list[OpResult | None], start: int, arm: str, failures: Failures) -> None:
        """Compare measured outcomes ``got`` with the reference's from
        stream index ``start``; ``None`` is an op that raised."""
        for offset, outcome in enumerate(got):
            ref = self.outcomes[start + offset]
            if outcome is None:
                failures.add(f"{arm}: op {start + offset} raised")
            elif not outcomes_equivalent(ref, outcome, ino_map=None):
                failures.add(f"{arm}: op {start + offset} outcome differs from the spec")

    def check_final(self, fs: FilesystemAPI, device: MemoryBlockDevice, arm: str, failures: Failures) -> None:
        """Final tree against the spec, then unmount and fsck."""
        report = states_equivalent(self.final_state, capture_state(fs))
        for problem in report.problems:
            failures.add(f"{arm}: final state: {problem}")
        fs.unmount()
        fsck = Fsck(device).run()
        if not fsck.clean:
            failures.add(f"{arm}: fsck: {fsck.errors[0].message}")


def read_whole(fs: FilesystemAPI, path: str) -> bytes:
    """A file's content through the public API (a second descriptor, so
    the stream's own fd offset is untouched)."""
    fd = fs.open(path)
    try:
        return fs.read(fd, fs.stat(path).size)
    finally:
        fs.close(fd)


def durability_check(
    image: bytes, block_count: int, prepop: list[FsOp], ops: list[FsOp], make_fs, failures: Failures
) -> int:
    """Power-loss check: acknowledged writes survive a restart from only
    the flushed bytes.

    Runs ``ops`` through ``make_fs(device)`` on a durability-tracking
    device and, in lockstep, on a fresh spec; at each acknowledged
    ``fsync`` the content the spec holds for the file becomes a promise
    (a later write or unlink of that file withdraws it).  Then power is
    cut without unmounting, a fresh :class:`BaseFilesystem` mounts what
    was flushed, and every promised file is read back.  Each mismatch is
    a failed op; returns the number of promises checked.
    """
    device = MemoryBlockDevice(block_count=block_count, track_durability=True)
    device.restore(image)
    fs = make_fs(device)
    spec = SpecFilesystem()
    for operation in prepop:
        operation.apply(spec)
    promised: dict[str, bytes] = {}
    open_path = ""
    for operation in ops:
        operation.apply(spec)
        operation.apply(fs)
        name = operation.name
        if name == "open":
            open_path = operation.args["path"]
        elif name == "write":
            promised.pop(open_path, None)
        elif name == "unlink":
            promised.pop(operation.args["path"], None)
        elif name == "fsync":
            promised[open_path] = read_whole(spec, open_path)
    device.crash()
    survivor = BaseFilesystem(device)
    for path, content in promised.items():
        try:
            found = read_whole(survivor, path)
        except FsError as err:
            failures.add(f"durability: {path} unreadable after power loss ({err.errno.name})")
            continue
        if found != content:
            failures.add(f"durability: {path} lost acknowledged bytes after power loss")
    return len(promised)
