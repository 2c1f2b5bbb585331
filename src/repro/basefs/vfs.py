"""VFS-level state: open-file descriptors.

File descriptors are one of the two "essential states" recovery must
reconstruct (the other is on-disk metadata): fd *numbers* are
application-visible, so both the base and the shadow's replay engine use
this exact table with its lowest-free-fd-from-3 allocation rule.

A descriptor carries the inode number, open flags, and current offset.
There is no per-process separation — the reproduction models a single
application principal, which is all the paper's recovery story needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from repro.api import OpenFlags
from repro.errors import Errno, FsError

FIRST_FD = 3  # 0-2 reserved, as everywhere


@dataclass
class FdState:
    """One open descriptor.  ``replace``-able for snapshots."""

    fd: int
    ino: int
    flags: OpenFlags
    offset: int = 0

    def snapshot(self) -> "FdState":
        return replace(self)


class FdTable:
    """Descriptor table with deterministic lowest-free allocation."""

    def __init__(self):
        self._open: dict[int, FdState] = {}

    def __len__(self) -> int:
        return len(self._open)

    def __contains__(self, fd: int) -> bool:
        return fd in self._open

    def allocate(self, ino: int, flags: OpenFlags, offset: int = 0) -> FdState:
        fd = FIRST_FD
        while fd in self._open:
            fd += 1
        state = FdState(fd=fd, ino=ino, flags=flags, offset=offset)
        self._open[fd] = state
        return state

    def install(self, state: FdState) -> None:
        """Install a descriptor at a specific number (recovery hand-off)."""
        if state.fd in self._open:
            raise ValueError(f"fd {state.fd} already open")
        if state.fd < FIRST_FD:
            raise ValueError(f"fd {state.fd} below FIRST_FD")
        self._open[state.fd] = state

    def get(self, fd: int) -> FdState:
        state = self._open.get(fd)
        if state is None:
            raise FsError(Errno.EBADF, f"fd {fd} not open")
        return state

    def release(self, fd: int) -> FdState:
        state = self._open.pop(fd, None)
        if state is None:
            raise FsError(Errno.EBADF, f"fd {fd} not open")
        return state

    def open_fds(self) -> list[int]:
        return sorted(self._open)

    def fds_for_ino(self, ino: int) -> list[int]:
        return sorted(fd for fd, st in self._open.items() if st.ino == ino)

    def states(self) -> Mapping[int, FdState]:
        """The open descriptors themselves, for a reader that copies
        whatever it keeps (``OpLog.truncate``); everyone else wants
        :meth:`snapshot`."""
        return self._open

    def snapshot(self) -> dict[int, FdState]:
        """Deep-copied view of the open descriptors."""
        return {fd: st.snapshot() for fd, st in self._open.items()}

    def clear(self) -> None:
        self._open.clear()
