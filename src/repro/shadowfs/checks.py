"""The shadow's extensive runtime checks.

§2.3: "the shadow can enable all possible checks to survive dynamic
errors without performance concerns."  This module is that budget being
spent.  Checks run at three levels so the checks-overhead ablation
(benchmarks/test_ablation_runtime_checks.py) can quantify their cost:

* ``OFF`` — no checking beyond what parsing itself enforces;
* ``BASIC`` — structural validation of everything read: superblock and
  inode checksums are already enforced by unpack; this level adds type,
  size, link-count and pointer-range validation per inode, directory
  block chain validation, and fd-table sanity;
* ``FULL`` — everything in BASIC plus cross-structure invariants on each
  access: block pointers must be marked allocated in the bitmap, the
  superblock's free counts must match the bitmaps, directory entry inode
  numbers must reference live inodes.

A failed check raises :class:`InvariantViolation`; during recovery the
replay engine converts that into :class:`RecoveryFailure` — the shadow
refuses to vouch for state it cannot verify, which is the liveness-
versus-safety stance §4.3 discusses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NoReturn

from repro.errors import InvariantViolation
from repro.ondisk.directory import DirEntry, walk_entries
from repro.ondisk.inode import FileType, MAX_FILE_SIZE, OnDiskInode
from repro.ondisk.layout import BLOCK_SIZE, DiskLayout
from repro.ondisk.superblock import STATE_CLEAN, STATE_DIRTY, Superblock


class CheckLevel(enum.IntEnum):
    OFF = 0
    BASIC = 1
    FULL = 2


@dataclass
class CheckStats:
    checks_run: int = 0
    failures: int = 0
    by_name: dict[str, int] = field(default_factory=dict)


class ShadowChecks:
    """Runtime-check engine.  Methods are no-ops below their level."""

    def __init__(self, layout: DiskLayout, level: CheckLevel = CheckLevel.FULL):
        self.layout = layout
        self.level = level
        self.stats = CheckStats()

    def _ran(self, name: str) -> None:
        self.stats.checks_run += 1
        self.stats.by_name[name] = self.stats.by_name.get(name, 0) + 1

    def _fail(self, name: str, message: str) -> NoReturn:
        self.stats.failures += 1
        raise InvariantViolation(message, check=name)

    # ---- superblock -------------------------------------------------------

    def superblock(self, sb: Superblock) -> None:
        if self.level < CheckLevel.BASIC:
            return
        self._ran("superblock")
        problems = sb.validate_against(self.layout)
        if problems:
            self._fail("superblock", "; ".join(problems))
        if sb.mount_state not in (STATE_CLEAN, STATE_DIRTY):
            self._fail("superblock", f"bad mount state {sb.mount_state}")

    def superblock_counts(self, sb: Superblock, free_blocks: int, free_inodes: int) -> None:
        if self.level < CheckLevel.FULL:
            return
        self._ran("superblock-counts")
        if sb.free_blocks != free_blocks:
            self._fail(
                "superblock-counts",
                f"superblock free_blocks {sb.free_blocks} != bitmap count {free_blocks}",
            )
        if sb.free_inodes != free_inodes:
            self._fail(
                "superblock-counts",
                f"superblock free_inodes {sb.free_inodes} != bitmap count {free_inodes}",
            )

    # ---- inodes ------------------------------------------------------------

    def inode(self, ino: int, inode: OnDiskInode, allow_orphan: bool = False) -> None:
        if self.level < CheckLevel.BASIC:
            return
        self._ran("inode")
        if inode.is_free:
            self._fail("inode", f"inode {ino} is free but referenced")
        if inode.ftype not in (FileType.REGULAR, FileType.DIRECTORY, FileType.SYMLINK):
            self._fail("inode", f"inode {ino} has invalid type (mode 0x{inode.mode:x})")
        if inode.size > MAX_FILE_SIZE:
            self._fail("inode", f"inode {ino} size {inode.size} exceeds maximum")
        if inode.is_dir and inode.size % BLOCK_SIZE:
            self._fail("inode", f"directory inode {ino} has unaligned size {inode.size}")
        if inode.is_symlink and not 0 < inode.size < BLOCK_SIZE:
            self._fail("inode", f"symlink inode {ino} has size {inode.size}")
        if inode.nlink == 0 and not allow_orphan:
            self._fail("inode", f"inode {ino} has zero links but is referenced from the namespace")
        if inode.nlink > 65535:
            self._fail("inode", f"inode {ino} has implausible nlink {inode.nlink}")
        for pointer in inode.direct_and_indirect_roots():
            self.block_pointer(ino, pointer)

    def block_pointer(self, ino: int, block: int) -> None:
        if self.level < CheckLevel.BASIC:
            return
        self._ran("block-pointer")
        if not 0 < block < self.layout.block_count:
            self._fail("block-pointer", f"inode {ino} references out-of-range block {block}")
        if self.layout.is_metadata_block(block):
            self._fail("block-pointer", f"inode {ino} references metadata block {block}")

    def block_allocated(self, block: int, test_bit) -> None:
        """FULL: a referenced block must be marked allocated.  ``test_bit``
        is a callable (the shadow passes its overlay-aware bitmap read)."""
        if self.level < CheckLevel.FULL:
            return
        self._ran("block-allocated")
        if not test_bit(block):
            self._fail("block-allocated", f"referenced block {block} is free in the block bitmap")

    def ino_allocated(self, ino: int, test_bit) -> None:
        if self.level < CheckLevel.FULL:
            return
        self._ran("ino-allocated")
        if not test_bit(ino):
            self._fail("ino-allocated", f"referenced inode {ino} is free in the inode bitmap")

    # ---- directories ---------------------------------------------------------

    def _dir_records(self, ino: int, block: int, raw: bytes) -> list[tuple[int, int, str, FileType]]:
        """Validate one directory block and return the walker's
        ``(offset, ino, name, file type)`` per live entry.

        The walk happens here, once, at every level (below BASIC it is
        all that happens, and a malformed block raises the walker's
        ``ValueError``); BASIC and above also range-check every entry's
        inode number."""
        if self.level < CheckLevel.BASIC:
            return walk_entries(raw)
        self._ran("dir-block")
        try:
            records = walk_entries(raw)
        except ValueError as exc:
            self._fail("dir-block", f"directory {ino} block {block} is malformed: {exc}")
        inode_count = self.layout.inode_count
        for _offset, entry_ino, name, _kind in records:
            if not 1 <= entry_ino <= inode_count:
                self._fail("dir-block", f"directory {ino} entry {name!r} points at inode {entry_ino}")
        return records

    def dir_block(self, ino: int, block: int, raw: bytes) -> list[DirEntry]:
        """Check one directory block and return its live entries; the
        caller works on them rather than parsing the block again."""
        return [
            DirEntry(entry_ino, name, kind, offset)
            for offset, entry_ino, name, kind in self._dir_records(ino, block, raw)
        ]

    def dir_lookup(self, ino: int, block: int, raw: bytes, name: str) -> DirEntry | None:
        """The entry called ``name`` in one directory block, or None.
        The block is checked exactly as :meth:`dir_block` checks it —
        every name decoded, every inode number in range, one tick —
        and only the match becomes a :class:`DirEntry`."""
        for offset, entry_ino, stored, kind in self._dir_records(ino, block, raw):
            if stored == name:
                return DirEntry(entry_ino, name, kind, offset)
        return None

    def dir_has_dots(self, ino: int, names: set[str]) -> None:
        if self.level < CheckLevel.BASIC:
            return
        self._ran("dir-dots")
        if "." not in names or ".." not in names:
            self._fail("dir-dots", f"directory {ino} lacks '.'/'..' entries")

    # ---- operations -----------------------------------------------------------

    def input_op(self, name: str, args: dict) -> None:
        """Validate an operation before executing it (§2.3: "validating
        input operations")."""
        if self.level < CheckLevel.BASIC:
            return
        self._ran("input-op")
        for key, value in args.items():
            if key in ("path", "src", "dst", "existing", "new") and not isinstance(value, str):
                self._fail("input-op", f"{name}: argument {key} is {type(value).__name__}, not str")
            if key in ("fd", "length", "offset", "size", "whence", "perms", "flags") and not isinstance(value, int):
                self._fail("input-op", f"{name}: argument {key} is {type(value).__name__}, not int")
            if key == "data" and not isinstance(value, (bytes, bytearray)):
                self._fail("input-op", f"{name}: argument data is {type(value).__name__}, not bytes")

    def fd_state(self, fd: int, ino: int, offset: int) -> None:
        if self.level < CheckLevel.BASIC:
            return
        self._ran("fd-state")
        if fd < 3:
            self._fail("fd-state", f"fd {fd} below the reserved range")
        if not 1 <= ino <= self.layout.inode_count:
            self._fail("fd-state", f"fd {fd} references out-of-range inode {ino}")
        if offset < 0:
            self._fail("fd-state", f"fd {fd} has negative offset {offset}")
