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
from repro.ondisk.inode import (
    FileType,
    MAX_FILE_SIZE,
    OnDiskInode,
    SLOT_MODE,
    SLOT_NLINK,
    SLOT_POINTERS,
    SLOT_SIZE,
    mode_type,
)
from repro.ondisk.layout import BLOCK_SIZE, DiskLayout
from repro.ondisk.superblock import STATE_CLEAN, STATE_DIRTY, Superblock


# Directory entries store u32 inode numbers: below BASIC nothing bounds them.
_NO_INO_BOUND = 0xFFFF_FFFF


# Operation argument -> (accepted types, the type named when it is refused).
_ARG_TYPES: dict[str, tuple[type | tuple[type, ...], str]] = {
    **dict.fromkeys(("path", "src", "dst", "existing", "new"), (str, "str")),
    **dict.fromkeys(("fd", "length", "offset", "size", "whence", "perms", "flags"), (int, "int")),
    "data": ((bytes, bytearray), "bytes"),
}


class CheckLevel(enum.IntEnum):
    OFF = 0
    BASIC = 1
    FULL = 2


# Enum members bound to module names: reading a member off its class
# costs a descriptor call, and every check starts with a level test.
_BASIC, _FULL = CheckLevel.BASIC, CheckLevel.FULL
_NONE, _DIRECTORY, _SYMLINK = FileType.NONE, FileType.DIRECTORY, FileType.SYMLINK


@dataclass
class CheckStats:
    failures: int = 0
    by_name: dict[str, int] = field(default_factory=dict)

    @property
    def checks_run(self) -> int:
        return sum(self.by_name.values())


class ShadowChecks:
    """Runtime-check engine.  Methods are no-ops below their level."""

    def __init__(self, layout: DiskLayout, level: CheckLevel = CheckLevel.FULL):
        self.layout = layout
        self.level = level
        self.stats = CheckStats()

    def _ran(self, name: str, times: int = 1) -> None:
        by_name = self.stats.by_name
        by_name[name] = by_name.get(name, 0) + times

    def _fail(self, name: str, message: str) -> NoReturn:
        self.stats.failures += 1
        raise InvariantViolation(message, check=name)

    # ---- superblock -------------------------------------------------------

    def superblock(self, sb: Superblock) -> None:
        if self.level < _BASIC:
            return
        self._ran("superblock")
        problems = sb.validate_against(self.layout)
        if problems:
            self._fail("superblock", "; ".join(problems))
        if sb.mount_state not in (STATE_CLEAN, STATE_DIRTY):
            self._fail("superblock", f"bad mount state {sb.mount_state}")

    def superblock_counts(self, sb: Superblock, free_blocks: int, free_inodes: int) -> None:
        if self.level < _FULL:
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
        if self.level < _BASIC:
            return
        self._inode(ino, inode.mode, inode.size, inode.nlink, inode.direct_and_indirect_roots(), allow_orphan)

    def inode_slot(self, ino: int, fields: tuple | None, allow_orphan: bool = False) -> None:
        """:meth:`inode` over the tuple :func:`~repro.ondisk.inode.read_slot`
        returned (None for a zeroed slot, which is a free inode), so the
        caller need not decode the slot into an object first."""
        if self.level < _BASIC:
            return
        if fields is None:
            self._inode(ino, 0, 0, 0, (), allow_orphan)
        else:
            mode, size, nlink = fields[SLOT_MODE], fields[SLOT_SIZE], fields[SLOT_NLINK]
            self._inode(ino, mode, size, nlink, fields[SLOT_POINTERS], allow_orphan)

    def _inode(self, ino: int, mode: int, size: int, nlink: int, pointers, allow_orphan: bool) -> None:
        """The inode predicate over the stored fields: one ``inode`` tick,
        then one ``block-pointer`` tick per nonzero pointer, counted up to
        and including a pointer that fails."""
        self._ran("inode")
        if mode == 0:
            self._fail("inode", f"inode {ino} is free but referenced")
        ftype = mode_type(mode)
        if ftype is _NONE:
            self._fail("inode", f"inode {ino} has invalid type (mode 0x{mode:x})")
        if size > MAX_FILE_SIZE:
            self._fail("inode", f"inode {ino} size {size} exceeds maximum")
        if ftype is _DIRECTORY and size % BLOCK_SIZE:
            self._fail("inode", f"directory inode {ino} has unaligned size {size}")
        if ftype is _SYMLINK and not 0 < size < BLOCK_SIZE:
            self._fail("inode", f"symlink inode {ino} has size {size}")
        if nlink == 0 and not allow_orphan:
            self._fail("inode", f"inode {ino} has zero links but is referenced from the namespace")
        if nlink > 65535:
            self._fail("inode", f"inode {ino} has implausible nlink {nlink}")
        roots = list(filter(None, pointers))
        if not roots:
            return
        layout = self.layout
        block_count, per_group, data_starts = layout.block_count, layout.blocks_per_group, layout.data_starts
        for checked, block in enumerate(roots, 1):
            if not 0 < block < block_count:
                self._ran("block-pointer", checked)
                self._fail("block-pointer", f"inode {ino} references out-of-range block {block}")
            if block < data_starts[block // per_group]:
                self._ran("block-pointer", checked)
                self._fail("block-pointer", f"inode {ino} references metadata block {block}")
        self._ran("block-pointer", len(roots))

    def block_allocated(self, block: int, test_bit) -> None:
        """FULL: a referenced block must be marked allocated.  ``test_bit``
        is a callable (the shadow passes its overlay-aware bitmap read)."""
        if self.level < _FULL:
            return
        self._ran("block-allocated")
        if not test_bit(block):
            self._fail("block-allocated", f"referenced block {block} is free in the block bitmap")

    def ino_allocated(self, ino: int, test_bit) -> None:
        if self.level < _FULL:
            return
        self._ran("ino-allocated")
        if not test_bit(ino):
            self._fail("ino-allocated", f"referenced inode {ino} is free in the inode bitmap")

    # ---- directories ---------------------------------------------------------

    def _dir_walk(self, ino: int, block: int, raw: bytes) -> tuple[list[tuple[int, int, str, FileType]], int]:
        """Walk one directory block: its live records, and the largest
        entry inode number the level allows.

        The walk happens here, once, at every level (below BASIC it is
        all that happens, and a malformed block raises the walker's
        ``ValueError``); BASIC and above tick ``dir-block`` and bound
        every entry's inode number by the inode count — the caller's one
        loop over the records applies that bound."""
        if self.level < _BASIC:
            return walk_entries(raw), _NO_INO_BOUND
        self._ran("dir-block")
        try:
            return walk_entries(raw), self.layout.inode_count
        except ValueError as exc:
            self._fail("dir-block", f"directory {ino} block {block} is malformed: {exc}")

    def dir_block(self, ino: int, block: int, raw: bytes) -> list[DirEntry]:
        """Check one directory block and return its live entries; the
        caller works on them rather than parsing the block again."""
        records, bound = self._dir_walk(ino, block, raw)
        entries = []
        for offset, entry_ino, name, kind in records:
            if entry_ino > bound:
                self._fail("dir-block", f"directory {ino} entry {name!r} points at inode {entry_ino}")
            entries.append(DirEntry(entry_ino, name, kind, offset))
        return entries

    def dir_lookup(self, ino: int, block: int, raw: bytes, name: str) -> DirEntry | None:
        """The entry called ``name`` in one directory block, or None.
        The block is checked exactly as :meth:`dir_block` checks it —
        every name decoded, every inode number in range, one tick —
        and only the match becomes a :class:`DirEntry`."""
        records, bound = self._dir_walk(ino, block, raw)
        found = None
        for offset, entry_ino, stored, kind in records:
            if entry_ino > bound:
                self._fail("dir-block", f"directory {ino} entry {stored!r} points at inode {entry_ino}")
            if stored == name and found is None:
                found = DirEntry(entry_ino, name, kind, offset)
        return found

    def dir_has_dots(self, ino: int, names: set[str]) -> None:
        if self.level < _BASIC:
            return
        self._ran("dir-dots")
        if "." not in names or ".." not in names:
            self._fail("dir-dots", f"directory {ino} lacks '.'/'..' entries")

    # ---- operations -----------------------------------------------------------

    def input_op(self, name: str, args: dict) -> None:
        """Validate an operation before executing it (§2.3: "validating
        input operations")."""
        if self.level < _BASIC:
            return
        self._ran("input-op")
        for key, value in args.items():
            expected = _ARG_TYPES.get(key)
            if expected is not None and not isinstance(value, expected[0]):
                self._fail("input-op", f"{name}: argument {key} is {type(value).__name__}, not {expected[1]}")

    def fd_state(self, fd: int, ino: int, offset: int) -> None:
        if self.level < _BASIC:
            return
        self._ran("fd-state")
        if fd < 3:
            self._fail("fd-state", f"fd {fd} below the reserved range")
        if not 1 <= ino <= self.layout.inode_count:
            self._fail("fd-state", f"fd {fd} references out-of-range inode {ino}")
        if offset < 0:
            self._fail("fd-state", f"fd {fd} has negative offset {offset}")
