"""On-disk inodes.

Each inode is 256 bytes: type/permissions, ownership, link count, size,
logical timestamps, 12 direct block pointers, one single-indirect and one
double-indirect pointer, a generation number, and a trailing CRC.  A block
pointer of 0 means "hole / unallocated" (block 0 is the superblock, so it
can never legitimately be file data).

With 4 KiB blocks the size ceiling is ``(12 + 1024 + 1024²) * 4096`` ≈ 4 GiB,
far beyond anything the experiments create, but enforced anyway
(``EFBIG``) because bound checks are exactly the kind of input sanity the
bug study found missing in real filesystems.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from repro.ondisk.layout import BLOCK_SIZE, INODE_SIZE
from repro.util import checksum32

N_DIRECT = 12
PTRS_PER_BLOCK = BLOCK_SIZE // 4  # 1024 u32 pointers per indirect block

MAX_FILE_BLOCKS = N_DIRECT + PTRS_PER_BLOCK + PTRS_PER_BLOCK * PTRS_PER_BLOCK
MAX_FILE_SIZE = MAX_FILE_BLOCKS * BLOCK_SIZE


class FileType(enum.IntEnum):
    """File type stored in the high bits of ``mode`` (values are ad hoc)."""

    NONE = 0
    REGULAR = 1
    DIRECTORY = 2
    SYMLINK = 3


# Stored type value -> FileType, for readers that test many values.
FILE_TYPES = {member.value: member for member in FileType}
# Members bound to module names for the per-inode type tests: reading a
# member off its class costs a descriptor call.
_NONE, _REGULAR, _DIRECTORY, _SYMLINK = FileType.NONE, FileType.REGULAR, FileType.DIRECTORY, FileType.SYMLINK


def file_type(raw: int) -> FileType:
    """``FileType(raw)`` by table lookup — the enum call costs several
    times a dict hit, and every inode type test and directory entry
    parse goes through here.  An unknown value takes the enum call and
    so raises its ``ValueError``."""
    member = FILE_TYPES.get(raw)
    return member if member is not None else FileType(raw)


_TYPE_SHIFT = 12
_PERM_MASK = 0o7777

# mode, uid, gid, nlink, flags, size, atime, mtime, ctime, generation,
# 12 direct, indirect, double_indirect, checksum
_FORMAT = "<IIIIIQQQQI" + "I" * N_DIRECT + "III"
_SIZE = struct.calcsize(_FORMAT)
assert _SIZE <= INODE_SIZE, _SIZE
_unpack_slot_from = struct.Struct(_FORMAT).unpack_from
_pack_body = struct.Struct(_FORMAT[:-1]).pack  # every field but the checksum
_SLOT_PAD = bytes(INODE_SIZE - _SIZE)
# Where a reader of :func:`read_slot`'s tuple finds the fields it tests;
# ``fields[SLOT_POINTERS]`` is the 12 direct, indirect and double
# indirect pointers, in that order.
SLOT_MODE, SLOT_NLINK, SLOT_SIZE = 0, 3, 5
SLOT_POINTERS = slice(10, 10 + N_DIRECT + 2)


def make_mode(ftype: FileType, perms: int = 0o644) -> int:
    """Compose a mode word from a file type and permission bits."""
    return (int(ftype) << _TYPE_SHIFT) | (perms & _PERM_MASK)


def mode_type(mode: int) -> FileType:
    """The file type a mode word stores; type bits that name no type
    read as ``FileType.NONE``."""
    return FILE_TYPES.get(mode >> _TYPE_SHIFT, _NONE)


def read_slot(raw, offset: int = 0, verify: bool = True) -> tuple | None:
    """The stored fields of the inode slot at ``offset`` of ``raw``, in
    ``_FORMAT`` order (mode, uid, gid, nlink, flags, size, atime, mtime,
    ctime, generation, 12 direct pointers, indirect, double indirect,
    checksum), read in place — ``raw`` may be a whole inode-table block.

    A completely zeroed slot is a free inode and reads as None without
    checksum verification (zero is not a valid CRC of the zero prefix,
    and free slots are simply never written).  Any nonzero slot must
    checksum."""
    if len(raw) < offset + _SIZE:
        raise ValueError(f"inode slot too short: {len(raw[offset : offset + _SIZE])} bytes")
    fields = _unpack_slot_from(raw, offset)
    stored_crc = fields[-1]
    # Every byte of the slot is some field, so all-zero fields are a
    # zeroed slot; a stored CRC of zero is rare enough to test first.
    if not stored_crc and not any(fields):
        return None
    if verify:
        actual_crc = checksum32(raw[offset : offset + _SIZE - 4])
        if actual_crc != stored_crc:
            raise ValueError(f"inode checksum mismatch: stored 0x{stored_crc:08x}, computed 0x{actual_crc:08x}")
    return fields


@dataclass
class OnDiskInode:
    """One inode as stored in the inode table.

    The dataclass is mutable working state; ``pack`` freezes it into its
    256-byte slot.  Equality compares every stored field, which the
    base/shadow equivalence checker relies on (timestamps are logical, so
    they too must agree).
    """

    mode: int = 0
    uid: int = 0
    gid: int = 0
    nlink: int = 0
    flags: int = 0
    size: int = 0
    atime: int = 0
    mtime: int = 0
    ctime: int = 0
    generation: int = 0
    direct: list[int] = field(default_factory=lambda: [0] * N_DIRECT)
    indirect: int = 0
    double_indirect: int = 0

    # ---- type helpers ----------------------------------------------------

    @property
    def ftype(self) -> FileType:
        return mode_type(self.mode)

    @property
    def perms(self) -> int:
        return self.mode & _PERM_MASK

    # The type bits compared directly: equal to testing ``ftype``, since
    # bits that name no type read as NONE, which is none of these.
    @property
    def is_regular(self) -> bool:
        return self.mode >> _TYPE_SHIFT == _REGULAR

    @property
    def is_dir(self) -> bool:
        return self.mode >> _TYPE_SHIFT == _DIRECTORY

    @property
    def is_symlink(self) -> bool:
        return self.mode >> _TYPE_SHIFT == _SYMLINK

    @property
    def is_free(self) -> bool:
        """An all-zero mode marks a never-used / freed inode slot."""
        return self.mode == 0

    def block_count(self) -> int:
        """Logical blocks spanned by ``size`` (not blocks allocated)."""
        return (self.size + BLOCK_SIZE - 1) // BLOCK_SIZE

    # ---- serialization ---------------------------------------------------

    def pack(self) -> bytes:
        if len(self.direct) != N_DIRECT:
            raise ValueError(f"inode has {len(self.direct)} direct pointers, expected {N_DIRECT}")
        body = _pack_body(
            self.mode,
            self.uid,
            self.gid,
            self.nlink,
            self.flags,
            self.size,
            self.atime,
            self.mtime,
            self.ctime,
            self.generation,
            *self.direct,
            self.indirect,
            self.double_indirect,
        )
        return body + checksum32(body).to_bytes(4, "little") + _SLOT_PAD

    @classmethod
    def unpack(cls, raw: bytes, verify: bool = True) -> "OnDiskInode":
        """Parse a 256-byte inode slot as :func:`read_slot` reads it; a
        zero slot parses as a free inode."""
        return cls.from_slot(read_slot(raw, verify=verify))

    @classmethod
    def from_slot(cls, fields: tuple | None) -> "OnDiskInode":
        """The inode :func:`read_slot` returned ``fields`` for (None, a
        zeroed slot, is a free inode)."""
        if fields is None:
            return cls()
        return cls(*fields[:10], list(fields[10 : 10 + N_DIRECT]), fields[10 + N_DIRECT], fields[11 + N_DIRECT])

    def copy(self) -> "OnDiskInode":
        return OnDiskInode(
            mode=self.mode,
            uid=self.uid,
            gid=self.gid,
            nlink=self.nlink,
            flags=self.flags,
            size=self.size,
            atime=self.atime,
            mtime=self.mtime,
            ctime=self.ctime,
            generation=self.generation,
            direct=list(self.direct),
            indirect=self.indirect,
            double_indirect=self.double_indirect,
        )

    def direct_and_indirect_roots(self) -> list[int]:
        """All nonzero top-level pointers (for fsck reachability scans)."""
        roots = [b for b in self.direct if b]
        if self.indirect:
            roots.append(self.indirect)
        if self.double_indirect:
            roots.append(self.double_indirect)
        return roots
