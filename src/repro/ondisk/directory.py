"""Directory entry format.

Directories are regular files whose data blocks hold ext2-style
variable-length entries::

    +--------+---------+----------+-----------+-----------------+
    | ino u32| rec_len | name_len | file_type | name (name_len) |
    +--------+---------+----------+-----------+-----------------+

``rec_len`` chains entries within a block (entries never cross block
boundaries); an entry with ``ino == 0`` is a free slot whose space is
described by its ``rec_len``.  Deleting an entry folds its space into the
*previous* entry's ``rec_len`` (or zeroes the ino if it is first), exactly
the ext2 discipline — which means directory blocks accumulate the kind of
slack and tombstones the shadow's checks and fsck must handle.

:class:`DirBlock` wraps one block with insert/remove/find.  Packing is
byte-exact: base and shadow must produce identical directory *contents*
for identical operation histories (slot placement included, since both use
first-fit), which the equivalence checker exploits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.ondisk.inode import FILE_TYPES, FileType, file_type
from repro.ondisk.layout import BLOCK_SIZE

MAX_NAME_LEN = 255
_HEADER = "<IHBB"
_HEADER_SIZE = struct.calcsize(_HEADER)  # 8
_unpack_header = struct.Struct(_HEADER).unpack_from
_LAST_HEADER = BLOCK_SIZE - _HEADER_SIZE  # the last offset a whole header fits at
# Every name of at most this many characters encodes to <= MAX_NAME_LEN
# bytes (UTF-8 spends at most 4 per character), so only longer names
# need encoding to be measured.
_SURELY_FITS = MAX_NAME_LEN // 4


def entry_size(name_len: int) -> int:
    """On-disk footprint of an entry with ``name_len`` bytes of name,
    rounded to 4-byte alignment."""
    return (_HEADER_SIZE + name_len + 3) & ~3


@dataclass
class DirEntry:
    """One live directory entry (free slots are not represented)."""

    ino: int
    name: str
    ftype: FileType
    offset: int = 0  # byte offset within the block, filled in by parse

    def __post_init__(self):
        if not self.name:
            raise ValueError("empty directory entry name")
        if len(self.name) > _SURELY_FITS and len(self.name.encode()) > MAX_NAME_LEN:
            raise ValueError(f"name too long: {self.name[:32]}...")


def _check_size(data) -> None:
    if len(data) != BLOCK_SIZE:
        raise ValueError(f"directory block must be {BLOCK_SIZE} bytes, got {len(data)}")


def _chain_error(offset: int, rec_len: int) -> str:
    """What is wrong with a record whose ``rec_len`` breaks the chain."""
    if rec_len < _HEADER_SIZE:
        return f"directory record at {offset} has rec_len {rec_len} < header size"
    if rec_len % 4:
        return f"directory record at {offset} has unaligned rec_len {rec_len}"
    return f"directory record at {offset} overruns the block (rec_len {rec_len})"


def walk_records(data) -> list[tuple[int, int, int, int, int]]:
    """``(offset, ino, rec_len, name_len, file_type)`` for every record
    — live and free — of the raw directory block ``data``, read in
    place.  This is the statement of the record-chain rules (which
    :func:`walk_entries` applies in its own pass): a ``ValueError`` names
    the first record that breaks them."""
    _check_size(data)
    records = []
    offset = 0
    while offset < BLOCK_SIZE:
        if offset + _HEADER_SIZE > BLOCK_SIZE:
            raise ValueError(f"directory record header at {offset} crosses block end")
        ino, rec_len, name_len, ftype = _unpack_header(data, offset)
        if rec_len < _HEADER_SIZE or rec_len % 4 or offset + rec_len > BLOCK_SIZE:
            raise ValueError(_chain_error(offset, rec_len))
        if ino != 0 and entry_size(name_len) > rec_len:
            raise ValueError(f"directory record at {offset}: name_len {name_len} exceeds rec_len {rec_len}")
        records.append((offset, ino, rec_len, name_len, ftype))
        offset += rec_len
    if offset != BLOCK_SIZE:
        raise ValueError(f"directory records end at {offset}, not at block boundary")
    return records


def walk_entries(data) -> list[tuple[int, int, str, FileType]]:
    """``(offset, ino, name, file type)`` for every live record of the
    raw directory block ``data``, in block order, with the whole block
    validated before anything is returned: the chain as
    :func:`walk_records` validates it, then per live record a known
    file type and a non-empty name that is UTF-8.

    One pass over the block.  A chain error anywhere outranks a name or
    type error: the first of those is held until the chain has been
    walked to the end, so the ``ValueError`` raised is the one a walk of
    the chain followed by a walk of the names would raise first."""
    _check_size(data)
    live = []
    append = live.append
    unpack = _unpack_header
    kinds = FILE_TYPES
    held = None
    offset = 0
    while offset <= _LAST_HEADER:  # every record starting here has its header in the block
        ino, rec_len, name_len, ftype = unpack(data, offset)
        end = offset + rec_len
        if rec_len < _HEADER_SIZE or rec_len % 4 or end > BLOCK_SIZE:
            raise ValueError(_chain_error(offset, rec_len))
        if ino:
            start = offset + _HEADER_SIZE
            if (start + name_len + 3) & ~3 > end:  # entry_size(name_len) > rec_len, offset 4-aligned
                raise ValueError(f"directory record at {offset}: name_len {name_len} exceeds rec_len {rec_len}")
            if held is None:
                try:
                    name = data[start : start + name_len].decode()
                    kind = kinds[ftype] if ftype in kinds else file_type(ftype)  # raises for an unknown type
                    if not name_len:
                        raise ValueError("empty directory entry name")
                    append((offset, ino, name, kind))
                except ValueError as exc:
                    held = exc
        offset = end
    if offset != BLOCK_SIZE:
        raise ValueError(f"directory record header at {offset} crosses block end")
    if held is not None:
        raise held
    return live


def _encoded_name(name: str) -> bytes:
    encoded = name.encode()
    if not 0 < len(encoded) <= MAX_NAME_LEN:
        raise ValueError(f"bad name length {len(encoded)}")
    return encoded


def has_room_for(data, name: str) -> bool:
    """Would :meth:`DirBlock.insert` of ``name`` into the raw directory
    block ``data`` succeed?  Answered in place, from the records alone:
    a free record at least an entry's size long, or a live record with
    that much slack past its own entry."""
    needed = entry_size(len(_encoded_name(name)))
    for _offset, ino, rec_len, name_len, _ftype in walk_records(data):
        if rec_len - (entry_size(name_len) if ino else 0) >= needed:
            return True
    return False


class DirBlock:
    """One directory data block.

    A fresh block is a single free slot spanning the whole block.  All
    mutation is first-fit and deterministic.
    """

    def __init__(self, data: bytes | None = None):
        if data is None:
            empty = struct.pack(_HEADER, 0, BLOCK_SIZE, 0, 0)
            self._data = bytearray(empty + b"\x00" * (BLOCK_SIZE - len(empty)))
        else:
            _check_size(data)
            self._data = bytearray(data)

    def to_block(self) -> bytes:
        return bytes(self._data)

    # ---- reading: thin users of the walkers --------------------------------

    def entries(self) -> list[DirEntry]:
        """All live entries in block order."""
        return [DirEntry(ino, name, kind, offset) for offset, ino, name, kind in walk_entries(self._data)]

    def find(self, name: str) -> DirEntry | None:
        """The live entry called ``name``, or None.

        Names are compared as stored, so only the match becomes a
        :class:`DirEntry`.  The whole block is still validated as
        :meth:`entries` validates it — chain, file types, no empty
        name — except that the *other* names are not decoded."""
        encoded = name.encode()
        wanted = len(encoded)
        data = self._data
        found = None
        for offset, ino, _rec_len, name_len, ftype in walk_records(data):
            if ino == 0:
                continue
            kind = file_type(ftype)
            if name_len == 0:
                raise ValueError("empty directory entry name")
            start = offset + _HEADER_SIZE
            if found is None and name_len == wanted and data[start : start + wanted] == encoded:
                found = DirEntry(ino, name, kind, offset)
        return found

    # ---- mutation ----------------------------------------------------------

    def insert(self, ino: int, name: str, ftype: FileType) -> bool:
        """First-fit insert; returns False if no slot is large enough.

        The caller (either filesystem) is responsible for having checked
        name uniqueness across the whole directory.
        """
        if ino == 0:
            raise ValueError("cannot insert entry with ino 0")
        encoded = _encoded_name(name)
        needed = entry_size(len(encoded))

        for offset, rec_ino, rec_len, name_len, _ftype in walk_records(self._data):
            if rec_ino == 0:
                if rec_len >= needed:
                    self._write_record(offset, ino, rec_len, encoded, ftype)
                    return True
            else:
                used = entry_size(name_len)
                slack = rec_len - used
                if slack >= needed:
                    # Shrink the live record to its minimal footprint and
                    # carve the new entry out of its slack.
                    struct.pack_into("<H", self._data, offset + 4, used)
                    self._write_record(offset + used, ino, slack, encoded, ftype)
                    return True
        return False

    def remove(self, name: str) -> bool:
        """Remove the entry named ``name``; returns whether it existed."""
        records = walk_records(self._data)
        for i, (offset, ino, rec_len, name_len, _ftype) in enumerate(records):
            if ino == 0:
                continue
            current = self._data[offset + _HEADER_SIZE : offset + _HEADER_SIZE + name_len].decode()
            if current != name:
                continue
            if i == 0:
                # First record: mark free, keep its rec_len.
                struct.pack_into(_HEADER, self._data, offset, 0, rec_len, 0, 0)
            else:
                # Fold into the previous record.
                prev_offset, prev_ino, prev_len, prev_name_len, prev_ftype = records[i - 1]
                struct.pack_into(
                    _HEADER, self._data, prev_offset, prev_ino, prev_len + rec_len, prev_name_len, prev_ftype
                )
            return True
        return False

    def is_empty(self) -> bool:
        """True if the block holds no live entries."""
        return not self.entries()

    def free_space_for(self, name: str) -> bool:
        """Would ``insert(name)`` succeed?  (Non-mutating probe.)"""
        return has_room_for(self._data, name)

    def _write_record(self, offset: int, ino: int, rec_len: int, encoded_name: bytes, ftype: FileType) -> None:
        struct.pack_into(_HEADER, self._data, offset, ino, rec_len, len(encoded_name), int(ftype))
        name_start = offset + _HEADER_SIZE
        self._data[name_start : name_start + len(encoded_name)] = encoded_name
        # Zero any stale bytes between the name end and the record end so
        # identical histories produce byte-identical blocks.
        pad_start = name_start + len(encoded_name)
        pad_end = offset + min(rec_len, entry_size(len(encoded_name)))
        if pad_end > pad_start:
            self._data[pad_start:pad_end] = b"\x00" * (pad_end - pad_start)
