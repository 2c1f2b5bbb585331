"""Reference implementations the in-place walkers are compared against.

These are the bodies ``DirBlock._records``/``entries``/``find``,
``OnDiskInode.unpack`` and ``BaseFilesystem._validate_txn`` had before
they were rebuilt on ``walk_records``/``walk_entries``/``read_slot``:
copy the block, parse every record into an object, look through the
objects.  Likewise the one-pointer reads and writes every block map did
before ``pointer_at``/``with_pointer`` (unpack all 1024 pointers, index
or set one, pack all 1024 back), ``PageCache.dirty_pages`` before it
sorted only the dirty pages, and the shadow's two-pass ``walk_entries``
and its inode read (``ShadowFilesystem._iget`` with ``ShadowChecks.inode``)
before each became one pass.  They share nothing with ``src/`` but the
struct formats and constants, so an edit to a walker cannot move its
reference with it.
"""

from __future__ import annotations

import struct

from repro.errors import InvariantViolation
from repro.ondisk.directory import DirEntry, entry_size
from repro.ondisk.inode import MAX_FILE_SIZE, N_DIRECT, PTRS_PER_BLOCK, FileType, OnDiskInode
from repro.ondisk.layout import BLOCK_SIZE, INODE_SIZE
from repro.ondisk.superblock import Superblock
from repro.util import checksum32

_HEADER = "<IHBB"
_HEADER_SIZE = 8
_INODE_FORMAT = "<IIIIIQQQQI" + "I" * N_DIRECT + "III"
_INODE_FORMAT_SIZE = struct.calcsize(_INODE_FORMAT)


def outcome(function, *args, **kwargs):
    """What the call returns, or the type and text of its ValueError —
    so a walker and its reference can be compared on malformed input."""
    try:
        return function(*args, **kwargs)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def reference_records(raw: bytes) -> list[tuple[int, int, int, int, int]]:
    if len(raw) != BLOCK_SIZE:
        raise ValueError(f"directory block must be {BLOCK_SIZE} bytes, got {len(raw)}")
    data = bytearray(raw)
    records = []
    offset = 0
    while offset < BLOCK_SIZE:
        if offset + _HEADER_SIZE > BLOCK_SIZE:
            raise ValueError(f"directory record header at {offset} crosses block end")
        ino, rec_len, name_len, ftype = struct.unpack_from(_HEADER, data, offset)
        if rec_len < _HEADER_SIZE:
            raise ValueError(f"directory record at {offset} has rec_len {rec_len} < header size")
        if rec_len % 4 != 0:
            raise ValueError(f"directory record at {offset} has unaligned rec_len {rec_len}")
        if offset + rec_len > BLOCK_SIZE:
            raise ValueError(f"directory record at {offset} overruns the block (rec_len {rec_len})")
        if ino != 0 and entry_size(name_len) > rec_len:
            raise ValueError(f"directory record at {offset}: name_len {name_len} exceeds rec_len {rec_len}")
        records.append((offset, ino, rec_len, name_len, ftype))
        offset += rec_len
    if offset != BLOCK_SIZE:
        raise ValueError(f"directory records end at {offset}, not at block boundary")
    return records


def reference_entries(raw: bytes) -> list[DirEntry]:
    out = []
    for offset, ino, _rec_len, name_len, ftype in reference_records(raw):
        if ino == 0:
            continue
        start = offset + _HEADER_SIZE
        out.append(DirEntry(ino, raw[start : start + name_len].decode(), FileType(ftype), offset))
    return out


def reference_find(raw: bytes, name: str) -> DirEntry | None:
    encoded = name.encode()
    found = None
    for offset, ino, _rec_len, name_len, ftype in reference_records(raw):
        if ino == 0:
            continue
        kind = FileType(ftype)
        if name_len == 0:
            raise ValueError("empty directory entry name")
        start = offset + _HEADER_SIZE
        if found is None and raw[start : start + name_len] == encoded:
            found = DirEntry(ino, name, kind, offset)
    return found


def reference_unpack(raw: bytes, verify: bool = True) -> OnDiskInode:
    size = _INODE_FORMAT_SIZE
    if len(raw) < size:
        raise ValueError(f"inode slot too short: {len(raw)} bytes")
    if raw[:size] == b"\x00" * size:
        return OnDiskInode()
    fields = struct.unpack(_INODE_FORMAT, raw[:size])
    stored_crc = fields[-1]
    if verify:
        actual_crc = checksum32(raw[: size - 4])
        if actual_crc != stored_crc:
            raise ValueError(f"inode checksum mismatch: stored 0x{stored_crc:08x}, computed 0x{actual_crc:08x}")
    return OnDiskInode(
        mode=fields[0],
        uid=fields[1],
        gid=fields[2],
        nlink=fields[3],
        flags=fields[4],
        size=fields[5],
        atime=fields[6],
        mtime=fields[7],
        ctime=fields[8],
        generation=fields[9],
        direct=list(fields[10 : 10 + N_DIRECT]),
        indirect=fields[10 + N_DIRECT],
        double_indirect=fields[11 + N_DIRECT],
    )


def _reference_pointers(block: bytes) -> list[int]:
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"indirect block must be {BLOCK_SIZE} bytes, got {len(block)}")
    return list(struct.unpack(f"<{PTRS_PER_BLOCK}I", block))


def reference_pointer_at(block: bytes, index: int) -> int:
    return _reference_pointers(block)[index]


def reference_with_pointer(block: bytes, index: int, value: int) -> bytes:
    pointers = _reference_pointers(block)
    pointers[index] = value
    return struct.pack(f"<{PTRS_PER_BLOCK}I", *pointers)


def reference_dirty_pages(cache) -> list:
    """``PageCache.dirty_pages`` as it stood at afe42a5: sort every
    cached key, keep the dirty pages."""
    pages = cache._pages
    return [pages[key] for key in sorted(pages) if pages[key].dirty]


def reference_validate_txn(fs, txn: dict[int, bytes]) -> list[str]:
    """``BaseFilesystem._validate_txn`` as it stood at d2e6415, reading
    the same filesystem state (``alloc``, ``_block_role``, ``layout``)."""
    problems: list[str] = []
    bitmap_free_blocks = sum(bm.count_free() for bm in fs.alloc.block_bitmaps)
    if bitmap_free_blocks != fs.alloc.free_blocks:
        problems.append(f"free_blocks accounting {fs.alloc.free_blocks} != bitmap count {bitmap_free_blocks}")
    bitmap_free_inodes = sum(bm.count_free() for bm in fs.alloc.inode_bitmaps)
    if bitmap_free_inodes != fs.alloc.free_inodes:
        problems.append(f"free_inodes accounting {fs.alloc.free_inodes} != bitmap count {bitmap_free_inodes}")
    for block, data in sorted(txn.items()):
        role = "sb" if block == 0 else fs._block_role.get(block, "unknown")
        try:
            if role == "sb":
                sb = Superblock.unpack(data)
                if sb.free_blocks != fs.alloc.free_blocks:
                    problems.append(f"superblock free_blocks {sb.free_blocks} != accounting {fs.alloc.free_blocks}")
            elif role == "dir":
                reference_entries(data)
            elif role == "itable":
                for offset in range(0, BLOCK_SIZE, INODE_SIZE):
                    inode = reference_unpack(data[offset : offset + INODE_SIZE])
                    if inode.is_free:
                        continue
                    if inode.ftype == FileType.NONE:
                        problems.append(f"inode in block {block}+{offset} has invalid type")
                    if inode.size > MAX_FILE_SIZE:
                        problems.append(f"inode in block {block}+{offset} has size {inode.size}")
                    if inode.is_dir and inode.size % BLOCK_SIZE:
                        problems.append(f"dir inode in block {block}+{offset} has unaligned size")
                    if inode.nlink > 65535:
                        problems.append(f"inode in block {block}+{offset} has nlink {inode.nlink}")
            elif role == "indirect":
                for pointer in _reference_pointers(data):
                    if pointer and not 0 < pointer < fs.layout.block_count:
                        problems.append(f"indirect block {block} points at {pointer}")
        except (ValueError, InvariantViolation) as exc:
            problems.append(f"block {block} ({role}): {exc}")
        if role in ("dir", "indirect", "symlink") and block != 0:
            group = fs.layout.group_of_block(block)
            bit = block - fs.layout.group_start(group)
            if not fs.alloc.block_bitmaps[group].test(bit):
                problems.append(f"journaled {role} block {block} is not allocated in the bitmap")
    return problems



def reference_walk_entries(raw: bytes) -> list[tuple[int, int, str, FileType]]:
    """``walk_entries`` as it stood at a417616: walk the chain, then walk
    its live records again for their names and types."""
    live = []
    for offset, ino, _rec_len, name_len, ftype in reference_records(raw):
        if ino == 0:
            continue
        start = offset + _HEADER_SIZE
        name = raw[start : start + name_len].decode()
        kind = FileType(ftype)
        if name_len == 0:
            raise ValueError("empty directory entry name")
        live.append((offset, ino, name, kind))
    return live


_TYPE_SHIFT = 12
_LIVE_TYPES = (int(FileType.REGULAR), int(FileType.DIRECTORY), int(FileType.SYMLINK))


def _tick(stats, name: str) -> None:
    stats.by_name[name] = stats.by_name.get(name, 0) + 1


def _refuse(stats, name: str, message: str):
    stats.failures += 1
    raise InvariantViolation(message, check=name)


def reference_iget(shadow, ino: int, allow_orphan: bool = False, level: int = 2) -> OnDiskInode:
    """``ShadowFilesystem._iget`` with ``ShadowChecks.inode``,
    ``block_pointer``, ``ino_allocated`` and ``_ino_is_allocated`` as they
    stood at a417616, reading ``shadow``'s blocks and counting into its
    check statistics; ``level`` is the check level (0 OFF, 1 BASIC, 2 FULL)."""
    layout, stats = shadow.layout, shadow.checks.stats
    if not 1 <= ino <= layout.inode_count:
        raise ValueError(f"inode {ino} out of range [1, {layout.inode_count}]")
    group, index = (ino - 1) // layout.inodes_per_group, (ino - 1) % layout.inodes_per_group
    meta_start = 1 + layout.journal_blocks if group == 0 else group * layout.blocks_per_group
    block = meta_start + 2 + index // (BLOCK_SIZE // INODE_SIZE)
    offset = (index % (BLOCK_SIZE // INODE_SIZE)) * INODE_SIZE
    raw = shadow._read_block(block)
    inode = reference_unpack(raw[offset : offset + INODE_SIZE])
    if inode.nlink == 0 and not allow_orphan:
        allow_orphan = ino in shadow._orphans or bool(shadow.fd_table.fds_for_ino(ino))
    if level >= 1:
        _tick(stats, "inode")
        kind = inode.mode >> _TYPE_SHIFT
        if inode.mode == 0:
            _refuse(stats, "inode", f"inode {ino} is free but referenced")
        if kind not in _LIVE_TYPES:
            _refuse(stats, "inode", f"inode {ino} has invalid type (mode 0x{inode.mode:x})")
        if inode.size > MAX_FILE_SIZE:
            _refuse(stats, "inode", f"inode {ino} size {inode.size} exceeds maximum")
        if kind == FileType.DIRECTORY and inode.size % BLOCK_SIZE:
            _refuse(stats, "inode", f"directory inode {ino} has unaligned size {inode.size}")
        if kind == FileType.SYMLINK and not 0 < inode.size < BLOCK_SIZE:
            _refuse(stats, "inode", f"symlink inode {ino} has size {inode.size}")
        if inode.nlink == 0 and not allow_orphan:
            _refuse(stats, "inode", f"inode {ino} has zero links but is referenced from the namespace")
        if inode.nlink > 65535:
            _refuse(stats, "inode", f"inode {ino} has implausible nlink {inode.nlink}")
        for pointer in [*inode.direct, inode.indirect, inode.double_indirect]:
            if not pointer:
                continue
            _tick(stats, "block-pointer")
            if not 0 < pointer < layout.block_count:
                _refuse(stats, "block-pointer", f"inode {ino} references out-of-range block {pointer}")
            pointer_group = pointer // layout.blocks_per_group
            pointer_meta = 1 + layout.journal_blocks if pointer_group == 0 else pointer_group * layout.blocks_per_group
            if pointer < pointer_meta + 2 + layout.inodes_per_group // (BLOCK_SIZE // INODE_SIZE):
                _refuse(stats, "block-pointer", f"inode {ino} references metadata block {pointer}")
    if level >= 2:
        _tick(stats, "ino-allocated")
        bitmap = bytearray(shadow._read_block(meta_start + 1))
        if not bitmap[index // 8] & (1 << (index % 8)):
            _refuse(stats, "ino-allocated", f"referenced inode {ino} is free in the inode bitmap")
    return inode