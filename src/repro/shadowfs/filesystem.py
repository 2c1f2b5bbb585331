"""The shadow filesystem implementation.

``ShadowFilesystem`` implements the same :class:`repro.api.FilesystemAPI`
contract and the same on-disk format as the base, as "the simplest
possible yet equivalent implementation" (§2.3):

* **sequential and synchronous** — one operation at a time, device reads
  issued directly, no queues;
* **no caches** — no block, inode, entry or check verdict is kept
  between uses: path lookup starts at the root inode and scans directory
  entries every time; inodes and bitmaps are re-read (through the
  overlay) on every use, each in one pass over the bytes in place.  The
  only thing computed once is the layout's per-group geometry tables,
  arithmetic of the immutable superblock fields rather than image state;
* **never writes to the device** — construction wraps the device in a
  :class:`WriteFencedDevice`, and every mutation lands in the
  :class:`Overlay`, an in-memory block map that is simultaneously the
  shadow's working state and its recovery output;
* **immediate allocation** with the simplest policy: first free bit,
  scanning groups from zero;
* **checks everywhere** — every structure read is validated by
  :class:`~repro.shadowfs.checks.ShadowChecks` at the configured level.

Semantic equivalence with the base is exact for everything applications
can observe (return values, errnos, inode numbers under constrained
allocation, timestamps, file bytes) and for metadata *consistency*; block
placement may differ, which is the §3.3-sanctioned policy divergence.

``fsync`` raises ``FsError(EINVAL)``: the shadow omits the sync family
(§3.3), and the replay engine skips/delegates those records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import (
    FilesystemAPI,
    OpenFlags,
    SYMLINK_DEPTH_LIMIT,
    StatResult,
    parent_and_name,
    split_path,
)
from repro.basefs.vfs import FdState, FdTable
from repro.blockdev.device import BlockDevice, WriteFencedDevice
from repro.errors import DeviceError, Errno, FsError, InvariantViolation
from repro.ondisk.bitmap import count_set_in_block, first_clear_in_block, with_bit
from repro.ondisk.directory import DirBlock, DirEntry, has_room_for
from repro.ondisk.inode import (
    FileType,
    MAX_FILE_SIZE,
    N_DIRECT,
    OnDiskInode,
    PTRS_PER_BLOCK,
    SLOT_NLINK,
    make_mode,
    read_slot,
)
from repro.ondisk.journal import replay_journal
from repro.ondisk.layout import BLOCK_SIZE, INODE_SIZE
from repro.ondisk.mapping import pack_pointers, pointer_at, unpack_pointers, with_pointer
from repro.ondisk.superblock import STATE_DIRTY, Superblock
from repro.shadowfs.checks import CheckLevel, ShadowChecks

MAX_SYMLINK_TARGET = BLOCK_SIZE - 1
_FREE_SLOT = bytes(INODE_SIZE)
# The open flags as plain int masks, tested against ``int(flags)``: an
# IntFlag operation builds an enum member every time.
_CREAT, _EXCL, _TRUNC, _APPEND = (int(flag) for flag in (OpenFlags.CREAT, OpenFlags.EXCL, OpenFlags.TRUNC, OpenFlags.APPEND))
READ_RETRIES = 3  # transient device faults are retried, a runtime-check-era courtesy


@dataclass
class Overlay:
    """All state the shadow produces: modified blocks, never written back.

    ``roles`` classifies each overlay block for the hand-off (and for the
    base's validate-on-sync once ingested); ``data_pages`` maps
    ``(ino, logical) -> physical`` for file-data blocks, which hand off
    into the base's *page* cache rather than its buffer cache.
    """

    blocks: dict[int, bytes] = field(default_factory=dict)
    roles: dict[int, str] = field(default_factory=dict)
    data_pages: dict[tuple[int, int], int] = field(default_factory=dict)
    touched_inos: set[int] = field(default_factory=set)

    def write(self, block: int, data: bytes, role: str) -> None:
        if len(data) != BLOCK_SIZE:
            raise ValueError(f"overlay write of {len(data)} bytes to block {block}")
        self.blocks[block] = bytes(data)
        self.roles[block] = role

    def metadata_blocks(self) -> dict[int, bytes]:
        """Overlay blocks that are metadata (everything but file data)."""
        data_physicals = set(self.data_pages.values())
        return {b: d for b, d in self.blocks.items() if b not in data_physicals}

    def data_blocks(self) -> dict[tuple[int, int], bytes]:
        """File data as ``(ino, logical) -> bytes``."""
        return {key: self.blocks[physical] for key, physical in self.data_pages.items()}


@dataclass
class Ref:
    """A (possibly stale) working reference: inode number + decoded inode.

    The shadow re-reads instead of caching, so a Ref is only valid within
    the operation that created it; mutations write through immediately.
    """

    ino: int
    inode: OnDiskInode


class ShadowFilesystem(FilesystemAPI):
    def __init__(self, device: BlockDevice, check_level: CheckLevel = CheckLevel.FULL):
        self.device = WriteFencedDevice(device)
        self.overlay = Overlay()
        self.fd_table = FdTable()
        self.ino_hint: int | None = None  # constrained-mode allocation directive
        self._orphans: set[int] = set()

        sb = Superblock.unpack(self._read_block(0))
        self.layout = sb.layout()
        self.checks = ShadowChecks(self.layout, level=check_level)
        if sb.mount_state == STATE_DIRTY:
            # The image was in use; absorb its committed journal into the
            # overlay (the shadow cannot write, so replay is virtual).
            # replay_journal *can* write (apply=True at base mount), but the
            # shadow calls it apply=False — a read-only scan; and the device
            # here is the WriteFencedDevice, which raises on any write.
            for txn in replay_journal(self.device, self.layout, apply=False):  # raelint: disable=SHADOW-REACH
                for block, data in txn.writes.items():
                    self.overlay.write(block, data, role="replay")
            sb = Superblock.unpack(self._read_block(0))
        self.sb = sb
        self.checks.superblock(sb)
        if check_level >= CheckLevel.FULL:
            self.checks.superblock_counts(sb, self._count_free_blocks(), self._count_free_inodes())

    # ------------------------------------------------------------------
    # raw IO (overlay first, retried device reads)

    def _read_block(self, block: int) -> bytes:
        cached = self.overlay.blocks.get(block)
        if cached is not None:
            return cached
        last_error: DeviceError | None = None
        for _attempt in range(READ_RETRIES):
            try:
                return self.device.read_block(block)
            except DeviceError as exc:
                last_error = exc
                if not exc.transient:
                    break
        assert last_error is not None
        raise last_error

    def _write_block(self, block: int, data: bytes, role: str) -> None:
        self.overlay.write(block, data, role)

    # ------------------------------------------------------------------
    # superblock accounting (write-through to the overlay)

    def _sb_flush(self) -> None:
        self._write_block(0, self.sb.pack(), role="sb")

    def _count_free_blocks(self) -> int:
        nbits = self.layout.blocks_per_group
        return sum(nbits - count_set_in_block(self._read_block(b), nbits) for b in self.layout.block_bitmap_blocks)

    def _count_free_inodes(self) -> int:
        nbits = self.layout.inodes_per_group
        return sum(nbits - count_set_in_block(self._read_block(b), nbits) for b in self.layout.inode_bitmap_blocks)

    # ------------------------------------------------------------------
    # bitmaps: bits are read and flipped on the raw blocks in place

    def _block_is_allocated(self, block: int) -> bool:
        layout = self.layout
        group = layout.group_of_block(block)
        bit = block - group * layout.blocks_per_group
        return bool(self._read_block(layout.block_bitmap_blocks[group])[bit >> 3] & (1 << (bit & 7)))

    def _ino_is_allocated(self, ino: int) -> bool:
        """The inode bitmap bit of ``ino``, which the caller range-checked."""
        group, bit = divmod(ino - 1, self.layout.inodes_per_group)
        return bool(self._read_block(self.layout.inode_bitmap_blocks[group])[bit >> 3] & (1 << (bit & 7)))

    def _alloc_block(self) -> int:
        """First-fit block allocation, groups scanned from zero."""
        if self.sb.free_blocks < 1:
            raise FsError(Errno.ENOSPC, "no free blocks")
        nbits = self.layout.blocks_per_group
        for group, bitmap_block in enumerate(self.layout.block_bitmap_blocks):
            raw = self._read_block(bitmap_block)
            bit = first_clear_in_block(raw, nbits)
            if bit is None:
                continue
            self._write_block(bitmap_block, with_bit(raw, nbits, bit, True), role="bitmap")
            self.sb.free_blocks -= 1
            self._sb_flush()
            return group * nbits + bit
        raise FsError(Errno.ENOSPC, "all groups full")

    def _free_block(self, block: int, page: tuple[int, int] | None = None) -> None:
        """Free ``block``; ``page`` is the ``(ino, logical)`` it held file
        data for, if it did — the one key ``data_pages`` can know it by."""
        layout = self.layout
        if layout.is_metadata_block(block):
            raise InvariantViolation(f"attempt to free metadata block {block}", check="free-metadata-block")
        group, bit = divmod(block, layout.blocks_per_group)
        bitmap_block = layout.block_bitmap_blocks[group]
        raw = self._read_block(bitmap_block)
        if not raw[bit >> 3] & (1 << (bit & 7)):
            raise InvariantViolation(f"double free of block {block}", check="block-double-free")
        self._write_block(bitmap_block, with_bit(raw, layout.blocks_per_group, bit, False), role="bitmap")
        self.sb.free_blocks += 1
        self._sb_flush()
        self.overlay.blocks.pop(block, None)
        self.overlay.roles.pop(block, None)
        if page is not None:
            self.overlay.data_pages.pop(page, None)

    def _alloc_inode(self) -> int:
        """First-fit inode allocation — or the constrained-mode hint.

        §3.2: "For inode number and file descriptor allocation, the shadow
        validates if the value produced by the base filesystem is usable,
        rather than performing its own allocation."  The replay engine
        sets ``ino_hint`` before each creating operation.
        """
        if self.sb.free_inodes < 1:
            raise FsError(Errno.ENOSPC, "no free inodes")
        if self.ino_hint is not None:
            ino = self.ino_hint
            self.ino_hint = None
            self.layout.check_ino(ino)
            if self._ino_is_allocated(ino):
                raise InvariantViolation(
                    f"base-recorded inode {ino} is not free in the shadow's view",
                    check="constrained-ino",
                )
            self._claim_inode(ino)
            return ino
        nbits = self.layout.inodes_per_group
        for group, bitmap_block in enumerate(self.layout.inode_bitmap_blocks):
            bit = first_clear_in_block(self._read_block(bitmap_block), nbits)
            if bit is None:
                continue
            ino = group * nbits + bit + 1
            self._claim_inode(ino)
            return ino
        raise FsError(Errno.ENOSPC, "all inode groups full")

    def _claim_inode(self, ino: int) -> None:
        nbits = self.layout.inodes_per_group
        group, bit = divmod(ino - 1, nbits)
        bitmap_block = self.layout.inode_bitmap_blocks[group]
        self._write_block(bitmap_block, with_bit(self._read_block(bitmap_block), nbits, bit, True), role="bitmap")
        self.sb.free_inodes -= 1
        self._sb_flush()

    def _free_inode_number(self, ino: int) -> None:
        nbits = self.layout.inodes_per_group
        group, bit = divmod(ino - 1, nbits)
        bitmap_block = self.layout.inode_bitmap_blocks[group]
        raw = self._read_block(bitmap_block)
        if not raw[bit >> 3] & (1 << (bit & 7)):
            raise InvariantViolation(f"double free of inode {ino}", check="inode-double-free")
        self._write_block(bitmap_block, with_bit(raw, nbits, bit, False), role="bitmap")
        self.sb.free_inodes += 1
        self._sb_flush()

    # ------------------------------------------------------------------
    # inodes

    def _iget(self, ino: int, allow_orphan: bool = False) -> Ref:
        """Read, check and decode inode ``ino``: its slot is read once, in
        place in its table block, and checked as stored fields before it
        becomes an :class:`OnDiskInode`."""
        block, offset = self.layout.inode_location(ino)
        fields = read_slot(self._read_block(block), offset)
        if fields is not None and fields[SLOT_NLINK] == 0 and not allow_orphan:
            # the one case the inode check reads allow_orphan in
            allow_orphan = ino in self._orphans or bool(self.fd_table.fds_for_ino(ino))
        self.checks.inode_slot(ino, fields, allow_orphan=allow_orphan)
        self.checks.ino_allocated(ino, self._ino_is_allocated)
        return Ref(ino=ino, inode=OnDiskInode.from_slot(fields))

    def _put_slot(self, ino: int, slot: bytes) -> None:
        """Replace inode ``ino``'s slot: the table block is rebuilt around
        it in one join."""
        block, offset = self.layout.inode_location(ino)
        raw = self._read_block(block)
        self._write_block(block, b"".join((raw[:offset], slot, raw[offset + INODE_SIZE :])), role="itable")
        self.overlay.touched_inos.add(ino)

    def _iput(self, ref: Ref) -> None:
        """Write an inode back through the overlay."""
        self._put_slot(ref.ino, ref.inode.pack())

    def _izero(self, ino: int) -> None:
        self._put_slot(ino, _FREE_SLOT)

    def _new_inode(self, ftype: FileType, perms: int, opseq: int) -> Ref:
        ino = self._alloc_inode()
        inode = OnDiskInode(
            mode=make_mode(ftype, perms),
            nlink=0,
            atime=opseq,
            mtime=opseq,
            ctime=opseq,
        )
        ref = Ref(ino=ino, inode=inode)
        self._iput(ref)
        return ref

    def _destroy_inode(self, ref: Ref) -> None:
        self._truncate_blocks(ref, 0)
        self._free_inode_number(ref.ino)
        self._izero(ref.ino)

    # ------------------------------------------------------------------
    # block mapping

    def _resolve_logical(self, inode: OnDiskInode, logical: int) -> int:
        if logical < 0:
            raise InvariantViolation(f"negative logical block {logical}", check="mapping")
        if logical < N_DIRECT:
            return inode.direct[logical]
        index = logical - N_DIRECT
        if index < PTRS_PER_BLOCK:
            if not inode.indirect:
                return 0
            return pointer_at(self._read_block(inode.indirect), index)
        index -= PTRS_PER_BLOCK
        if index < PTRS_PER_BLOCK * PTRS_PER_BLOCK:
            if not inode.double_indirect:
                return 0
            outer_index, inner_index = divmod(index, PTRS_PER_BLOCK)
            inner_block = pointer_at(self._read_block(inode.double_indirect), outer_index)
            if not inner_block:
                return 0
            return pointer_at(self._read_block(inner_block), inner_index)
        raise FsError(Errno.EFBIG, f"logical block {logical}")

    def _map_block(self, ref: Ref, logical: int, physical: int) -> None:
        """Point ``logical`` at ``physical``, allocating pointer blocks on
        the way.  The inode is changed in ``ref`` only: the caller puts it
        once, when its op is done with it."""
        inode = ref.inode
        if logical < N_DIRECT:
            inode.direct[logical] = physical
            return
        index = logical - N_DIRECT
        if index < PTRS_PER_BLOCK:
            if not inode.indirect:
                inode.indirect = self._alloc_pointer_block()
            single = self._read_block(inode.indirect)
            self._write_block(inode.indirect, with_pointer(single, index, physical), role="indirect")
            return
        index -= PTRS_PER_BLOCK
        if index >= PTRS_PER_BLOCK * PTRS_PER_BLOCK:
            raise FsError(Errno.EFBIG, f"logical block {logical}")
        outer_index, inner_index = divmod(index, PTRS_PER_BLOCK)
        if not inode.double_indirect:
            inode.double_indirect = self._alloc_pointer_block()
        outer = self._read_block(inode.double_indirect)
        inner_block = pointer_at(outer, outer_index)
        if not inner_block:
            inner_block = self._alloc_pointer_block()
            self._write_block(inode.double_indirect, with_pointer(outer, outer_index, inner_block), role="indirect")
        inner = self._read_block(inner_block)
        self._write_block(inner_block, with_pointer(inner, inner_index, physical), role="indirect")

    def _alloc_pointer_block(self) -> int:
        block = self._alloc_block()
        self._write_block(block, bytes(BLOCK_SIZE), role="indirect")
        return block

    def _truncate_blocks(self, ref: Ref, keep_blocks: int) -> None:
        inode = ref.inode
        for logical in range(keep_blocks, N_DIRECT):
            if inode.direct[logical]:
                self._free_block(inode.direct[logical], page=(ref.ino, logical))
                inode.direct[logical] = 0
        if inode.indirect:
            start = max(0, keep_blocks - N_DIRECT)
            pointers = unpack_pointers(self._read_block(inode.indirect))
            for i in range(start, PTRS_PER_BLOCK):
                if pointers[i]:
                    self._free_block(pointers[i], page=(ref.ino, N_DIRECT + i))
                    pointers[i] = 0
            if start == 0:
                self._free_block(inode.indirect)
                inode.indirect = 0
            else:
                self._write_block(inode.indirect, pack_pointers(pointers), role="indirect")
        if inode.double_indirect:
            dbl_base = N_DIRECT + PTRS_PER_BLOCK
            start = max(0, keep_blocks - dbl_base)
            outer = unpack_pointers(self._read_block(inode.double_indirect))
            for oi in range(PTRS_PER_BLOCK):
                if not outer[oi]:
                    continue
                inner_start = max(0, start - oi * PTRS_PER_BLOCK)
                if inner_start >= PTRS_PER_BLOCK:
                    continue
                inner = unpack_pointers(self._read_block(outer[oi]))
                for ii in range(inner_start, PTRS_PER_BLOCK):
                    if inner[ii]:
                        self._free_block(inner[ii], page=(ref.ino, dbl_base + oi * PTRS_PER_BLOCK + ii))
                        inner[ii] = 0
                if inner_start == 0:
                    self._free_block(outer[oi])
                    outer[oi] = 0
                else:
                    self._write_block(outer[oi], pack_pointers(inner), role="indirect")
            if start == 0:
                self._free_block(inode.double_indirect)
                inode.double_indirect = 0
            else:
                self._write_block(inode.double_indirect, pack_pointers(outer), role="indirect")
        self._iput(ref)

    # ------------------------------------------------------------------
    # directories (no cache: scan every time)

    def _dir_blocks(self, ref: Ref) -> list[int]:
        blocks = []
        for logical in range(ref.inode.block_count()):
            physical = self._resolve_logical(ref.inode, logical)
            if physical:
                self.checks.block_allocated(physical, self._block_is_allocated)
                blocks.append(physical)
        return blocks

    def _dir_entries(self, ref: Ref) -> list[DirEntry]:
        entries: list[DirEntry] = []
        for block in self._dir_blocks(ref):
            entries.extend(self.checks.dir_block(ref.ino, block, self._read_block(block)))
        self.checks.dir_has_dots(ref.ino, {e.name for e in entries})
        return entries

    def _dir_find(self, ref: Ref, name: str) -> DirEntry | None:
        for block in self._dir_blocks(ref):
            entry = self.checks.dir_lookup(ref.ino, block, self._read_block(block), name)
            if entry is not None:
                return entry
        return None

    def _dir_is_empty(self, ref: Ref) -> bool:
        return all(entry.name in (".", "..") for entry in self._dir_entries(ref))

    def _dir_insert_cost(self, ref: Ref, name: str) -> int:
        for block in self._dir_blocks(ref):
            if has_room_for(self._read_block(block), name):
                return 0
        cost = 1
        logical = ref.inode.block_count()
        if logical >= N_DIRECT and not ref.inode.indirect:
            cost += 1
        if logical >= N_DIRECT + PTRS_PER_BLOCK:
            raise FsError(Errno.ENOSPC, "directory too large")
        return cost

    def _dir_insert(self, ref: Ref, name: str, child_ino: int, ftype: FileType, opseq: int) -> None:
        for block in self._dir_blocks(ref):
            dir_block = DirBlock(self._read_block(block))
            if dir_block.insert(child_ino, name, ftype):
                self._write_block(block, dir_block.to_block(), role="dir")
                ref.inode.mtime = opseq
                ref.inode.ctime = opseq
                self._iput(ref)
                return
        logical = ref.inode.block_count()
        physical = self._alloc_block()
        self._map_block(ref, logical, physical)
        dir_block = DirBlock()
        if not dir_block.insert(child_ino, name, ftype):
            raise AssertionError("fresh directory block rejected an entry")
        self._write_block(physical, dir_block.to_block(), role="dir")
        ref.inode.size += BLOCK_SIZE
        ref.inode.mtime = opseq
        ref.inode.ctime = opseq
        self._iput(ref)

    def _dir_remove(self, ref: Ref, name: str, opseq: int) -> None:
        for block in self._dir_blocks(ref):
            dir_block = DirBlock(self._read_block(block))
            if dir_block.remove(name):
                self._write_block(block, dir_block.to_block(), role="dir")
                ref.inode.mtime = opseq
                ref.inode.ctime = opseq
                self._iput(ref)
                return
        raise InvariantViolation(f"entry {name!r} vanished from dir {ref.ino}", check="dir-remove")

    def _dir_set_dotdot(self, ref: Ref, new_parent_ino: int) -> None:
        for block in self._dir_blocks(ref):
            dir_block = DirBlock(self._read_block(block))
            if dir_block.find("..") is not None:
                dir_block.remove("..")
                if not dir_block.insert(new_parent_ino, "..", FileType.DIRECTORY):
                    raise InvariantViolation(f"no room to repoint '..' in dir {ref.ino}", check="dotdot")
                self._write_block(block, dir_block.to_block(), role="dir")
                return
        raise InvariantViolation(f"dir {ref.ino} has no '..' entry", check="dotdot")

    # ------------------------------------------------------------------
    # path resolution (always from the root, §3.3)

    def _root(self) -> Ref:
        return self._iget(self.sb.root_ino)

    def _read_symlink(self, ref: Ref) -> str:
        block = ref.inode.direct[0]
        if not block:
            raise InvariantViolation(f"symlink inode {ref.ino} has no target block", check="symlink-block")
        self.checks.block_allocated(block, self._block_is_allocated)
        return self._read_block(block)[: ref.inode.size].decode()

    def _resolve_components(self, components: list[str], path: str, follow_last: bool) -> tuple[Ref, str, Ref | None]:
        """Resolve the validated ``components`` of ``path`` from the root:
        ``(parent, last name, the entry's inode or None)``."""
        current = self._root()
        if not components:
            return current, "", current
        depth = 0
        i = 0
        while i < len(components):
            name = components[i]
            is_last = i == len(components) - 1
            if not current.inode.is_dir:
                raise FsError(Errno.ENOTDIR, "/" + "/".join(components[:i]))
            entry = self._dir_find(current, name)
            if entry is None:
                if is_last:
                    return current, name, None
                raise FsError(Errno.ENOENT, "/" + "/".join(components[: i + 1]))
            child = self._iget(entry.ino)
            if child.inode.is_symlink and (follow_last or not is_last):
                depth += 1
                if depth > SYMLINK_DEPTH_LIMIT:
                    raise FsError(Errno.ELOOP, path)
                target = self._read_symlink(child)
                rest = components[i + 1 :]
                if target.startswith("/"):
                    components = split_path(target) + rest
                    current = self._root()
                else:
                    components = split_path("/" + target) + rest
                i = 0
                if not components:
                    return current, "", current
                continue
            if is_last:
                return current, name, child
            current = child
            i += 1
        raise AssertionError("unreachable")

    def _resolve(self, path: str, follow_last: bool = True) -> Ref:
        _parent, _name, ref = self._resolve_components(split_path(path), path, follow_last)
        if ref is None:
            raise FsError(Errno.ENOENT, path)
        return ref

    def _resolve_parent(self, path: str) -> tuple[Ref, str]:
        parents, name = parent_and_name(path)
        parent_path = "/" + "/".join(parents)
        _grandparent, _name, parent = self._resolve_components(parents, parent_path, follow_last=True)
        if parent is None:
            raise FsError(Errno.ENOENT, parent_path)
        if not parent.inode.is_dir:
            raise FsError(Errno.ENOTDIR, parent_path)
        return parent, name

    # ------------------------------------------------------------------
    # recovery support

    def install_fd(self, state: FdState) -> None:
        """Adopt one descriptor from the op log's fd registry, validating
        it first (a bad registry means the recorded state is unusable)."""
        self.checks.fd_state(state.fd, state.ino, state.offset)
        ref = self._iget(state.ino, allow_orphan=True)
        if not ref.inode.is_regular:
            raise InvariantViolation(
                f"fd {state.fd} references non-regular inode {state.ino}", check="fd-install"
            )
        self.fd_table.install(state.snapshot())
        if ref.inode.nlink == 0:
            self._orphans.add(state.ino)

    # ==================================================================
    # FilesystemAPI

    def mkdir(self, path: str, perms: int = 0o755, opseq: int = 0) -> None:
        self.checks.input_op("mkdir", {"path": path, "perms": perms})
        parent, name = self._resolve_parent(path)
        if self._dir_find(parent, name) is not None:
            raise FsError(Errno.EEXIST, path)
        needed = 1 + self._dir_insert_cost(parent, name)
        if self.sb.free_blocks < needed:
            raise FsError(Errno.ENOSPC, path)
        if self.sb.free_inodes < 1:
            raise FsError(Errno.ENOSPC, path)
        child = self._new_inode(FileType.DIRECTORY, perms, opseq)
        block = self._alloc_block()
        dir_block = DirBlock()
        dir_block.insert(child.ino, ".", FileType.DIRECTORY)
        dir_block.insert(parent.ino, "..", FileType.DIRECTORY)
        self._write_block(block, dir_block.to_block(), role="dir")
        child.inode.direct[0] = block
        child.inode.size = BLOCK_SIZE
        child.inode.nlink = 2
        self._iput(child)
        self._dir_insert(parent, name, child.ino, FileType.DIRECTORY, opseq)
        parent.inode.nlink += 1
        self._iput(parent)

    def rmdir(self, path: str, opseq: int = 0) -> None:
        self.checks.input_op("rmdir", {"path": path})
        parent, name = self._resolve_parent(path)
        entry = self._dir_find(parent, name)
        if entry is None:
            raise FsError(Errno.ENOENT, path)
        child = self._iget(entry.ino)
        if not child.inode.is_dir:
            raise FsError(Errno.ENOTDIR, path)
        if not self._dir_is_empty(child):
            raise FsError(Errno.ENOTEMPTY, path)
        self._dir_remove(parent, name, opseq)
        parent.inode.nlink -= 1
        self._iput(parent)
        child.inode.nlink = 0
        self._destroy_inode(child)

    def unlink(self, path: str, opseq: int = 0) -> None:
        self.checks.input_op("unlink", {"path": path})
        parent, name = self._resolve_parent(path)
        entry = self._dir_find(parent, name)
        if entry is None:
            raise FsError(Errno.ENOENT, path)
        child = self._iget(entry.ino)
        if child.inode.is_dir:
            raise FsError(Errno.EISDIR, path)
        self._dir_remove(parent, name, opseq)
        child.inode.nlink -= 1
        child.inode.ctime = opseq
        self._iput(child)
        if child.inode.nlink == 0:
            if self.fd_table.fds_for_ino(child.ino):
                self._orphans.add(child.ino)
            else:
                self._destroy_inode(child)

    def rename(self, src: str, dst: str, opseq: int = 0) -> None:
        self.checks.input_op("rename", {"src": src, "dst": dst})
        src_parent, src_name = self._resolve_parent(src)
        dst_parent, dst_name = self._resolve_parent(dst)
        if dst_parent.ino == src_parent.ino:
            dst_parent = src_parent  # one Ref per inode within the operation
        src_entry = self._dir_find(src_parent, src_name)
        if src_entry is None:
            raise FsError(Errno.ENOENT, src)
        moving = self._iget(src_entry.ino)
        dst_entry = self._dir_find(dst_parent, dst_name)

        if dst_entry is not None and dst_entry.ino == moving.ino:
            return
        if moving.inode.is_dir:
            cursor = dst_parent
            while cursor.ino != self.sb.root_ino:
                if cursor.ino == moving.ino:
                    raise FsError(Errno.EINVAL, f"{dst} is inside {src}")
                dotdot = self._dir_find(cursor, "..")
                if dotdot is None:
                    raise InvariantViolation(f"dir {cursor.ino} lacks '..'", check="dotdot")
                cursor = self._iget(dotdot.ino)
            if moving.ino == self.sb.root_ino:
                raise FsError(Errno.EINVAL, "cannot rename /")

        existing = self._iget(dst_entry.ino) if dst_entry is not None else None
        if existing is not None:
            if moving.inode.is_dir and not existing.inode.is_dir:
                raise FsError(Errno.ENOTDIR, dst)
            if not moving.inode.is_dir and existing.inode.is_dir:
                raise FsError(Errno.EISDIR, dst)
            if existing.inode.is_dir and not self._dir_is_empty(existing):
                raise FsError(Errno.ENOTEMPTY, dst)
        else:
            needed = self._dir_insert_cost(dst_parent, dst_name)
            if self.sb.free_blocks < needed:
                raise FsError(Errno.ENOSPC, dst)

        if existing is not None:
            self._dir_remove(dst_parent, dst_name, opseq)
            if existing.inode.is_dir:
                dst_parent.inode.nlink -= 1
                self._iput(dst_parent)
                existing.inode.nlink = 0
                self._destroy_inode(existing)
            else:
                existing.inode.nlink -= 1
                existing.inode.ctime = opseq
                self._iput(existing)
                if existing.inode.nlink == 0:
                    if self.fd_table.fds_for_ino(existing.ino):
                        self._orphans.add(existing.ino)
                    else:
                        self._destroy_inode(existing)

        self._dir_remove(src_parent, src_name, opseq)
        self._dir_insert(dst_parent, dst_name, moving.ino, moving.inode.ftype, opseq)

        if moving.inode.is_dir and src_parent.ino != dst_parent.ino:
            self._dir_set_dotdot(moving, dst_parent.ino)
            src_parent.inode.nlink -= 1
            dst_parent.inode.nlink += 1
            self._iput(src_parent)
            self._iput(dst_parent)
        moving.inode.ctime = opseq
        self._iput(moving)

    def link(self, existing: str, new: str, opseq: int = 0) -> None:
        self.checks.input_op("link", {"existing": existing, "new": new})
        target = self._resolve(existing, follow_last=False)
        if target.inode.is_dir:
            raise FsError(Errno.EPERM, "hard link to directory")
        new_parent, new_name = self._resolve_parent(new)
        if self._dir_find(new_parent, new_name) is not None:
            raise FsError(Errno.EEXIST, new)
        needed = self._dir_insert_cost(new_parent, new_name)
        if self.sb.free_blocks < needed:
            raise FsError(Errno.ENOSPC, new)
        self._dir_insert(new_parent, new_name, target.ino, target.inode.ftype, opseq)
        target.inode.nlink += 1
        target.inode.ctime = opseq
        self._iput(target)

    def symlink(self, target: str, path: str, opseq: int = 0) -> None:
        self.checks.input_op("symlink", {"target": target, "path": path})
        encoded = target.encode()
        if not target:
            raise FsError(Errno.EINVAL, "empty symlink target")
        if len(encoded) > MAX_SYMLINK_TARGET:
            raise FsError(Errno.ENAMETOOLONG, "symlink target too long")
        parent, name = self._resolve_parent(path)
        if self._dir_find(parent, name) is not None:
            raise FsError(Errno.EEXIST, path)
        needed = 1 + self._dir_insert_cost(parent, name)
        if self.sb.free_blocks < needed:
            raise FsError(Errno.ENOSPC, path)
        if self.sb.free_inodes < 1:
            raise FsError(Errno.ENOSPC, path)
        child = self._new_inode(FileType.SYMLINK, 0o777, opseq)
        block = self._alloc_block()
        self._write_block(block, encoded + b"\x00" * (BLOCK_SIZE - len(encoded)), role="symlink")
        child.inode.direct[0] = block
        child.inode.size = len(encoded)
        child.inode.nlink = 1
        self._iput(child)
        self._dir_insert(parent, name, child.ino, FileType.SYMLINK, opseq)

    def readlink(self, path: str) -> str:
        self.checks.input_op("readlink", {"path": path})
        ref = self._resolve(path, follow_last=False)
        if not ref.inode.is_symlink:
            raise FsError(Errno.EINVAL, path)
        return self._read_symlink(ref)

    def readdir(self, path: str) -> list[str]:
        self.checks.input_op("readdir", {"path": path})
        ref = self._resolve(path, follow_last=True)
        if not ref.inode.is_dir:
            raise FsError(Errno.ENOTDIR, path)
        return sorted(entry.name for entry in self._dir_entries(ref) if entry.name not in (".", ".."))

    def stat(self, path: str) -> StatResult:
        self.checks.input_op("stat", {"path": path})
        return self._stat_ref(self._resolve(path, follow_last=True))

    def lstat(self, path: str) -> StatResult:
        self.checks.input_op("lstat", {"path": path})
        return self._stat_ref(self._resolve(path, follow_last=False))

    def _stat_ref(self, ref: Ref) -> StatResult:
        inode = ref.inode
        return StatResult(
            ino=ref.ino,
            ftype=inode.ftype,
            size=inode.size,
            nlink=inode.nlink,
            perms=inode.perms,
            uid=inode.uid,
            gid=inode.gid,
            atime=inode.atime,
            mtime=inode.mtime,
            ctime=inode.ctime,
        )

    def truncate(self, path: str, size: int, opseq: int = 0) -> None:
        self.checks.input_op("truncate", {"path": path, "size": size})
        if size < 0:
            raise FsError(Errno.EINVAL, f"negative size {size}")
        if size > MAX_FILE_SIZE:
            raise FsError(Errno.EFBIG, str(size))
        ref = self._resolve(path, follow_last=True)
        if ref.inode.is_dir:
            raise FsError(Errno.EISDIR, path)
        if ref.inode.is_symlink:
            raise FsError(Errno.EINVAL, path)
        self._truncate_ref(ref, size, opseq)

    def _truncate_ref(self, ref: Ref, size: int, opseq: int) -> None:
        old_size = ref.inode.size
        if size < old_size:
            keep = (size + BLOCK_SIZE - 1) // BLOCK_SIZE
            self._truncate_blocks(ref, keep)
            within = size % BLOCK_SIZE
            if within:
                logical = keep - 1
                physical = self._resolve_logical(ref.inode, logical)
                if physical:
                    data = bytearray(self._read_block(physical))
                    data[within:] = b"\x00" * (BLOCK_SIZE - within)
                    self._write_block(physical, bytes(data), role="data")
                    self.overlay.data_pages[(ref.ino, logical)] = physical
        ref.inode.size = size
        ref.inode.mtime = opseq
        ref.inode.ctime = opseq
        self._iput(ref)

    def open(self, path: str, flags: OpenFlags = OpenFlags.NONE, perms: int = 0o644, opseq: int = 0) -> int:
        mask = int(flags)
        self.checks.input_op("open", {"path": path, "flags": mask, "perms": perms})
        parents, name = parent_and_name(path)  # rejects "/"
        components = [*parents, name]
        if mask & _CREAT and mask & _EXCL:
            parent, name, found = self._resolve_components(components, path, follow_last=False)
            if found is not None:
                raise FsError(Errno.EEXIST, path)
        else:
            parent, name, found = self._resolve_components(components, path, follow_last=True)

        if found is None:
            if not mask & _CREAT:
                raise FsError(Errno.ENOENT, path)
            needed = self._dir_insert_cost(parent, name)
            if self.sb.free_blocks < needed:
                raise FsError(Errno.ENOSPC, path)
            if self.sb.free_inodes < 1:
                raise FsError(Errno.ENOSPC, path)
            child = self._new_inode(FileType.REGULAR, perms, opseq)
            child.inode.nlink = 1
            self._iput(child)
            self._dir_insert(parent, name, child.ino, FileType.REGULAR, opseq)
        else:
            child = found
            if child.inode.is_dir:
                raise FsError(Errno.EISDIR, path)
            if child.inode.is_symlink:
                raise FsError(Errno.ELOOP, path)

        state = self.fd_table.allocate(child.ino, flags)
        if mask & _TRUNC and child.inode.size:
            self._truncate_ref(child, 0, opseq)
        return state.fd

    def close(self, fd: int, opseq: int = 0) -> None:
        self.checks.input_op("close", {"fd": fd})
        state = self.fd_table.release(fd)
        if state.ino in self._orphans and not self.fd_table.fds_for_ino(state.ino):
            self._orphans.discard(state.ino)
            ref = self._iget(state.ino, allow_orphan=True)
            self._destroy_inode(ref)

    def read(self, fd: int, length: int, opseq: int = 0) -> bytes:
        self.checks.input_op("read", {"fd": fd, "length": length})
        if length < 0:
            raise FsError(Errno.EINVAL, f"negative length {length}")
        state = self.fd_table.get(fd)
        ref = self._iget(state.ino, allow_orphan=True)
        if ref.inode.is_dir:
            raise FsError(Errno.EISDIR, f"fd {fd}")
        start = state.offset
        end = min(ref.inode.size, start + length)
        if start >= ref.inode.size or length == 0:
            return b""
        out = bytearray()
        offset = start
        while offset < end:
            logical, within = divmod(offset, BLOCK_SIZE)
            take = min(BLOCK_SIZE - within, end - offset)
            physical = self._resolve_logical(ref.inode, logical)
            if physical:
                self.checks.block_allocated(physical, self._block_is_allocated)
                data = self._read_block(physical)
            else:
                data = bytes(BLOCK_SIZE)
            out += data[within : within + take]
            offset += take
        state.offset = end
        return bytes(out)

    def write(self, fd: int, data: bytes, opseq: int = 0) -> int:
        self.checks.input_op("write", {"fd": fd, "data": bytes(data) if isinstance(data, bytearray) else data})
        if not isinstance(data, (bytes, bytearray)):
            raise FsError(Errno.EINVAL, "write data must be bytes")
        state = self.fd_table.get(fd)
        ref = self._iget(state.ino, allow_orphan=True)
        if ref.inode.is_dir:
            raise FsError(Errno.EISDIR, f"fd {fd}")
        if not data:
            return 0
        offset = ref.inode.size if int(state.flags) & _APPEND else state.offset
        end = offset + len(data)
        if end > MAX_FILE_SIZE:
            raise FsError(Errno.EFBIG, f"write to {end}")

        first, last = offset // BLOCK_SIZE, (end - 1) // BLOCK_SIZE
        # ENOSPC pre-check mirroring the base's delalloc reservation: count
        # the blocks (data + pointer blocks) this write will allocate.
        needed = 0
        have_indirect = bool(ref.inode.indirect)
        have_double = bool(ref.inode.double_indirect)
        inner_present: set[int] = set()
        for logical in range(first, last + 1):
            if self._resolve_logical(ref.inode, logical):
                continue
            needed += 1
            if logical >= N_DIRECT + PTRS_PER_BLOCK:
                outer_index = (logical - N_DIRECT - PTRS_PER_BLOCK) // PTRS_PER_BLOCK
                if not have_double:
                    needed += 1
                    have_double = True
                if outer_index not in inner_present:
                    if not self._double_inner_present(ref.inode, outer_index):
                        needed += 1
                    inner_present.add(outer_index)
            elif logical >= N_DIRECT and not have_indirect:
                needed += 1
                have_indirect = True
        if self.sb.free_blocks < needed:
            raise FsError(Errno.ENOSPC, f"write needs {needed} blocks")

        cursor = offset
        remaining = memoryview(bytes(data))
        for logical in range(first, last + 1):
            within = cursor % BLOCK_SIZE
            take = min(BLOCK_SIZE - within, end - cursor)
            physical = self._resolve_logical(ref.inode, logical)
            if physical:
                if within == 0 and take == BLOCK_SIZE:
                    block = bytearray(BLOCK_SIZE)
                else:
                    block = bytearray(self._read_block(physical))
            else:
                physical = self._alloc_block()
                self._map_block(ref, logical, physical)
                block = bytearray(BLOCK_SIZE)
            block[within : within + take] = remaining[:take]
            self._write_block(physical, bytes(block), role="data")
            self.overlay.data_pages[(state.ino, logical)] = physical
            remaining = remaining[take:]
            cursor += take

        if end > ref.inode.size:
            ref.inode.size = end
        ref.inode.mtime = opseq
        ref.inode.ctime = opseq
        self._iput(ref)
        state.offset = end
        return len(data)

    def _double_inner_present(self, inode: OnDiskInode, outer_index: int) -> bool:
        if not inode.double_indirect:
            return False
        return bool(pointer_at(self._read_block(inode.double_indirect), outer_index))

    def lseek(self, fd: int, offset: int, whence: int = 0, opseq: int = 0) -> int:
        self.checks.input_op("lseek", {"fd": fd, "offset": offset, "whence": whence})
        state = self.fd_table.get(fd)
        ref = self._iget(state.ino, allow_orphan=True)
        if whence == 0:
            new = offset
        elif whence == 1:
            new = state.offset + offset
        elif whence == 2:
            new = ref.inode.size + offset
        else:
            raise FsError(Errno.EINVAL, f"whence {whence}")
        if new < 0:
            raise FsError(Errno.EINVAL, f"offset {new}")
        state.offset = new
        return new

    def fsync(self, fd: int, opseq: int = 0) -> None:
        """Unsupported by design (§3.3): the shadow never persists.  The
        replay engine skips completed fsyncs and delegates in-flight ones
        back to the base."""
        raise FsError(Errno.EINVAL, "the shadow filesystem does not implement fsync")

    def fstat_ino(self, fd: int) -> int:
        return self.fd_table.get(fd).ino
