"""The base filesystem implementation.

``BaseFilesystem`` is the performance-oriented filesystem RAE protects:
every operation runs through the dentry cache, inode cache, page cache,
delayed allocation, the asynchronous block layer, and ordered-mode
journaling.  It implements :class:`repro.api.FilesystemAPI` exactly —
the same contract the shadow implements without any of that machinery.

Design notes that matter for recovery:

* **The gap.**  Between journal commits, namespace and data mutations
  live only in caches (dirty inodes, dirty buffer-cache blocks, dirty
  pages).  The on-disk image trails the application's view by exactly
  the operations since the last commit — the sequence the op log keeps.
* **Commit.**  ``commit()`` is the single durability path (write-back
  daemon, fsync, unmount all funnel here): data pages first (ordered
  mode), then one validated journal transaction of all dirty metadata,
  then home writes.  ``on_commit`` callbacks let the RAE supervisor
  truncate the op log at that instant.
* **Errors.**  Legitimate request errors raise :class:`FsError` after a
  *validate-before-mutate* discipline, so an errno never leaves partial
  state.  Everything else — injected ``KernelBug``/``KernelWarning``,
  invariant violations from validate-on-sync, device errors — escapes to
  the supervisor's detector, leaving arbitrarily wrong in-memory state
  behind, which is precisely the state contained reboot discards.
* **Timestamps** are the caller-provided ``opseq`` (see repro.api).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import FilesystemAPI, OpenFlags, SYMLINK_DEPTH_LIMIT, StatResult, parent_and_name, split_path
from repro.basefs.allocator import AllocState, BlockAllocator, InodeAllocator
from repro.basefs.dentry_cache import DentryCache
from repro.basefs.hooks import HookPoints
from repro.basefs.inode_cache import CachedInode, InodeCache
from repro.basefs.journal_mgr import JournalManager
from repro.basefs.locks import LockManager
from repro.basefs.page_cache import DetachedPages, Page, PageCache
from repro.basefs.vfs import FdTable
from repro.basefs.writeback import WritebackDaemon, WritebackPolicy
from repro.blockdev.blkmq import BlockMQ, IoScheduler
from repro.blockdev.cache import BufferCache
from repro.blockdev.device import BlockDevice
from repro.errors import DeviceError, Errno, FsError, InvariantViolation
from repro.ondisk.directory import DirBlock, DirEntry, walk_entries
from repro.ondisk.inode import (
    FileType,
    MAX_FILE_SIZE,
    N_DIRECT,
    OnDiskInode,
    PTRS_PER_BLOCK,
    SLOT_MODE,
    SLOT_NLINK,
    SLOT_SIZE,
    make_mode,
    mode_type,
    read_slot,
)
from repro.ondisk.layout import BLOCK_SIZE, INODE_SIZE, ROOT_INO
from repro.ondisk.journal import replay_journal, reset_journal
from repro.ondisk.mapping import BlockMapReader, pack_pointers, pointer_at, unpack_pointers, with_pointer
from repro.ondisk.superblock import STATE_CLEAN, STATE_DIRTY, Superblock

MAX_SYMLINK_TARGET = BLOCK_SIZE - 1


@dataclass
class BaseFsStats:
    ops: dict[str, int] = field(default_factory=dict)
    commits: int = 0
    data_reads: int = 0
    data_writes: int = 0

    def count(self, name: str) -> None:
        self.ops[name] = self.ops.get(name, 0) + 1


class BaseFilesystem(FilesystemAPI):
    """Mount-on-construct performance-oriented filesystem.

    Construction mounts the device: if the superblock says the image was
    not cleanly unmounted, the journal is replayed first (this is also
    the re-mount path contained reboot takes).
    """

    def __init__(
        self,
        device: BlockDevice,
        hooks: HookPoints | None = None,
        buffer_cache_capacity: int = 1024,
        page_cache_capacity: int = 4096,
        inode_cache_capacity: int = 1024,
        dentry_cache_capacity: int = 4096,
        writeback_policy: WritebackPolicy | None = None,
        validate_on_sync: bool = True,
        nr_queues: int = 4,
        io_scheduler: IoScheduler | None = None,
        preserved_pages: DetachedPages | None = None,
    ):
        self.device = device
        self.hooks = hooks or HookPoints()
        self.hooks.fire("mount")
        self.stats = BaseFsStats()
        self.validate_on_sync = validate_on_sync
        self.on_commit: list = []  # callbacks(commit_epoch)
        self.commit_epoch = 0
        self._mounted = False

        sb = Superblock.unpack(device.read_block(0))
        self.layout = sb.layout()
        if sb.mount_state == STATE_DIRTY:
            # Crash / contained-reboot path: replay committed transactions,
            # then reset the journal under a fresh sequence so stale
            # transactions can never be replayed twice.  When nothing
            # replayed, the journal superblock is left untouched: writing
            # a fresh one with a *lower* starting sequence would resurrect
            # stale transaction records still physically in the region.
            txns = replay_journal(device, self.layout, apply=True)
            self.replayed_txns = len(txns)
            if txns:
                reset_journal(device, self.layout, start_seq=txns[-1].seq + 1)
                device.flush()
            sb = Superblock.unpack(device.read_block(0))
        else:
            self.replayed_txns = 0

        sb.mount_state = STATE_DIRTY
        sb.mount_count += 1
        # The mount stamp is deliberately outside the journal: flipping the
        # superblock to DIRTY is what makes the journal authoritative in the
        # first place, and replay is idempotent with respect to it.
        device.write_block(0, sb.pack())
        device.flush()
        self.sb = sb

        self.cache = BufferCache(device, capacity=buffer_cache_capacity)
        self.blkmq = BlockMQ(device, nr_queues=nr_queues, scheduler=io_scheduler)
        self.inode_cache = InodeCache(capacity=inode_cache_capacity)
        self.dentry_cache = DentryCache(capacity=dentry_cache_capacity)
        self.page_cache = PageCache(capacity_pages=page_cache_capacity)
        if preserved_pages is not None:
            self.page_cache.attach(preserved_pages)
        self.fd_table = FdTable()
        self.alloc = AllocState.load(self.layout, self.cache.read)
        self.block_alloc = BlockAllocator(self.alloc, self.hooks)
        self.inode_alloc = InodeAllocator(self.alloc, self.hooks)
        self.locks = LockManager(self.hooks)
        self.journal = JournalManager(
            device,
            self.layout,
            validator=self._validate_txn if validate_on_sync else None,
        )
        # JBD2 discipline: the write-back policy must commit before the
        # accumulated state outgrows the journal region (commits are
        # atomic groups that must fit it whole).  A quarter of the region
        # each for dirty metadata and dirty pages leaves room for the
        # metadata a commit itself dirties (delayed allocation touches
        # bitmaps, indirect blocks and inode tables while flushing pages).
        policy = writeback_policy or WritebackPolicy()
        journal_safe = max(3, (self.layout.journal_blocks - 4) // 4)
        if policy.dirty_metadata_high_water > journal_safe or policy.dirty_page_high_water > journal_safe:
            policy = WritebackPolicy(
                dirty_page_high_water=min(policy.dirty_page_high_water, journal_safe),
                dirty_metadata_high_water=min(policy.dirty_metadata_high_water, journal_safe),
                commit_interval_ops=policy.commit_interval_ops,
            )
        self.writeback = WritebackDaemon(self, policy)
        self._block_role: dict[int, str] = {}
        self._orphans: set[int] = set()
        self._reserved_pages: set[tuple[int, int]] = set()
        self._reserved_indirect: set[tuple] = set()
        self._mounted = True

    # ------------------------------------------------------------------
    # mount lifecycle

    def unmount(self) -> None:
        """Commit everything and mark the image clean.

        Open fds are tolerated (their inodes simply stay allocated; if
        they were orphaned by unlink, fsck will find them — as on a real
        system that loses power with deleted-but-open files).
        """
        self._require_mounted()
        self.commit()
        self.sb.mount_state = STATE_CLEAN
        self.device.write_block(0, self.sb.pack())
        self.device.flush()
        self._mounted = False

    def _require_mounted(self) -> None:
        if not self._mounted:
            raise InvariantViolation("operation on unmounted filesystem", check="mounted")

    # ------------------------------------------------------------------
    # inode plumbing

    def _iget(self, ino: int) -> CachedInode:
        """Fetch an inode via the cache, decoding (and checksum-verifying)
        from the inode table on miss.  A checksum failure raises
        ``ValueError`` — a runtime error, not an errno."""
        slot = self.inode_cache.get(ino)
        if slot is not None:
            return slot
        self.layout.check_ino(ino)
        block, offset = self.layout.inode_location(ino)
        raw = self.cache.read(block)
        inode = OnDiskInode.unpack(raw[offset : offset + INODE_SIZE])
        self.hooks.fire("inode.read", ino=ino, inode=inode)
        if inode.is_free:
            raise InvariantViolation(f"reference to free inode {ino}", check="iget-free")
        return self.inode_cache.insert(ino, inode)

    def _dirty(self, slot: CachedInode) -> None:
        self.hooks.fire("inode.dirty", ino=slot.ino, inode=slot.inode)
        slot.dirty = True

    def _new_inode(self, ftype: FileType, perms: int, parent_group: int, opseq: int, ino: int | None = None) -> CachedInode:
        if ino is None:
            ino = self.inode_alloc.allocate(parent_group, is_dir=(ftype == FileType.DIRECTORY))
        inode = OnDiskInode(
            mode=make_mode(ftype, perms),
            nlink=0,
            atime=opseq,
            mtime=opseq,
            ctime=opseq,
            generation=self.sb.write_generation,
        )
        slot = self.inode_cache.insert(ino, inode, dirty=True)
        return slot

    def _free_inode(self, slot: CachedInode) -> None:
        """Release an inode and all its blocks (nlink==0, no open fds)."""
        self._truncate_blocks(slot, 0)
        self.page_cache.drop_ino(slot.ino)
        self.inode_alloc.free(slot.ino)
        self.dentry_cache.invalidate_ino(slot.ino)
        self.hooks.fire("inode.evict", ino=slot.ino)
        # Zero the table slot so the on-disk inode reads as free.
        block, offset = self.layout.inode_location(slot.ino)
        raw = bytearray(self.cache.read(block))
        raw[offset : offset + INODE_SIZE] = b"\x00" * INODE_SIZE
        self._meta_write(block, bytes(raw), role="itable")
        self.inode_cache.remove(slot.ino)

    # ------------------------------------------------------------------
    # metadata block IO (buffer cache + role tags for validate-on-sync)

    def _meta_write(self, block: int, data: bytes, role: str) -> None:
        self._block_role[block] = role
        self.cache.write(block, data)

    def _map_reader(self) -> BlockMapReader:
        """Mapping resolver whose indirect-block reads go through the
        buffer cache (they are journaled metadata)."""
        return BlockMapReader(self.cache.read)

    # ------------------------------------------------------------------
    # path resolution

    def _root(self) -> CachedInode:
        return self._iget(self.sb.root_ino)

    def _lookup_component(self, parent: CachedInode, name: str) -> int | None:
        """One component: dentry cache, then directory scan."""
        self.hooks.fire("vfs.lookup", parent_ino=parent.ino, name=name)
        cached = self.dentry_cache.lookup(parent.ino, name)
        if cached is not None:
            return None if cached == DentryCache.NEGATIVE else cached
        entry = self._dir_find(parent, name)
        if entry is None:
            self.dentry_cache.insert_negative(parent.ino, name)
            return None
        self.dentry_cache.insert(parent.ino, name, entry.ino)
        return entry.ino

    def _resolve(self, path: str, follow_last: bool = True) -> CachedInode:
        """Full path resolution with symlink following."""
        _parent, _name, slot = self._resolve_entry(path, follow_last=follow_last)
        if slot is None:
            raise FsError(Errno.ENOENT, path)
        return slot

    def _resolve_entry(
        self, path: str, follow_last: bool = True
    ) -> tuple[CachedInode, str, CachedInode | None]:
        """Resolve to ``(parent_dir, final_name, final or None)``.

        Intermediate symlinks are always followed; the final component is
        followed iff ``follow_last`` — and when it is followed, the
        returned parent/name are those of the *resolved* location, which
        is what open-with-CREAT through a dangling symlink needs.  Raises
        ENOENT for missing intermediates, ENOTDIR when a non-dir appears
        mid-path, ELOOP on symlink cycles.  For ``/`` the root is
        returned as both parent and final, with an empty name.
        """
        components = split_path(path)
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
            child_ino = self._lookup_component(current, name)
            if child_ino is None:
                if is_last:
                    return current, name, None
                raise FsError(Errno.ENOENT, "/" + "/".join(components[: i + 1]))
            child = self._iget(child_ino)
            if child.inode.is_symlink and (follow_last or not is_last):
                depth += 1
                if depth > SYMLINK_DEPTH_LIMIT:
                    raise FsError(Errno.ELOOP, path)
                target = self._read_symlink(child)
                rest = components[i + 1 :]
                if target.startswith("/"):
                    target_components = split_path(target)
                    current = self._root()
                else:
                    target_components = split_path("/" + target)
                    # relative: resolved against the symlink's directory
                components = target_components + rest
                i = 0
                if not components:
                    return current, "", current
                continue
            if is_last:
                return current, name, child
            current = child
            i += 1
        raise AssertionError("unreachable")

    def _resolve_parent(self, path: str) -> tuple[CachedInode, str]:
        """Resolve the parent directory of ``path``; returns (dir, name)."""
        parents, name = parent_and_name(path)
        parent_path = "/" + "/".join(parents)
        parent = self._resolve(parent_path, follow_last=True)
        if not parent.inode.is_dir:
            raise FsError(Errno.ENOTDIR, parent_path)
        return parent, name

    def _read_symlink(self, slot: CachedInode) -> str:
        block = slot.inode.direct[0]
        if not block:
            raise InvariantViolation(f"symlink inode {slot.ino} has no target block", check="symlink-block")
        raw = self.cache.read(block)
        return raw[: slot.inode.size].decode()

    # ------------------------------------------------------------------
    # directory content

    def _dir_blocks(self, slot: CachedInode) -> list[int]:
        reader = self._map_reader()
        return [physical for _logical, physical in reader.iter_data_blocks(slot.inode)]

    def _dir_find(self, slot: CachedInode, name: str) -> DirEntry | None:
        self.hooks.fire("dir.read", dir_ino=slot.ino)
        for block in self._dir_blocks(slot):
            entry = DirBlock(self.cache.read(block)).find(name)
            if entry is not None:
                return entry
        return None

    def _dir_entries(self, slot: CachedInode) -> list[DirEntry]:
        self.hooks.fire("dir.read", dir_ino=slot.ino)
        entries: list[DirEntry] = []
        for block in self._dir_blocks(slot):
            entries.extend(DirBlock(self.cache.read(block)).entries())
        return entries

    def _dir_is_empty(self, slot: CachedInode) -> bool:
        return all(entry.name in (".", "..") for entry in self._dir_entries(slot))

    def _dir_insert_cost(self, slot: CachedInode, name: str) -> int:
        """Blocks a ``_dir_insert`` of ``name`` would allocate (0..2)."""
        for block in self._dir_blocks(slot):
            if DirBlock(self.cache.read(block)).free_space_for(name):
                return 0
        cost = 1
        logical = slot.inode.block_count()
        if logical >= N_DIRECT and not slot.inode.indirect:
            cost += 1
        if logical >= N_DIRECT + PTRS_PER_BLOCK:
            raise FsError(Errno.ENOSPC, "directory too large")
        return cost

    def _dir_insert(self, slot: CachedInode, name: str, child_ino: int, ftype: FileType, opseq: int) -> None:
        """Insert an entry; the caller has verified name absence and
        capacity (``_dir_insert_cost`` + available_blocks)."""
        self.hooks.fire("dir.insert", dir_ino=slot.ino, name=name, child_ino=child_ino)
        for block in self._dir_blocks(slot):
            dir_block = DirBlock(self.cache.read(block))
            if dir_block.insert(child_ino, name, ftype):
                self._meta_write(block, dir_block.to_block(), role="dir")
                slot.inode.mtime = opseq
                slot.inode.ctime = opseq
                self._dirty(slot)
                return
        # Grow the directory by one block.
        logical = slot.inode.block_count()
        physical = self.block_alloc.allocate(self.layout.group_of_ino(slot.ino))
        self._map_block(slot, logical, physical)
        dir_block = DirBlock()
        if not dir_block.insert(child_ino, name, ftype):
            raise AssertionError("fresh directory block rejected an entry")
        self._meta_write(physical, dir_block.to_block(), role="dir")
        slot.inode.size += BLOCK_SIZE
        slot.inode.mtime = opseq
        slot.inode.ctime = opseq
        self._dirty(slot)

    def _dir_remove(self, slot: CachedInode, name: str, opseq: int) -> None:
        self.hooks.fire("dir.remove", dir_ino=slot.ino, name=name)
        for block in self._dir_blocks(slot):
            dir_block = DirBlock(self.cache.read(block))
            if dir_block.remove(name):
                self._meta_write(block, dir_block.to_block(), role="dir")
                slot.inode.mtime = opseq
                slot.inode.ctime = opseq
                self._dirty(slot)
                return
        raise InvariantViolation(f"entry {name!r} vanished from dir {slot.ino}", check="dir-remove")

    def _dir_set_dotdot(self, slot: CachedInode, new_parent_ino: int) -> None:
        """Repoint '..' after a cross-directory rename of a directory."""
        for block in self._dir_blocks(slot):
            dir_block = DirBlock(self.cache.read(block))
            if dir_block.find("..") is not None:
                dir_block.remove("..")
                if not dir_block.insert(new_parent_ino, "..", FileType.DIRECTORY):
                    raise InvariantViolation(f"no room to repoint '..' in dir {slot.ino}", check="dotdot")
                self._meta_write(block, dir_block.to_block(), role="dir")
                return
        raise InvariantViolation(f"dir {slot.ino} has no '..' entry", check="dotdot")

    # ------------------------------------------------------------------
    # block mapping (write side; read side is BlockMapReader)

    def _map_block(self, slot: CachedInode, logical: int, physical: int, charge_reservation: bool = False) -> None:
        """Point ``logical`` at ``physical``, allocating indirect blocks
        as needed.  Indirect blocks consume their reservations when the
        commit path passes ``charge_reservation``."""
        inode = slot.inode
        if logical < N_DIRECT:
            if inode.direct[logical]:
                raise InvariantViolation(f"remap of mapped block {logical} in ino {slot.ino}", check="remap")
            inode.direct[logical] = physical
            self._dirty(slot)
            return
        index = logical - N_DIRECT
        if index < PTRS_PER_BLOCK:
            if not inode.indirect:
                inode.indirect = self._alloc_pointer_block(slot, ("ind",), charge_reservation)
                self._dirty(slot)
            single = self.cache.read(inode.indirect)
            if pointer_at(single, index):
                raise InvariantViolation(f"remap of mapped block {logical} in ino {slot.ino}", check="remap")
            self._meta_write(inode.indirect, with_pointer(single, index, physical), role="indirect")
            return
        index -= PTRS_PER_BLOCK
        if index >= PTRS_PER_BLOCK * PTRS_PER_BLOCK:
            raise FsError(Errno.EFBIG, f"logical block {logical}")
        outer_index, inner_index = divmod(index, PTRS_PER_BLOCK)
        if not inode.double_indirect:
            inode.double_indirect = self._alloc_pointer_block(slot, ("dbl",), charge_reservation)
            self._dirty(slot)
        outer = self.cache.read(inode.double_indirect)
        inner_block = pointer_at(outer, outer_index)
        if not inner_block:
            inner_block = self._alloc_pointer_block(slot, ("dbl", outer_index), charge_reservation)
            self._meta_write(inode.double_indirect, with_pointer(outer, outer_index, inner_block), role="indirect")
        inner = self.cache.read(inner_block)
        if pointer_at(inner, inner_index):
            raise InvariantViolation(f"remap of mapped block {logical} in ino {slot.ino}", check="remap")
        self._meta_write(inner_block, with_pointer(inner, inner_index, physical), role="indirect")

    def _alloc_pointer_block(self, slot: CachedInode, key_suffix: tuple, charge_reservation: bool) -> int:
        key = (slot.ino,) + key_suffix
        charge = charge_reservation and key in self._reserved_indirect
        block = self.block_alloc.allocate(self.layout.group_of_ino(slot.ino), charge_reservation=charge)
        if charge:
            self._reserved_indirect.discard(key)
        self._meta_write(block, bytes(BLOCK_SIZE), role="indirect")
        return block

    def _truncate_blocks(self, slot: CachedInode, keep_blocks: int) -> None:
        """Free every mapped block at logical >= keep_blocks, plus any
        indirect blocks that become empty."""
        inode = slot.inode
        for logical in range(keep_blocks, N_DIRECT):
            if inode.direct[logical]:
                self._free_block(inode.direct[logical])
                inode.direct[logical] = 0
                self._dirty(slot)
        if inode.indirect:
            start = max(0, keep_blocks - N_DIRECT)
            pointers = unpack_pointers(self.cache.read(inode.indirect))
            changed = False
            for i in range(start, PTRS_PER_BLOCK):
                if pointers[i]:
                    self._free_block(pointers[i])
                    pointers[i] = 0
                    changed = True
            if start == 0:
                self._free_block(inode.indirect)
                inode.indirect = 0
                self._dirty(slot)
            elif changed:
                self._meta_write(inode.indirect, pack_pointers(pointers), role="indirect")
        if inode.double_indirect:
            dbl_base = N_DIRECT + PTRS_PER_BLOCK
            start = max(0, keep_blocks - dbl_base)
            outer = unpack_pointers(self.cache.read(inode.double_indirect))
            outer_changed = False
            for oi in range(PTRS_PER_BLOCK):
                if not outer[oi]:
                    continue
                inner_start = max(0, start - oi * PTRS_PER_BLOCK)
                if inner_start >= PTRS_PER_BLOCK:
                    continue
                inner = unpack_pointers(self.cache.read(outer[oi]))
                inner_changed = False
                for ii in range(inner_start, PTRS_PER_BLOCK):
                    if inner[ii]:
                        self._free_block(inner[ii])
                        inner[ii] = 0
                        inner_changed = True
                if inner_start == 0:
                    self._free_block(outer[oi])
                    outer[oi] = 0
                    outer_changed = True
                elif inner_changed:
                    self._meta_write(outer[oi], pack_pointers(inner), role="indirect")
            if start == 0:
                self._free_block(inode.double_indirect)
                inode.double_indirect = 0
                self._dirty(slot)
            elif outer_changed:
                self._meta_write(inode.double_indirect, pack_pointers(outer), role="indirect")

    def _free_block(self, block: int) -> None:
        """Free a block and scrub every in-memory trace of it: a freed
        block must never reach the next journal transaction as stale
        dirty metadata."""
        self.block_alloc.free(block)
        self.cache.invalidate(block)
        self._block_role.pop(block, None)

    # ------------------------------------------------------------------
    # data IO through blkmq

    def _read_data_block(self, physical: int) -> bytes:
        request = self.blkmq.submit_read(physical)
        self.hooks.fire("blkmq.submit", op="read", block=physical)
        while not request.done:
            self.blkmq.pump()
        self.blkmq.reap()
        if request.error is not None:
            raise request.error
        self.stats.data_reads += 1
        assert request.result is not None
        return request.result

    # ------------------------------------------------------------------
    # delayed-allocation reservations

    def _reserve_for_write(self, slot: CachedInode, logicals: list[int]) -> None:
        """Take delalloc reservations for not-yet-mapped, not-yet-reserved
        logical blocks, including indirect-block overhead; all-or-nothing."""
        reader = self._map_reader()
        new_pages: list[tuple[int, int]] = []
        new_indirect: list[tuple] = []
        ino = slot.ino
        for logical in logicals:
            key = (ino, logical)
            if key in self._reserved_pages:
                continue
            if reader.resolve(slot.inode, logical):
                continue
            page = self.page_cache.lookup(ino, logical)
            if page is not None and page.dirty:
                continue  # already reserved when first dirtied
            new_pages.append(key)
            if logical >= N_DIRECT + PTRS_PER_BLOCK:
                outer_index = (logical - N_DIRECT - PTRS_PER_BLOCK) // PTRS_PER_BLOCK
                for ikey in ((ino, "dbl"), (ino, "dbl", outer_index)):
                    if ikey not in self._reserved_indirect and ikey not in new_indirect:
                        if not self._indirect_present(slot, ikey):
                            new_indirect.append(ikey)
            elif logical >= N_DIRECT:
                ikey = (ino, "ind")
                if ikey not in self._reserved_indirect and ikey not in new_indirect and not slot.inode.indirect:
                    new_indirect.append(ikey)
        needed = len(new_pages) + len(new_indirect)
        if needed:
            self.alloc.reserve(needed)  # raises ENOSPC atomically
            self._reserved_pages.update(new_pages)
            self._reserved_indirect.update(new_indirect)

    def _indirect_present(self, slot: CachedInode, key: tuple) -> bool:
        if key[1] == "dbl" and len(key) == 2:
            return bool(slot.inode.double_indirect)
        if key[1] == "dbl":
            if not slot.inode.double_indirect:
                return False
            return bool(pointer_at(self.cache.read(slot.inode.double_indirect), key[2]))
        return bool(slot.inode.indirect)

    def _release_page_reservations(self, ino: int, from_logical: int = 0) -> None:
        victims = [key for key in self._reserved_pages if key[0] == ino and key[1] >= from_logical]
        for key in victims:
            self._reserved_pages.discard(key)
        indirect_victims = []
        for key in self._reserved_indirect:
            if key[0] != ino:
                continue
            if key[1] == "ind" and from_logical <= N_DIRECT:
                indirect_victims.append(key)
            elif key[1] == "dbl":
                if from_logical <= N_DIRECT + PTRS_PER_BLOCK:
                    indirect_victims.append(key)
                elif len(key) == 3:
                    first_logical = N_DIRECT + PTRS_PER_BLOCK + key[2] * PTRS_PER_BLOCK
                    if from_logical <= first_logical:
                        indirect_victims.append(key)
        still_needed = {k[1] for k in self._reserved_pages if k[0] == ino}
        for key in indirect_victims:
            # Only release an indirect reservation if no remaining reserved
            # page still needs that pointer block.
            if key[1] == "ind" and any(N_DIRECT <= l < N_DIRECT + PTRS_PER_BLOCK for l in still_needed):
                continue
            if key[1] == "dbl" and len(key) == 2 and any(l >= N_DIRECT + PTRS_PER_BLOCK for l in still_needed):
                continue
            if key[1] == "dbl" and len(key) == 3:
                lo = N_DIRECT + PTRS_PER_BLOCK + key[2] * PTRS_PER_BLOCK
                if any(lo <= l < lo + PTRS_PER_BLOCK for l in still_needed):
                    continue
            self._reserved_indirect.discard(key)
        released = len(victims) + sum(
            1 for key in indirect_victims if key not in self._reserved_indirect
        )
        if released:
            self.alloc.release_reservation(released)

    # ------------------------------------------------------------------
    # commit

    def dirty_page_count(self) -> int:
        return self.page_cache.dirty_count()

    def dirty_metadata_count(self) -> int:
        return (
            len(self.cache.dirty_blocks)
            + len(self.inode_cache.dirty_inodes())
            + len(self.alloc.dirty_block_groups)
            + len(self.alloc.dirty_inode_groups)
        )

    def commit(self) -> None:
        """The single durability path: data, then journaled metadata."""
        self._require_mounted()
        self.hooks.fire("journal.commit", nblocks=self.dirty_metadata_count())

        # Phase 1 (ordered mode): allocate + write dirty data pages.
        for page in self.page_cache.dirty_pages():
            slot = self.inode_cache.get(page.ino)
            if slot is None:
                slot = self._iget(page.ino)
            reader = self._map_reader()
            physical = reader.resolve(slot.inode, page.logical)
            if not physical:
                charge = (page.ino, page.logical) in self._reserved_pages
                physical = self.block_alloc.allocate(
                    self.layout.group_of_ino(page.ino), charge_reservation=charge
                )
                if charge:
                    self._reserved_pages.discard((page.ino, page.logical))
                self._map_block(slot, page.logical, physical, charge_reservation=True)
            # Ordered mode: data pages are written *before* the metadata
            # commit on purpose, so the journaled metadata never references
            # unwritten data.  Data blocks are not journal-covered (§JBD2
            # ordered); the commit that follows in phase 4 seals them.
            self.blkmq.submit_write(physical, bytes(page.data))
            self.hooks.fire("blkmq.submit", op="write", block=physical)
            self.stats.data_writes += 1
            self.page_cache.mark_clean(page.ino, page.logical)
        self.blkmq.drain()
        # A completed data write can still carry a device error (the
        # read path at _read_data_block re-raises these); swallowing it
        # here would seal a journal commit whose ordered data never hit
        # the disk — silent content divergence the sweep flagged.
        for request in self.blkmq.reap():
            if request.error is not None:
                raise request.error
        self.device.flush()

        # Phase 2: serialize dirty inodes into their table blocks.
        for slot in self.inode_cache.dirty_inodes():
            block, offset = self.layout.inode_location(slot.ino)
            raw = bytearray(self.cache.read(block))
            raw[offset : offset + INODE_SIZE] = slot.inode.pack()
            self._meta_write(block, bytes(raw), role="itable")
            self.inode_cache.clean(slot.ino)

        # Phase 3: apply window frees (safe now — no further in-place data
        # writes this transaction), then serialize dirty bitmaps and the
        # superblock.
        self.block_alloc.apply_pending_frees()
        for group in sorted(self.alloc.dirty_block_groups):
            self._meta_write(
                self.layout.block_bitmap_block(group),
                self.alloc.block_bitmaps[group].to_block(),
                role="bitmap",
            )
        for group in sorted(self.alloc.dirty_inode_groups):
            self._meta_write(
                self.layout.inode_bitmap_block(group),
                self.alloc.inode_bitmaps[group].to_block(),
                role="bitmap",
            )
        self.alloc.dirty_block_groups.clear()
        self.alloc.dirty_inode_groups.clear()

        txn = {block: data for block in self.cache.dirty_blocks if (data := self.cache.peek(block)) is not None}
        if txn:
            self.sb.free_blocks = self.alloc.free_blocks
            self.sb.free_inodes = self.alloc.free_inodes
            self.sb.write_generation += 1
            self._meta_write(0, self.sb.pack(), role="sb")
            txn[0] = self.cache.peek(0)  # type: ignore[assignment]

        # Phase 4: journal + home writes (validate-on-sync inside).
        self.journal.commit(txn, self.cache)
        self.stats.commits += 1
        self.commit_epoch += 1
        self.writeback.note_commit()
        for callback in self.on_commit:
            callback(self.commit_epoch)

    def _validate_txn(self, txn: dict[int, bytes]) -> list[str]:
        """Validate-on-sync: parse every block by role, cross-check
        allocation consistency.  Returns problem strings (empty = pass)."""
        problems: list[str] = []

        # Accounting ground truth: free counters must equal the bitmaps.
        # (Comparing the superblock to the counters alone would miss bugs
        # that corrupt both in lockstep, e.g. a forgotten decrement.)
        bitmap_free_blocks = sum(bm.count_free() for bm in self.alloc.block_bitmaps)
        if bitmap_free_blocks != self.alloc.free_blocks:
            problems.append(
                f"free_blocks accounting {self.alloc.free_blocks} != bitmap count {bitmap_free_blocks}"
            )
        bitmap_free_inodes = sum(bm.count_free() for bm in self.alloc.inode_bitmaps)
        if bitmap_free_inodes != self.alloc.free_inodes:
            problems.append(
                f"free_inodes accounting {self.alloc.free_inodes} != bitmap count {bitmap_free_inodes}"
            )
        for block, data in sorted(txn.items()):
            role = "sb" if block == 0 else self._block_role.get(block, "unknown")
            try:
                if role == "sb":
                    sb = Superblock.unpack(data)
                    if sb.free_blocks != self.alloc.free_blocks:
                        problems.append(
                            f"superblock free_blocks {sb.free_blocks} != accounting {self.alloc.free_blocks}"
                        )
                elif role == "dir":
                    walk_entries(data)
                elif role == "itable":
                    for offset in range(0, BLOCK_SIZE, INODE_SIZE):
                        fields = read_slot(data, offset)
                        if fields is None or fields[SLOT_MODE] == 0:
                            continue
                        ftype = mode_type(fields[SLOT_MODE])
                        size = fields[SLOT_SIZE]
                        nlink = fields[SLOT_NLINK]
                        if ftype == FileType.NONE:
                            problems.append(f"inode in block {block}+{offset} has invalid type")
                        if size > MAX_FILE_SIZE:
                            problems.append(f"inode in block {block}+{offset} has size {size}")
                        if ftype == FileType.DIRECTORY and size % BLOCK_SIZE:
                            problems.append(f"dir inode in block {block}+{offset} has unaligned size")
                        if nlink > 65535:
                            problems.append(f"inode in block {block}+{offset} has nlink {nlink}")
                elif role == "indirect":
                    for pointer in unpack_pointers(data):
                        if pointer and not 0 < pointer < self.layout.block_count:
                            problems.append(f"indirect block {block} points at {pointer}")
                elif role == "bitmap":
                    pass  # structure-free; consistency is checked below
            except (ValueError, InvariantViolation) as exc:
                problems.append(f"block {block} ({role}): {exc}")

            # Any journaled dir/indirect/symlink block must be marked
            # allocated in the (in-memory) bitmaps.
            if role in ("dir", "indirect", "symlink") and block != 0:
                group = self.layout.group_of_block(block)
                bit = block - self.layout.group_start(group)
                if not self.alloc.block_bitmaps[group].test(bit):
                    problems.append(f"journaled {role} block {block} is not allocated in the bitmap")
        return problems

    # ------------------------------------------------------------------
    # metadata downloading (§3.2 "Hand-off back to the base")
    #
    # These are the "extensively-tested interfaces to absorb the output of
    # the shadow".  They reuse the existing machinery — buffer cache, page
    # cache, fd table, allocator state — and mark everything dirty so the
    # ordinary commit path persists it.

    def absorb_metadata(self, blocks: dict[int, bytes], roles: dict[int, str]) -> None:
        """Place shadow-produced metadata blocks into the buffer cache,
        dirty.  Block 0 is skipped: the superblock is the base's own (its
        free counts arrive via :meth:`absorb_accounting`)."""
        self._require_mounted()
        for block in sorted(blocks):
            if block == 0:
                continue
            self.layout.group_of_block(block)  # range check
            self._meta_write(block, blocks[block], role=roles.get(block, "unknown"))

    def absorb_data_pages(self, pages: dict[tuple[int, int], bytes]) -> None:
        """Install shadow-produced file data into the page cache, dirty."""
        self._require_mounted()
        for (ino, logical) in sorted(pages):
            self.page_cache.install(ino, logical, pages[(ino, logical)], dirty=True)

    def absorb_accounting(
        self,
        free_blocks: int,
        free_inodes: int,
        dirty_block_groups: set[int] | None = None,
        dirty_inode_groups: set[int] | None = None,
    ) -> None:
        """Adopt the shadow's allocation state: bitmaps are re-read through
        the buffer cache (where :meth:`absorb_metadata` just put them).
        Only the groups the shadow actually modified need re-journaling;
        callers that do not know pass None and every group is marked dirty
        (correct, just a bigger commit)."""
        self._require_mounted()
        self.alloc = AllocState.load(self.layout, self.cache.read)
        all_groups = range(self.layout.group_count)
        self.alloc.dirty_block_groups = set(dirty_block_groups if dirty_block_groups is not None else all_groups)
        self.alloc.dirty_inode_groups = set(dirty_inode_groups if dirty_inode_groups is not None else all_groups)
        self.block_alloc = BlockAllocator(self.alloc, self.hooks)
        self.inode_alloc = InodeAllocator(self.alloc, self.hooks)
        if self.alloc.free_blocks != free_blocks or self.alloc.free_inodes != free_inodes:
            raise InvariantViolation(
                f"hand-off accounting mismatch: bitmaps say {self.alloc.free_blocks}b/"
                f"{self.alloc.free_inodes}i, shadow reported {free_blocks}b/{free_inodes}i",
                check="handoff-accounting",
            )
        self.sb.free_blocks = free_blocks
        self.sb.free_inodes = free_inodes

    def absorb_fd_table(self, fds: dict[int, "FdState"]) -> None:
        """Install the reconstructed descriptor table.  Orphan semantics
        (open-but-unlinked inodes) are re-established so a later close
        frees the inode exactly as it would have."""
        self._require_mounted()
        if len(self.fd_table):
            raise InvariantViolation("fd table not empty at hand-off", check="handoff-fds")
        for fd in sorted(fds):
            state = fds[fd]
            slot = self._iget(state.ino)
            self.fd_table.install(state.snapshot())
            self.inode_cache.pin(state.ino)
            if slot.inode.nlink == 0 and state.ino not in self._orphans:
                self._orphans.add(state.ino)
                self.inode_cache.pin(state.ino)

    # ==================================================================
    # FilesystemAPI

    def mkdir(self, path: str, perms: int = 0o755, opseq: int = 0) -> None:
        self._require_mounted()
        self.stats.count("mkdir")
        try:
            parent, name = self._resolve_parent(path)
            self.locks.acquire(parent.ino)
            if self._lookup_component(parent, name) is not None:
                raise FsError(Errno.EEXIST, path)
            # capacity: child inode + child block + possible parent growth
            needed = 1 + self._dir_insert_cost(parent, name)
            if self.alloc.available_blocks < needed:
                raise FsError(Errno.ENOSPC, path)
            if self.alloc.free_inodes < 1:
                raise FsError(Errno.ENOSPC, path)

            child = self._new_inode(FileType.DIRECTORY, perms, self.layout.group_of_ino(parent.ino), opseq)
            block = self.block_alloc.allocate(self.layout.group_of_ino(child.ino))
            dir_block = DirBlock()
            dir_block.insert(child.ino, ".", FileType.DIRECTORY)
            dir_block.insert(parent.ino, "..", FileType.DIRECTORY)
            self._meta_write(block, dir_block.to_block(), role="dir")
            child.inode.direct[0] = block
            child.inode.size = BLOCK_SIZE
            child.inode.nlink = 2
            self._dirty(child)

            self._dir_insert(parent, name, child.ino, FileType.DIRECTORY, opseq)
            parent.inode.nlink += 1
            self._dirty(parent)
            self.dentry_cache.insert(parent.ino, name, child.ino)
        finally:
            self.locks.release_all()

    def rmdir(self, path: str, opseq: int = 0) -> None:
        self._require_mounted()
        self.stats.count("rmdir")
        try:
            parent, name = self._resolve_parent(path)
            self.locks.acquire(parent.ino)
            child_ino = self._lookup_component(parent, name)
            if child_ino is None:
                raise FsError(Errno.ENOENT, path)
            child = self._iget(child_ino)
            self.locks.acquire(child.ino, parent=parent.ino)
            if not child.inode.is_dir:
                raise FsError(Errno.ENOTDIR, path)
            if not self._dir_is_empty(child):
                raise FsError(Errno.ENOTEMPTY, path)
            self._dir_remove(parent, name, opseq)
            parent.inode.nlink -= 1
            self._dirty(parent)
            self.dentry_cache.invalidate(parent.ino, name)
            self.dentry_cache.invalidate_dir(child.ino)
            child.inode.nlink = 0
            self._free_inode(child)
        finally:
            self.locks.release_all()

    def unlink(self, path: str, opseq: int = 0) -> None:
        self._require_mounted()
        self.stats.count("unlink")
        try:
            parent, name = self._resolve_parent(path)
            self.locks.acquire(parent.ino)
            child_ino = self._lookup_component(parent, name)
            if child_ino is None:
                raise FsError(Errno.ENOENT, path)
            child = self._iget(child_ino)
            self.locks.acquire(child.ino, parent=parent.ino)
            if child.inode.is_dir:
                raise FsError(Errno.EISDIR, path)
            self._dir_remove(parent, name, opseq)
            self.dentry_cache.invalidate(parent.ino, name)
            child.inode.nlink -= 1
            child.inode.ctime = opseq
            self._dirty(child)
            if child.inode.nlink == 0:
                if self.fd_table.fds_for_ino(child.ino):
                    self._orphans.add(child.ino)
                    self.inode_cache.pin(child.ino)
                else:
                    self._release_page_reservations(child.ino)
                    self._free_inode(child)
        finally:
            self.locks.release_all()

    def rename(self, src: str, dst: str, opseq: int = 0) -> None:
        self._require_mounted()
        self.stats.count("rename")
        self.hooks.fire("rename", src=src, dst=dst)
        try:
            src_parent, src_name = self._resolve_parent(src)
            dst_parent, dst_name = self._resolve_parent(dst)
            self.locks.acquire_pair(src_parent.ino, dst_parent.ino)
            moving_ino = self._lookup_component(src_parent, src_name)
            if moving_ino is None:
                raise FsError(Errno.ENOENT, src)
            moving = self._iget(moving_ino)
            existing_ino = self._lookup_component(dst_parent, dst_name)

            if existing_ino == moving_ino:
                return  # POSIX: same file, do nothing
            if moving.inode.is_dir:
                # Reject moving a directory into its own subtree.
                cursor = dst_parent
                while cursor.ino != self.sb.root_ino:
                    if cursor.ino == moving_ino:
                        raise FsError(Errno.EINVAL, f"{dst} is inside {src}")
                    dotdot = self._dir_find(cursor, "..")
                    if dotdot is None:
                        raise InvariantViolation(f"dir {cursor.ino} lacks '..'", check="dotdot")
                    cursor = self._iget(dotdot.ino)
                if moving_ino == self.sb.root_ino:
                    raise FsError(Errno.EINVAL, "cannot rename /")

            existing = self._iget(existing_ino) if existing_ino is not None else None
            if existing is not None:
                if moving.inode.is_dir and not existing.inode.is_dir:
                    raise FsError(Errno.ENOTDIR, dst)
                if not moving.inode.is_dir and existing.inode.is_dir:
                    raise FsError(Errno.EISDIR, dst)
                if existing.inode.is_dir and not self._dir_is_empty(existing):
                    raise FsError(Errno.ENOTEMPTY, dst)
            else:
                needed = self._dir_insert_cost(dst_parent, dst_name)
                if self.alloc.available_blocks < needed:
                    raise FsError(Errno.ENOSPC, dst)

            # ---- mutation starts here (all checks passed) ----
            if existing is not None:
                self._dir_remove(dst_parent, dst_name, opseq)
                self.dentry_cache.invalidate(dst_parent.ino, dst_name)
                if existing.inode.is_dir:
                    dst_parent.inode.nlink -= 1
                    self._dirty(dst_parent)
                    existing.inode.nlink = 0
                    self.dentry_cache.invalidate_dir(existing.ino)
                    self._free_inode(existing)
                else:
                    existing.inode.nlink -= 1
                    existing.inode.ctime = opseq
                    self._dirty(existing)
                    if existing.inode.nlink == 0:
                        if self.fd_table.fds_for_ino(existing.ino):
                            self._orphans.add(existing.ino)
                            self.inode_cache.pin(existing.ino)
                        else:
                            self._release_page_reservations(existing.ino)
                            self._free_inode(existing)

            self._dir_remove(src_parent, src_name, opseq)
            self.dentry_cache.invalidate(src_parent.ino, src_name)
            self._dir_insert(dst_parent, dst_name, moving_ino, moving.inode.ftype, opseq)
            self.dentry_cache.insert(dst_parent.ino, dst_name, moving_ino)

            if moving.inode.is_dir and src_parent.ino != dst_parent.ino:
                self._dir_set_dotdot(moving, dst_parent.ino)
                src_parent.inode.nlink -= 1
                dst_parent.inode.nlink += 1
                self._dirty(src_parent)
                self._dirty(dst_parent)
            moving.inode.ctime = opseq
            self._dirty(moving)
        finally:
            self.locks.release_all()

    def link(self, existing: str, new: str, opseq: int = 0) -> None:
        self._require_mounted()
        self.stats.count("link")
        try:
            target = self._resolve(existing, follow_last=False)
            if target.inode.is_dir:
                raise FsError(Errno.EPERM, "hard link to directory")
            new_parent, new_name = self._resolve_parent(new)
            self.locks.acquire_pair(new_parent.ino, target.ino)
            if self._lookup_component(new_parent, new_name) is not None:
                raise FsError(Errno.EEXIST, new)
            needed = self._dir_insert_cost(new_parent, new_name)
            if self.alloc.available_blocks < needed:
                raise FsError(Errno.ENOSPC, new)
            self._dir_insert(new_parent, new_name, target.ino, target.inode.ftype, opseq)
            self.dentry_cache.insert(new_parent.ino, new_name, target.ino)
            target.inode.nlink += 1
            target.inode.ctime = opseq
            self._dirty(target)
        finally:
            self.locks.release_all()

    def symlink(self, target: str, path: str, opseq: int = 0) -> None:
        self._require_mounted()
        self.stats.count("symlink")
        self.hooks.fire("symlink", path=path, target=target)
        try:
            encoded = target.encode()
            if not target:
                raise FsError(Errno.EINVAL, "empty symlink target")
            if len(encoded) > MAX_SYMLINK_TARGET:
                raise FsError(Errno.ENAMETOOLONG, "symlink target too long")
            parent, name = self._resolve_parent(path)
            self.locks.acquire(parent.ino)
            if self._lookup_component(parent, name) is not None:
                raise FsError(Errno.EEXIST, path)
            needed = 1 + self._dir_insert_cost(parent, name)
            if self.alloc.available_blocks < needed:
                raise FsError(Errno.ENOSPC, path)
            if self.alloc.free_inodes < 1:
                raise FsError(Errno.ENOSPC, path)
            child = self._new_inode(FileType.SYMLINK, 0o777, self.layout.group_of_ino(parent.ino), opseq)
            block = self.block_alloc.allocate(self.layout.group_of_ino(child.ino))
            self._meta_write(block, encoded + b"\x00" * (BLOCK_SIZE - len(encoded)), role="symlink")
            child.inode.direct[0] = block
            child.inode.size = len(encoded)
            child.inode.nlink = 1
            self._dirty(child)
            self._dir_insert(parent, name, child.ino, FileType.SYMLINK, opseq)
            self.dentry_cache.insert(parent.ino, name, child.ino)
        finally:
            self.locks.release_all()

    def readlink(self, path: str) -> str:
        self._require_mounted()
        self.stats.count("readlink")
        slot = self._resolve(path, follow_last=False)
        if not slot.inode.is_symlink:
            raise FsError(Errno.EINVAL, path)
        return self._read_symlink(slot)

    def readdir(self, path: str) -> list[str]:
        self._require_mounted()
        self.stats.count("readdir")
        slot = self._resolve(path, follow_last=True)
        if not slot.inode.is_dir:
            raise FsError(Errno.ENOTDIR, path)
        return sorted(entry.name for entry in self._dir_entries(slot) if entry.name not in (".", ".."))

    def stat(self, path: str) -> StatResult:
        self._require_mounted()
        self.stats.count("stat")
        return self._stat_slot(self._resolve(path, follow_last=True))

    def lstat(self, path: str) -> StatResult:
        self._require_mounted()
        self.stats.count("lstat")
        return self._stat_slot(self._resolve(path, follow_last=False))

    def _stat_slot(self, slot: CachedInode) -> StatResult:
        inode = slot.inode
        return StatResult(
            ino=slot.ino,
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
        self._require_mounted()
        self.stats.count("truncate")
        if size < 0:
            raise FsError(Errno.EINVAL, f"negative size {size}")
        if size > MAX_FILE_SIZE:
            raise FsError(Errno.EFBIG, str(size))
        slot = self._resolve(path, follow_last=True)
        if slot.inode.is_dir:
            raise FsError(Errno.EISDIR, path)
        if slot.inode.is_symlink:
            raise FsError(Errno.EINVAL, path)
        self._truncate_slot(slot, size, opseq)

    def _truncate_slot(self, slot: CachedInode, size: int, opseq: int) -> None:
        inode = slot.inode
        old_size = inode.size
        self.hooks.fire("truncate", ino=slot.ino, old_size=old_size, new_size=size)
        if size < old_size:
            keep = (size + BLOCK_SIZE - 1) // BLOCK_SIZE
            self.page_cache.drop_ino(slot.ino, from_logical=keep)
            self._release_page_reservations(slot.ino, from_logical=keep)
            self._truncate_blocks(slot, keep)
            within = size % BLOCK_SIZE
            if within:
                # Zero the tail of the final block so a later grow reveals
                # zeros, not stale bytes.
                logical = keep - 1
                page = self._page_for_write(slot, logical, full_overwrite=False)
                page.data[within:] = b"\x00" * (BLOCK_SIZE - within)
                page.dirty = True
        inode.size = size
        inode.mtime = opseq
        inode.ctime = opseq
        self._dirty(slot)

    def open(self, path: str, flags: OpenFlags = OpenFlags.NONE, perms: int = 0o644, opseq: int = 0) -> int:
        self._require_mounted()
        self.stats.count("open")
        try:
            parent_and_name(path)  # reject "/" with EINVAL up front
            if flags & OpenFlags.CREAT and flags & OpenFlags.EXCL:
                # O_CREAT|O_EXCL: the *name* must not exist, even as a
                # dangling symlink, so resolution does not follow it.
                parent, name, found = self._resolve_entry(path, follow_last=False)
                if found is not None:
                    raise FsError(Errno.EEXIST, path)
            else:
                parent, name, found = self._resolve_entry(path, follow_last=True)
            self.locks.acquire(parent.ino)

            if found is None:
                if not flags & OpenFlags.CREAT:
                    raise FsError(Errno.ENOENT, path)
                needed = self._dir_insert_cost(parent, name)
                if self.alloc.available_blocks < needed:
                    raise FsError(Errno.ENOSPC, path)
                if self.alloc.free_inodes < 1:
                    raise FsError(Errno.ENOSPC, path)
                child = self._new_inode(FileType.REGULAR, perms, self.layout.group_of_ino(parent.ino), opseq)
                child.inode.nlink = 1
                self._dirty(child)
                self._dir_insert(parent, name, child.ino, FileType.REGULAR, opseq)
                self.dentry_cache.insert(parent.ino, name, child.ino)
            else:
                child = found
                if child.inode.is_dir:
                    raise FsError(Errno.EISDIR, path)
                if child.inode.is_symlink:
                    # Only reachable in the EXCL-less case when the final
                    # symlink could not be followed; _resolve_entry always
                    # follows, so a symlink here means follow_last=False.
                    raise FsError(Errno.ELOOP, path)

            state = self.fd_table.allocate(child.ino, flags)
            self.hooks.fire("vfs.open", path=path, flags=int(flags), ino=child.ino)
            self.inode_cache.pin(child.ino)
            if flags & OpenFlags.TRUNC and child.inode.size:
                self._truncate_slot(child, 0, opseq)
            return state.fd
        finally:
            self.locks.release_all()

    def close(self, fd: int, opseq: int = 0) -> None:
        self._require_mounted()
        self.stats.count("close")
        state = self.fd_table.release(fd)
        self.hooks.fire("vfs.close", fd=fd, ino=state.ino)
        self.inode_cache.unpin(state.ino)
        if state.ino in self._orphans and not self.fd_table.fds_for_ino(state.ino):
            self._orphans.discard(state.ino)
            self.inode_cache.unpin(state.ino)  # the orphan pin
            slot = self._iget(state.ino)
            self._release_page_reservations(state.ino)
            self._free_inode(slot)

    def read(self, fd: int, length: int, opseq: int = 0) -> bytes:
        self._require_mounted()
        self.stats.count("read")
        if length < 0:
            raise FsError(Errno.EINVAL, f"negative length {length}")
        state = self.fd_table.get(fd)
        slot = self._iget(state.ino)
        if slot.inode.is_dir:
            raise FsError(Errno.EISDIR, f"fd {fd}")
        start = state.offset
        end = min(slot.inode.size, start + length)
        if start >= slot.inode.size or length == 0:
            return b""
        out = bytearray()
        reader = self._map_reader()
        offset = start
        while offset < end:
            logical, within = divmod(offset, BLOCK_SIZE)
            take = min(BLOCK_SIZE - within, end - offset)
            page = self.page_cache.lookup(state.ino, logical)
            self.hooks.fire("page.read", ino=state.ino, logical=logical)
            if page is None:
                physical = reader.resolve(slot.inode, logical)
                data = self._read_data_block(physical) if physical else bytes(BLOCK_SIZE)
                page = self.page_cache.install(state.ino, logical, data, dirty=False)
                for ahead in self.page_cache.readahead_plan(state.ino, logical, slot.inode.block_count()):
                    ahead_physical = reader.resolve(slot.inode, ahead)
                    ahead_data = self._read_data_block(ahead_physical) if ahead_physical else bytes(BLOCK_SIZE)
                    self.page_cache.install(state.ino, ahead, ahead_data, dirty=False)
            else:
                self.page_cache.readahead_plan(state.ino, logical, slot.inode.block_count())
            out += page.data[within : within + take]
            offset += take
        state.offset = end
        return bytes(out)

    def _page_for_write(self, slot: CachedInode, logical: int, full_overwrite: bool) -> Page:
        page = self.page_cache.lookup(slot.ino, logical)
        if page is not None:
            return page
        if full_overwrite or logical >= slot.inode.block_count():
            data = bytes(BLOCK_SIZE)
        else:
            physical = self._map_reader().resolve(slot.inode, logical)
            data = self._read_data_block(physical) if physical else bytes(BLOCK_SIZE)
        return self.page_cache.install(slot.ino, logical, data, dirty=False)

    def write(self, fd: int, data: bytes, opseq: int = 0) -> int:
        self._require_mounted()
        self.stats.count("write")
        if not isinstance(data, (bytes, bytearray)):
            raise FsError(Errno.EINVAL, "write data must be bytes")
        state = self.fd_table.get(fd)
        slot = self._iget(state.ino)
        if slot.inode.is_dir:
            raise FsError(Errno.EISDIR, f"fd {fd}")
        if not data:
            return 0
        offset = slot.inode.size if state.flags & OpenFlags.APPEND else state.offset
        end = offset + len(data)
        if end > MAX_FILE_SIZE:
            raise FsError(Errno.EFBIG, f"write to {end}")

        first, last = offset // BLOCK_SIZE, (end - 1) // BLOCK_SIZE
        logicals = list(range(first, last + 1))
        self._reserve_for_write(slot, logicals)  # ENOSPC before any mutation

        cursor = offset
        remaining = memoryview(bytes(data))
        for logical in logicals:
            within = cursor % BLOCK_SIZE
            take = min(BLOCK_SIZE - within, end - cursor)
            full = within == 0 and take == BLOCK_SIZE
            page = self._page_for_write(slot, logical, full_overwrite=full)
            page.data[within : within + take] = remaining[:take]
            page.dirty = True
            self.hooks.fire("page.write", ino=state.ino, logical=logical)
            remaining = remaining[take:]
            cursor += take

        if end > slot.inode.size:
            slot.inode.size = end
        slot.inode.mtime = opseq
        slot.inode.ctime = opseq
        self._dirty(slot)
        state.offset = end
        return len(data)

    def lseek(self, fd: int, offset: int, whence: int = 0, opseq: int = 0) -> int:
        self._require_mounted()
        self.stats.count("lseek")
        state = self.fd_table.get(fd)
        slot = self._iget(state.ino)
        if whence == 0:
            new = offset
        elif whence == 1:
            new = state.offset + offset
        elif whence == 2:
            new = slot.inode.size + offset
        else:
            raise FsError(Errno.EINVAL, f"whence {whence}")
        if new < 0:
            raise FsError(Errno.EINVAL, f"offset {new}")
        state.offset = new
        return new

    def fsync(self, fd: int, opseq: int = 0) -> None:
        self._require_mounted()
        self.stats.count("fsync")
        self.fd_table.get(fd)  # EBADF check
        self.commit()

    def fstat_ino(self, fd: int) -> int:
        self._require_mounted()
        return self.fd_table.get(fd).ino
