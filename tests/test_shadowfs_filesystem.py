"""Tests for the shadow filesystem: never-write discipline, overlay,
checks, allocation hints, and POSIX behaviour parity spot checks."""

import pytest

from repro.api import OpenFlags
from repro.basefs.vfs import FdState
from repro.blockdev.device import MemoryBlockDevice
from repro.blockdev.faults import DeviceFaultPlan, FaultyBlockDevice
from repro.errors import DeviceError, Errno, FsError, InvariantViolation
from repro.ondisk.image import read_inode, write_inode
from repro.ondisk.inode import N_DIRECT, FileType
from repro.ondisk.layout import BLOCK_SIZE, ROOT_INO
from repro.ondisk.mkfs import mkfs
from repro.shadowfs.checks import CheckLevel
from repro.shadowfs.filesystem import ShadowFilesystem


class TestNeverWrites:
    def test_device_untouched_by_mutations(self, device, seq):
        image_before = device.snapshot()
        shadow = ShadowFilesystem(device)
        shadow.mkdir("/a", opseq=seq())
        fd = shadow.open("/a/f", OpenFlags.CREAT, opseq=seq())
        shadow.write(fd, b"virtual" * 100, opseq=seq())
        shadow.close(fd, opseq=seq())
        shadow.unlink("/a/f", opseq=seq())
        assert device.snapshot() == image_before

    def test_overlay_accumulates_mutations(self, shadow, seq):
        shadow.mkdir("/a", opseq=seq())
        assert shadow.overlay.blocks  # sb, bitmaps, itable, dir blocks
        roles = set(shadow.overlay.roles.values())
        assert {"sb", "bitmap", "itable", "dir"} <= roles

    def test_reads_see_overlay(self, shadow, seq):
        shadow.mkdir("/a", opseq=seq())
        assert shadow.readdir("/") == ["a"]
        assert shadow.stat("/a").ftype == FileType.DIRECTORY

    def test_data_pages_tracked(self, shadow, seq):
        fd = shadow.open("/f", OpenFlags.CREAT, opseq=seq())
        shadow.write(fd, b"d" * (2 * BLOCK_SIZE), opseq=seq())
        shadow.close(fd, opseq=seq())
        ino = shadow.stat("/f").ino
        assert (ino, 0) in shadow.overlay.data_pages
        assert (ino, 1) in shadow.overlay.data_pages
        data = shadow.overlay.data_blocks()
        assert data[(ino, 0)] == b"d" * BLOCK_SIZE

    def test_fsync_unsupported(self, shadow, seq):
        fd = shadow.open("/f", OpenFlags.CREAT, opseq=seq())
        with pytest.raises(FsError) as e:
            shadow.fsync(fd, opseq=seq())
        assert e.value.errno == Errno.EINVAL


class TestInodePutOncePerOp:
    """An op writes each inode it changes once, however many blocks it
    maps: a put per mapped block would rebuild the inode-table block
    once per block."""

    @staticmethod
    def _puts(shadow, ino, action) -> int:
        puts = []
        put_slot = shadow._put_slot

        def counting(slot_ino, slot):
            puts.append(slot_ino)
            put_slot(slot_ino, slot)

        shadow._put_slot = counting
        try:
            action()
        finally:
            del shadow._put_slot
        return puts.count(ino)

    def test_direct_block_write(self, shadow, seq):
        fd = shadow.open("/f", OpenFlags.CREAT, opseq=seq())
        ino = shadow.stat("/f").ino
        assert self._puts(shadow, ino, lambda: shadow.write(fd, b"d" * (8 * BLOCK_SIZE), opseq=seq())) == 1
        assert shadow.stat("/f").size == 8 * BLOCK_SIZE

    def test_write_that_allocates_the_indirect_block(self, shadow, seq):
        fd = shadow.open("/f", OpenFlags.CREAT, opseq=seq())
        shadow.write(fd, b"d" * (N_DIRECT * BLOCK_SIZE), opseq=seq())
        ino = shadow.stat("/f").ino
        assert not shadow._iget(ino).inode.indirect
        assert self._puts(shadow, ino, lambda: shadow.write(fd, b"i" * (2 * BLOCK_SIZE), opseq=seq())) == 1
        assert shadow._iget(ino).inode.indirect
        shadow.lseek(fd, N_DIRECT * BLOCK_SIZE, 0, opseq=seq())
        assert shadow.read(fd, 2 * BLOCK_SIZE, opseq=seq()) == b"i" * (2 * BLOCK_SIZE)

    def test_directory_growth(self, shadow, seq):
        shadow.mkdir("/d", opseq=seq())
        ino = shadow.stat("/d").ino
        names = (f"{index:03d}" + "n" * 200 for index in range(1000))
        name = next(names)
        while shadow._dir_insert_cost(shadow._iget(ino), name) == 0:
            shadow.close(shadow.open(f"/d/{name}", OpenFlags.CREAT, opseq=seq()), opseq=seq())
            name = next(names)
        assert shadow.stat("/d").size == BLOCK_SIZE
        assert self._puts(shadow, ino, lambda: shadow.open(f"/d/{name}", OpenFlags.CREAT, opseq=seq())) == 1
        assert shadow.stat("/d").size == 2 * BLOCK_SIZE
        assert name in shadow.readdir("/d")


class TestChecks:
    def test_mount_validates_superblock_counts(self, device):
        # Corrupt the free count: FULL checks refuse the image.
        from repro.ondisk.superblock import Superblock

        sb = Superblock.unpack(device.read_block(0))
        sb.free_blocks += 5
        device.write_block(0, sb.pack())
        with pytest.raises(InvariantViolation):
            ShadowFilesystem(device, check_level=CheckLevel.FULL)
        # BASIC tolerates count skew (structure is still fine).
        ShadowFilesystem(device, check_level=CheckLevel.BASIC)

    def test_corrupt_inode_checksum_detected_on_iget(self, device, seq):
        shadow = ShadowFilesystem(device, check_level=CheckLevel.OFF)
        # Corrupt the root inode's raw bytes directly on the device.
        from repro.ondisk.layout import DiskLayout

        layout = DiskLayout(block_count=device.block_count)
        block, offset = layout.inode_location(ROOT_INO)
        raw = bytearray(device.read_block(block))
        raw[offset + 8] ^= 0x01
        device.write_block(block, bytes(raw))
        with pytest.raises(ValueError, match="checksum"):
            shadow.stat("/")

    def test_referenced_free_block_detected(self, device, seq):
        # Point the root directory at a block the bitmap says is free.
        from repro.ondisk.layout import DiskLayout

        layout = DiskLayout(block_count=device.block_count)
        root = read_inode(device, layout, ROOT_INO)
        root.direct[0] = layout.data_start(1) + 7  # free block in group 1
        write_inode(device, layout, ROOT_INO, root)
        shadow = ShadowFilesystem(device, check_level=CheckLevel.FULL)
        with pytest.raises(InvariantViolation, match="free in the block bitmap"):
            shadow.readdir("/")

    def test_check_level_off_skips(self, device):
        shadow = ShadowFilesystem(device, check_level=CheckLevel.OFF)
        shadow.readdir("/")
        assert shadow.checks.stats.checks_run == 0

    def test_full_checks_run_and_count(self, shadow, seq):
        shadow.mkdir("/a", opseq=seq())
        shadow.readdir("/a")
        assert shadow.checks.stats.checks_run > 10

    def test_input_validation(self, shadow, seq):
        with pytest.raises(InvariantViolation):
            shadow.mkdir(12345, opseq=seq())  # type: ignore[arg-type]


class TestConstrainedAllocation:
    def test_ino_hint_honoured(self, shadow, seq):
        shadow.ino_hint = 50
        shadow.mkdir("/pinned", opseq=seq())
        assert shadow.stat("/pinned").ino == 50

    def test_ino_hint_must_be_free(self, shadow, seq):
        shadow.ino_hint = ROOT_INO
        with pytest.raises(InvariantViolation, match="not free"):
            shadow.mkdir("/bad", opseq=seq())

    def test_hint_cleared_after_use(self, shadow, seq):
        shadow.ino_hint = 50
        shadow.mkdir("/a", opseq=seq())
        shadow.mkdir("/b", opseq=seq())
        assert shadow.stat("/b").ino != 50
        assert shadow.ino_hint is None

    def test_first_fit_allocation_order(self, shadow, seq):
        shadow.mkdir("/a", opseq=seq())
        shadow.mkdir("/b", opseq=seq())
        assert shadow.stat("/a").ino == 3
        assert shadow.stat("/b").ino == 4


class TestFdInstall:
    def test_install_and_use(self, device, shadow, seq):
        # Build a file first via the shadow itself.
        fd = shadow.open("/f", OpenFlags.CREAT, opseq=seq())
        shadow.write(fd, b"0123456789", opseq=seq())
        shadow.close(fd, opseq=seq())
        ino = shadow.stat("/f").ino
        shadow.install_fd(FdState(fd=7, ino=ino, flags=OpenFlags.NONE, offset=4))
        assert shadow.read(7, 3, opseq=seq()) == b"456"

    def test_install_rejects_directory(self, shadow):
        with pytest.raises(InvariantViolation):
            shadow.install_fd(FdState(fd=7, ino=ROOT_INO, flags=OpenFlags.NONE))

    def test_install_rejects_low_fd(self, shadow):
        with pytest.raises(InvariantViolation):
            shadow.install_fd(FdState(fd=1, ino=ROOT_INO, flags=OpenFlags.NONE))


class TestTransientFaultRetry:
    def test_reads_retry_transient_errors(self, seq):
        inner = MemoryBlockDevice(block_count=4096)
        mkfs(inner)
        # Root dir block fails twice then succeeds: the shadow retries.
        from repro.ondisk.layout import DiskLayout

        layout = DiskLayout(block_count=4096)
        faulty = FaultyBlockDevice(inner, DeviceFaultPlan().add_read_error(layout.data_start(0), times=2))
        shadow = ShadowFilesystem(faulty)
        assert shadow.readdir("/") == []

    def test_persistent_errors_propagate(self, seq):
        inner = MemoryBlockDevice(block_count=4096)
        mkfs(inner)
        from repro.ondisk.layout import DiskLayout

        layout = DiskLayout(block_count=4096)
        faulty = FaultyBlockDevice(inner, DeviceFaultPlan().add_read_error(layout.data_start(0), times=50))
        shadow = ShadowFilesystem(faulty)
        with pytest.raises(DeviceError):
            shadow.readdir("/")


class TestDirtyImageMount:
    def test_journal_absorbed_virtually(self, seq):
        from repro.basefs.filesystem import BaseFilesystem
        from tests.conftest import formatted_device

        device = formatted_device(track_durability=True)
        device.flush()
        fs = BaseFilesystem(device)
        fs.mkdir("/committed", opseq=seq())
        fs.commit()
        device.crash()  # dirty image with a committed journal txn
        image_before = device.snapshot()
        shadow = ShadowFilesystem(device)
        assert shadow.readdir("/") == ["committed"]
        assert device.snapshot() == image_before  # replay was virtual
