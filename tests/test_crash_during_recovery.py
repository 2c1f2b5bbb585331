"""Power failure during or right after RAE recovery.

Recovery itself must be crash-safe: the shadow writes nothing, contained
reboot's journal replay is idempotent, and the hand-off is volatile
until the post-recovery commit — so a power cut anywhere in that span
leaves the on-disk image exactly at the last durability point, fsck-
clean and remountable.
"""

import pytest

from repro.api import OpenFlags, op
from repro.basefs.filesystem import BaseFilesystem
from repro.basefs.hooks import HookPoints
from repro.core.supervisor import RAEConfig, RAEFilesystem
from repro.errors import FsError, KernelBug
from repro.fsck import Fsck
from repro.ondisk.inode import FileType
from tests.conftest import formatted_device


def build(seq):
    device = formatted_device(track_durability=True)
    device.flush()
    hooks = HookPoints()

    def bug(point, ctx):
        if ctx.get("name") == "trigger":
            raise KernelBug("crash during recovery test")

    hooks.register("dir.insert", bug)
    fs = RAEFilesystem(device, RAEConfig(), hooks=hooks)
    fd = fs.open("/durable", OpenFlags.CREAT)
    fs.write(fd, b"committed content")
    fs.fsync(fd)  # durability point
    fs.close(fd)
    fs.mkdir("/volatile")  # in the window
    return device, fs


def assert_rolled_back_to_durability_point(device):
    report = Fsck(device).run()
    assert report.clean, [str(f) for f in report.errors[:3]]
    fs = BaseFilesystem(device)
    assert fs.stat("/durable").ftype == FileType.REGULAR
    fd = fs.open("/durable", opseq=100)
    assert fs.read(fd, 100, opseq=101) == b"committed content"
    fs.close(fd, opseq=102)
    with pytest.raises(FsError):
        fs.stat("/volatile")  # the window is legitimately gone
    fs.unmount()


def test_durable_image_at_detection_instant_is_consistent(seq):
    """Freeze the *durable* image at the exact moment the bug fires —
    what a power cut at detection would leave on the platter — and
    verify it is the last durability point, fsck-clean."""
    from repro.blockdev.device import MemoryBlockDevice

    device = formatted_device(track_durability=True)
    device.flush()
    hooks = HookPoints()
    frozen: dict = {}

    def capture(point, ctx):
        if ctx.get("name") == "trigger" and not frozen:
            volatile = device.snapshot()
            device.crash()  # roll the live image back to the durable view
            frozen["image"] = device.snapshot()
            device.restore(volatile)  # let the run continue undisturbed

    def bug(point, ctx):
        if ctx.get("name") == "trigger":
            raise KernelBug("crash during recovery test")

    hooks.register("dir.insert", capture)  # must run before the bug
    hooks.register("dir.insert", bug)
    fs = RAEFilesystem(device, RAEConfig(), hooks=hooks)
    fd = fs.open("/durable", OpenFlags.CREAT)
    fs.write(fd, b"committed content")
    fs.fsync(fd)
    fs.close(fd)
    fs.mkdir("/volatile")

    fs.mkdir("/trigger")  # capture fires first, then the bug + recovery
    assert frozen
    platter = MemoryBlockDevice(block_count=device.block_count)
    platter.restore(frozen["image"])
    assert_rolled_back_to_durability_point(platter)


def test_power_cut_after_successful_recovery_before_its_commit(seq):
    device, fs = build(seq)
    # Disable the post-recovery commit so the recovered state stays
    # volatile, then cut power: everything since the fsync must vanish.
    fs.config.commit_after_recovery = False
    fs.mkdir("/trigger")
    assert fs.recovery_count == 1
    assert fs.stat("/trigger").ftype == FileType.DIRECTORY  # app-visible
    device.crash()
    assert_rolled_back_to_durability_point(device)


def test_power_cut_after_recovery_commit_keeps_everything(seq):
    device, fs = build(seq)
    fs.mkdir("/trigger")  # recovery + commit (default config)
    device.crash()
    report = Fsck(device).run()
    assert report.clean
    fs2 = BaseFilesystem(device)
    assert fs2.stat("/volatile").ftype == FileType.DIRECTORY
    assert fs2.stat("/trigger").ftype == FileType.DIRECTORY
    fs2.unmount()


def test_failed_recovery_leaves_no_shadow_trace_on_disk(seq):
    """The never-write property, end to end: a recovery aborted at the
    cross-check stage leaves every block untouched except the superblock
    (mount bookkeeping) and the journal region (replay/reset) — both
    written by the *contained reboot*, never by the shadow."""
    from repro.ondisk.layout import DiskLayout

    device, fs = build(seq)
    # Poison the mkdir record (the last entry) so strict cross-check
    # fails mid-replay; the fsync/close records before it are immune.
    mkdir_record = next(r for r in fs.oplog.entries if r.op.name == "mkdir")
    mkdir_record.outcome.value = -1
    image_before = device.snapshot()
    with pytest.raises(Exception):  # noqa: B017 — RecoveryFailure et al.
        fs.mkdir("/trigger")

    layout = DiskLayout(block_count=device.block_count)
    image_after = device.snapshot()
    reboot_owned = {0} | set(range(layout.journal_start, layout.journal_start + layout.journal_blocks))
    before, after = image_before.blocks, image_after.blocks
    mutated = {block for block in before.keys() | after.keys() if before.get(block) != after.get(block)}
    assert not mutated - reboot_owned, f"blocks {sorted(mutated - reboot_owned)} mutated by a failed recovery"
