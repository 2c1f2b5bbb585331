"""Integration: device-level (hardware) faults under RAE.

The fault model's second half (§3.1): transient hardware faults.  A
transient read error escaping the base is a detected runtime error;
recovery re-executes through the shadow, whose retried synchronous
reads ride out the transient — the application sees nothing.
"""

import pytest

from repro.api import OpenFlags
from repro.blockdev.device import MemoryBlockDevice
from repro.blockdev.faults import DeviceFaultPlan, FaultyBlockDevice
from repro.core.supervisor import RAEConfig, RAEFilesystem
from repro.errors import FsError, RecoveryFailure
from repro.fsck import Fsck
from repro.ondisk.layout import DiskLayout
from repro.ondisk.mkfs import mkfs


def build(plan: DeviceFaultPlan):
    inner = MemoryBlockDevice(block_count=4096)
    mkfs(inner)
    return FaultyBlockDevice(inner, plan), DiskLayout(block_count=4096)


def test_transient_read_error_masked_by_recovery():
    plan = DeviceFaultPlan()
    faulty, layout = build(plan)
    fs = RAEFilesystem(faulty, RAEConfig())
    fd = fs.open("/data", OpenFlags.CREAT)
    fs.write(fd, b"payload " * 1024)
    fs.fsync(fd)
    fs.close(fd)
    # Arrange: the file's first data block fails its next 2 reads (the
    # base has no retry; the shadow retries up to 3 times).
    fs.base.page_cache.drop_all()
    ino = fs.stat("/data").ino
    slot = fs.base._iget(ino)
    physical = fs.base._map_reader().resolve(slot.inode, 0)
    plan.add_read_error(block=physical, times=2)

    fd = fs.open("/data")
    data = fs.read(fd, 8)  # base read fails -> RAE -> shadow retries
    assert data == b"payload "
    assert fs.recovery_count == 1
    assert "device" in fs.stats.events[0].detected
    fs.close(fd)
    fs.unmount()


def test_persistent_read_error_fails_recovery_honestly():
    """A hard (non-transient within the retry budget) fault on a needed
    block defeats the shadow too: recovery fails loudly rather than
    fabricating data."""
    plan = DeviceFaultPlan()
    faulty, layout = build(plan)
    fs = RAEFilesystem(faulty, RAEConfig())
    fd = fs.open("/data", OpenFlags.CREAT)
    fs.write(fd, b"x" * 5000)
    fs.fsync(fd)
    fs.close(fd)
    fs.base.page_cache.drop_all()
    ino = fs.stat("/data").ino
    slot = fs.base._iget(ino)
    physical = fs.base._map_reader().resolve(slot.inode, 0)
    plan.add_read_error(block=physical, times=1000)

    fd = fs.open("/data")
    with pytest.raises(RecoveryFailure):
        fs.read(fd, 8)
    assert fs.stats.recovery.failures == 1
    assert fs.forensics.last["outcome"] == "failure"
    assert fs.forensics.last["failure"]["phase"] == "replay"


def test_sticky_corruption_repaired_by_journal_replay():
    """A sticky bit-flip lands in an inode-table block whose clean copy
    is still in the journal: the base's cold read fails the checksum,
    recovery's contained reboot replays the journal — and the replay
    *rewrites the damaged block from the journaled copy*.  An emergent
    repair the design gets for free."""
    plan = DeviceFaultPlan()
    faulty, layout = build(plan)
    fs = RAEFilesystem(faulty, RAEConfig())
    fs.mkdir("/d")
    fd = fs.open("/d/f", OpenFlags.CREAT)
    fs.fsync(fd)
    fs.close(fd)
    ino = fs.stat("/d/f").ino
    block, offset = layout.inode_location(ino)
    plan.add_flip(block=block, offset=offset + 4, xor_byte=0xFF, after=faulty.access_count(block), sticky=True)
    fs.base.inode_cache.drop_all()
    fs.base.cache.drop_all()
    st = fs.stat("/d/f")  # checksum error -> recovery -> journal repairs
    assert st.ino == ino and st.uid == 0
    assert fs.recovery_count == 1
    fs.unmount()
    assert Fsck(faulty).run().clean


def test_silent_corruption_beyond_the_journal_fails_honestly():
    """The same sticky flip, but after the journal has been reset: no
    clean copy survives anywhere, the shadow cannot vouch for the image,
    and recovery fails loudly instead of propagating corruption."""
    plan = DeviceFaultPlan()
    faulty, layout = build(plan)
    fs = RAEFilesystem(faulty, RAEConfig())
    fs.mkdir("/d")
    fd = fs.open("/d/f", OpenFlags.CREAT)
    fs.fsync(fd)
    fs.close(fd)
    fs.base.journal.writer.reset()  # checkpoint: the journaled copy is gone
    ino = fs.stat("/d/f").ino
    block, offset = layout.inode_location(ino)
    plan.add_flip(block=block, offset=offset + 4, xor_byte=0xFF, after=faulty.access_count(block), sticky=True)
    fs.base.inode_cache.drop_all()
    fs.base.cache.drop_all()
    with pytest.raises(RecoveryFailure):
        fs.stat("/d/f")


def test_wire_corruption_is_transient_enough_to_recover():
    """A non-sticky flip corrupts one read on the wire; the stored data
    is intact, so the shadow's re-read during recovery sees good bytes."""
    plan = DeviceFaultPlan()
    faulty, layout = build(plan)
    fs = RAEFilesystem(faulty, RAEConfig())
    fs.mkdir("/d")
    fd = fs.open("/d/f", OpenFlags.CREAT)
    fs.fsync(fd)
    fs.close(fd)
    ino = fs.stat("/d/f").ino
    block, offset = layout.inode_location(ino)
    # Exactly one corrupted read of the itable block (the base's cold
    # read); subsequent reads (the shadow's) are clean.
    plan.add_flip(
        block=block, offset=offset + 4, xor_byte=0xFF, after=faulty.access_count(block), times=1, sticky=False
    )
    fs.base.inode_cache.drop_all()
    fs.base.cache.drop_all()
    count_before = faulty.faults_fired
    st = fs.stat("/d/f")  # base trips the checksum -> recovery -> clean re-read
    assert st.ino == ino
    assert fs.recovery_count == 1
    assert faulty.faults_fired > count_before
    fs.unmount()
    assert Fsck(faulty).run().clean
