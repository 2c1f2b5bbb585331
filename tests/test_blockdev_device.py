"""Tests for repro.blockdev.device."""

import random
import tracemalloc

import pytest

from repro.blockdev.device import (
    BlockDevice,
    CountingDevice,
    DeviceImage,
    FileBlockDevice,
    MemoryBlockDevice,
    WriteFencedDevice,
)
from repro.errors import DeviceError, ShadowWriteAttempt

BS = 4096


def test_memory_device_roundtrip():
    dev = MemoryBlockDevice(block_count=8)
    data = bytes(range(256)) * 16
    dev.write_block(3, data)
    assert dev.read_block(3) == data
    assert dev.read_block(4) == b"\x00" * BS


def test_memory_device_rejects_bad_geometry():
    with pytest.raises(ValueError):
        MemoryBlockDevice(block_size=1000)
    with pytest.raises(ValueError):
        MemoryBlockDevice(block_count=0)


def test_memory_device_bounds():
    dev = MemoryBlockDevice(block_count=4)
    with pytest.raises(DeviceError):
        dev.read_block(4)
    with pytest.raises(DeviceError):
        dev.write_block(-1, b"\x00" * BS)


def test_memory_device_rejects_short_write():
    dev = MemoryBlockDevice(block_count=4)
    with pytest.raises(DeviceError):
        dev.write_block(0, b"short")


def test_memory_device_close_fences_io():
    dev = MemoryBlockDevice(block_count=4)
    dev.close()
    with pytest.raises(DeviceError):
        dev.read_block(0)
    with pytest.raises(DeviceError):
        dev.write_block(0, b"\x00" * BS)


@pytest.mark.parametrize("mutate", [lambda dev: dev.crash(), lambda dev: dev.restore(DeviceImage(BS, 4))])
def test_memory_device_close_fences_crash_and_restore(mutate):
    dev = MemoryBlockDevice(block_count=4, track_durability=True)
    dev.write_block(1, b"a" * BS)
    dev.close()
    with pytest.raises(DeviceError, match="closed"):
        mutate(dev)
    assert dev.snapshot().blocks[1] == b"a" * BS


def test_memory_device_snapshot_allowed_after_close():
    dev = MemoryBlockDevice(block_count=4)
    dev.write_block(2, b"s" * BS)
    before = dev.snapshot()
    dev.close()
    assert dev.snapshot() == before


def test_durability_crash_discards_unflushed():
    dev = MemoryBlockDevice(block_count=4, track_durability=True)
    dev.write_block(1, b"a" * BS)
    dev.flush()
    dev.write_block(1, b"b" * BS)
    dev.write_block(2, b"c" * BS)
    dev.crash()
    assert dev.read_block(1) == b"a" * BS
    assert dev.read_block(2) == b"\x00" * BS


def test_durability_crash_requires_tracking():
    dev = MemoryBlockDevice(block_count=4)
    with pytest.raises(DeviceError):
        dev.crash()


def test_snapshot_restore():
    dev = MemoryBlockDevice(block_count=4)
    dev.write_block(0, b"x" * BS)
    image = dev.snapshot()
    dev.write_block(0, b"y" * BS)
    dev.restore(image)
    assert dev.read_block(0) == b"x" * BS


def test_restore_rejects_wrong_size():
    dev = MemoryBlockDevice(block_count=4)
    with pytest.raises(DeviceError):
        dev.restore(DeviceImage(BS, 3))
    with pytest.raises(DeviceError):
        dev.restore(DeviceImage(BS // 2, 8))  # the right capacity in other blocks
    with pytest.raises(TypeError, match="from_bytes"):
        dev.restore(bytes(4 * BS))  # flat bytes convert through DeviceImage.from_bytes


# ----------------------------------------------------------------------
# reference model: the flat two-image device MemoryBlockDevice replaced;
# it speaks flat ``bytes``, the device speaks DeviceImage


class FlatMemoryBlockDevice(BlockDevice):
    """One ``bytearray`` per view, every image operation a whole copy."""

    def __init__(self, block_size: int = 4096, block_count: int = 4096, track_durability: bool = False):
        super().__init__(block_size, block_count)
        self._data = bytearray(self.size_bytes)
        self._durable = bytearray(self.size_bytes) if track_durability else None
        self._dirty_since_flush: set[int] = set()

    def read_block(self, block: int) -> bytes:
        self.check_block(block)
        self.io_stats.reads += 1
        off = block * self.block_size
        return bytes(self._data[off : off + self.block_size])

    def write_block(self, block: int, data: bytes) -> None:
        self._check_write(block, data)
        self.io_stats.writes += 1
        off = block * self.block_size
        self._data[off : off + self.block_size] = data
        if self._durable is not None:
            self._dirty_since_flush.add(block)

    def flush(self) -> None:
        self.io_stats.flushes += 1
        if self._durable is not None:
            for block in self._dirty_since_flush:
                off = block * self.block_size
                self._durable[off : off + self.block_size] = self._data[off : off + self.block_size]
            self._dirty_since_flush.clear()

    def crash(self) -> None:
        if self._durable is None:
            raise DeviceError("crash() requires track_durability=True")
        self._data = bytearray(self._durable)
        self._dirty_since_flush.clear()

    def snapshot(self) -> bytes:
        return bytes(self._data)

    def restore(self, image: bytes) -> None:
        if len(image) != self.size_bytes:
            raise DeviceError(f"image is {len(image)} bytes; device holds {self.size_bytes}")
        self._data = bytearray(image)
        if self._durable is not None:
            self._durable = bytearray(image)
            self._dirty_since_flush.clear()


MODEL_BS, MODEL_BLOCKS = 512, 64


def _run_schedule(rng: random.Random, track_durability: bool, steps: int) -> None:
    dev = MemoryBlockDevice(MODEL_BS, MODEL_BLOCKS, track_durability)
    ref = FlatMemoryBlockDevice(MODEL_BS, MODEL_BLOCKS, track_durability)
    images = [DeviceImage.from_bytes(rng.randbytes(MODEL_BS * MODEL_BLOCKS), MODEL_BS)]
    actions = ["write"] * 6 + ["read"] * 4 + ["flush", "flush", "snapshot", "restore"]
    if track_durability:
        actions += ["crash", "crash"]
    for _ in range(steps):
        action = rng.choice(actions)
        if action == "write":
            block = rng.randrange(MODEL_BLOCKS)
            # Runs of one byte so flushed-then-overwritten blocks are easy to tell apart,
            # one in eight of them zeros; half the writes arrive as a mutable buffer
            # the caller then scribbles on.
            data = bytes([rng.randrange(256) if rng.random() < 0.875 else 0]) * MODEL_BS
            if rng.random() < 0.5:
                buffer = bytearray(data)
                dev.write_block(block, buffer)
                buffer[:] = b"\xee" * MODEL_BS
            else:
                dev.write_block(block, data)
            ref.write_block(block, data)
        elif action == "read":
            block = rng.randrange(MODEL_BLOCKS)
            got = dev.read_block(block)
            assert type(got) is bytes and got == ref.read_block(block)
        elif action == "flush":
            dev.flush()
            ref.flush()
        elif action == "snapshot":
            image = dev.snapshot()
            assert bytes(image) == ref.snapshot()
            assert image == DeviceImage.from_bytes(ref.snapshot(), MODEL_BS)
            images.append(image)
        elif action == "restore":
            image = rng.choice(images)
            dev.restore(image)
            ref.restore(bytes(image))
            if track_durability and rng.random() < 0.5:
                # The durable view was reset to the image too.
                dev.crash()
                ref.crash()
                assert dev.snapshot() == image
        else:
            dev.crash()
            ref.crash()
            assert bytes(dev.snapshot()) == ref.snapshot()
    assert bytes(dev.snapshot()) == ref.snapshot()
    assert dev.io_stats == ref.io_stats


@pytest.mark.parametrize("track_durability", [False, True])
def test_sparse_device_matches_flat_reference_model(track_durability):
    for schedule in range(200):
        _run_schedule(random.Random(f"blockdev/{track_durability}/{schedule}"), track_durability, steps=200)


# ----------------------------------------------------------------------
# the seams the sparse representation adds: aliasing and sharing


def test_write_block_copies_a_mutable_buffer():
    dev = MemoryBlockDevice(block_count=4)
    buffer = bytearray(b"a" * BS)
    dev.write_block(1, buffer)
    buffer[:] = b"b" * BS
    assert dev.read_block(1) == b"a" * BS


def test_restore_copies_a_mutable_image():
    dev = MemoryBlockDevice(block_count=4, track_durability=True)
    flat = bytearray(b"a" * (4 * BS))
    dev.restore(DeviceImage.from_bytes(flat))
    flat[:] = b"b" * (4 * BS)
    assert bytes(dev.snapshot()) == b"a" * (4 * BS)
    dev.crash()
    assert dev.read_block(3) == b"a" * BS


def test_read_block_is_one_block_of_bytes_whatever_holds_it():
    dev = MemoryBlockDevice(block_count=4)
    never_written = dev.read_block(0)
    image = DeviceImage.from_bytes(b"i" * (4 * BS))
    dev.restore(image)
    from_base = dev.read_block(1)
    dev.write_block(2, bytearray(b"o" * BS))
    from_overlay = dev.read_block(2)
    for data in (never_written, from_base, from_overlay):
        assert type(data) is bytes and len(data) == BS
    assert (never_written, from_base, from_overlay) == (b"\x00" * BS, b"i" * BS, b"o" * BS)
    # The stored object itself, not a copy of it.
    assert from_base is image.blocks[1] and dev.read_block(2) is from_overlay


def test_snapshot_of_an_unwritten_restore_is_the_image_itself():
    image = DeviceImage.from_bytes(b"i" * (4 * BS))
    dev = MemoryBlockDevice(block_count=4, track_durability=True)
    dev.restore(image)
    assert dev.snapshot() is image
    dev.write_block(0, b"w" * BS)
    dev.flush()
    materialised = dev.snapshot()
    assert bytes(materialised) == b"w" * BS + b"i" * (3 * BS)
    assert materialised.blocks[1] is image.blocks[1]  # unwritten blocks are shared
    assert dev.snapshot() is materialised  # re-based: the second one is free


def test_snapshot_with_unflushed_writes_keeps_the_durable_view():
    dev = MemoryBlockDevice(block_count=4, track_durability=True)
    dev.write_block(0, b"d" * BS)
    dev.flush()
    dev.write_block(0, b"v" * BS)
    dev.write_block(1, b"v" * BS)
    assert bytes(dev.snapshot()) == b"v" * (2 * BS) + b"\x00" * (2 * BS)
    dev.crash()
    assert bytes(dev.snapshot()) == b"d" * BS + b"\x00" * (3 * BS)


def _allocated_by(action) -> int:
    """Peak bytes ``action()`` allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        floor = tracemalloc.get_traced_memory()[0]
        action()
        return tracemalloc.get_traced_memory()[1] - floor
    finally:
        tracemalloc.stop()


BIG_BLOCKS = 16384  # 64 MiB


def _big_device_with_written_blocks(written: int = 1000) -> MemoryBlockDevice:
    """A 64 MiB device with ``written`` distinct non-zero blocks spread over it."""
    dev = MemoryBlockDevice(block_count=BIG_BLOCKS, track_durability=True)
    for index in range(written):
        dev.write_block(index * (BIG_BLOCKS // written), (index + 1).to_bytes(4, "little") * (BS // 4))
    dev.flush()
    return dev


def test_restoring_one_image_into_many_devices_shares_it():
    """The ratchet against whole-image copies coming back."""
    image = _big_device_with_written_blocks().snapshot()
    devices = []

    def restore_eight():
        for index in range(8):
            dev = MemoryBlockDevice(block_count=BIG_BLOCKS, track_durability=index % 2 == 0)
            dev.restore(image)
            devices.append(dev)

    assert _allocated_by(restore_eight) < 1 << 20
    assert all(dev.snapshot() is image for dev in devices)


def test_snapshot_allocates_in_proportion_to_written_blocks():
    """The ratchet against the flat image coming back: imaging a 64 MiB
    device that holds about a thousand blocks costs a block map."""
    dev = _big_device_with_written_blocks()
    image = None

    def snapshot():
        nonlocal image
        image = dev.snapshot()

    assert _allocated_by(snapshot) < 1 << 20
    assert len(image) == BIG_BLOCKS * BS and len(image.blocks) == 1000


# ----------------------------------------------------------------------
# the image's own contract


def test_a_zero_write_equals_no_write():
    untouched = MemoryBlockDevice(block_count=4)
    zeroed = MemoryBlockDevice(block_count=4)
    zeroed.write_block(2, b"z" * BS)
    zeroed.write_block(2, bytearray(BS))
    zeroed.write_block(3, bytes(BS))
    assert zeroed.snapshot() == untouched.snapshot()
    assert not zeroed.snapshot().blocks
    # Zeros written over a base block drop it from the next image.
    zeroed.restore(DeviceImage.from_bytes(b"b" * (4 * BS)))
    for block in range(4):
        zeroed.write_block(block, bytes(BS))
    assert zeroed.snapshot() == untouched.snapshot() == DeviceImage.from_bytes(bytes(4 * BS))


def test_equal_contents_give_equal_images():
    direct = MemoryBlockDevice(block_count=4)
    direct.write_block(1, b"b" * BS)
    roundabout = MemoryBlockDevice(block_count=4, track_durability=True)
    roundabout.write_block(1, b"a" * BS)
    roundabout.flush()
    roundabout.write_block(1, bytearray(b"b" * BS))
    roundabout.write_block(2, b"c" * BS)
    roundabout.write_block(2, bytes(BS))
    first, second = direct.snapshot(), roundabout.snapshot()
    assert first is not second and first == second
    assert first.digest() == second.digest()
    assert DeviceImage.from_bytes(bytes(first)) == first
    assert first != DeviceImage(BS, 4) and first.digest() != DeviceImage(BS, 4).digest()
    assert DeviceImage(BS, 4) != DeviceImage(BS, 5)  # geometry is part of the image


def test_an_image_is_never_mutated():
    dev = MemoryBlockDevice(block_count=4, track_durability=True)
    dev.write_block(0, b"x" * BS)
    image = dev.snapshot()
    with pytest.raises(TypeError):
        image.blocks[1] = b"y" * BS
    with pytest.raises(TypeError):
        del image.blocks[0]
    # A device written after restore leaves the image it shares alone.
    dev.restore(image)
    dev.write_block(0, b"w" * BS)
    dev.write_block(1, b"w" * BS)
    dev.flush()
    dev.write_block(2, b"u" * BS)
    dev.snapshot()
    dev.crash()
    dev.snapshot()
    assert dict(image.blocks) == {0: b"x" * BS}
    assert bytes(image) == b"x" * BS + bytes(3 * BS)
    # Nor does a caller scribbling on the buffer it built an image from.
    buffer = bytearray(b"x" * BS)
    built = DeviceImage(BS, 4, {0: buffer})
    buffer[:] = b"y" * BS
    assert built == image


@pytest.mark.parametrize("flushed", [8, 512])
def test_crash_allocates_in_proportion_to_flushed_blocks(flushed):
    dev = MemoryBlockDevice(block_count=BIG_BLOCKS, track_durability=True)
    dev.restore(DeviceImage(BS, BIG_BLOCKS))
    for block in range(flushed):
        dev.write_block(block * 7, b"f" * BS)
    dev.flush()
    dev.write_block(1, b"u" * BS)
    assert _allocated_by(dev.crash) < 2048 + 256 * flushed
    assert dev.read_block(1) == b"\x00" * BS
    assert dev.read_block(7 * (flushed - 1)) == b"f" * BS


def test_file_device_roundtrip(tmp_path):
    path = tmp_path / "img"
    dev = FileBlockDevice(path, block_count=8)
    dev.write_block(5, b"z" * BS)
    dev.flush()
    dev.close()
    dev2 = FileBlockDevice(path, block_count=8, readonly=True)
    assert dev2.read_block(5) == b"z" * BS
    dev2.close()


def test_file_device_readonly_rejects_writes(tmp_path):
    path = tmp_path / "img"
    FileBlockDevice(path, block_count=4).close()
    dev = FileBlockDevice(path, block_count=4, readonly=True)
    with pytest.raises(DeviceError):
        dev.write_block(0, b"\x00" * BS)
    dev.flush()  # no-op on a read-only device
    dev.close()


def test_file_device_zero_fills_short_file(tmp_path):
    path = tmp_path / "img"
    path.write_bytes(b"abc")
    dev = FileBlockDevice(path, block_count=4, readonly=True)
    assert dev.read_block(0)[:3] == b"abc"
    assert dev.read_block(3) == b"\x00" * BS
    dev.close()


def test_write_fence_blocks_all_mutation():
    inner = MemoryBlockDevice(block_count=4)
    inner.write_block(1, b"q" * BS)
    fence = WriteFencedDevice(inner)
    assert fence.read_block(1) == b"q" * BS
    with pytest.raises(ShadowWriteAttempt):
        fence.write_block(1, b"r" * BS)
    with pytest.raises(ShadowWriteAttempt):
        fence.flush()
    assert inner.read_block(1) == b"q" * BS


def test_counting_device_counts():
    inner = MemoryBlockDevice(block_count=4)
    dev = CountingDevice(inner)
    dev.write_block(1, b"a" * BS)
    dev.read_block(1)
    dev.read_block(2)
    dev.flush()
    assert (dev.reads, dev.writes, dev.flushes) == (2, 1, 1)
    assert dev.blocks_read == [1, 2]
    assert dev.blocks_written == [1]
    dev.reset_counts()
    assert (dev.reads, dev.writes, dev.flushes) == (0, 0, 0)
