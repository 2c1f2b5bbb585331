"""Synchronous block devices.

Every filesystem in the reproduction — base and shadow alike — ultimately
reads and writes fixed-size blocks through the :class:`BlockDevice`
interface.  The base stacks a buffer cache and an asynchronous blk-mq layer
on top; the shadow calls ``read_block`` directly, synchronously, which is
exactly the simplification the paper prescribes (§3.3).

Two concrete devices are provided.  :class:`MemoryBlockDevice` (tests, most
benchmarks) keeps a shared immutable sparse base image (a
:class:`DeviceImage`, what ``snapshot`` returns and ``restore`` adopts)
plus the blocks written since.
:class:`FileBlockDevice` backs the image with a file on the host
filesystem, which lets the shadow run in a genuinely separate OS process
(``repro.core.procrunner``) while reading the same image the base mounted.

Wrappers:

* :class:`WriteFencedDevice` enforces the shadow's never-write rule by
  raising :class:`~repro.errors.ShadowWriteAttempt` on any mutation.
* :class:`CountingDevice` tallies reads/writes/flushes for benchmarks and
  for tests that assert IO behaviour (e.g. "the shadow read only the blocks
  it needed").
"""

from __future__ import annotations

import hashlib
import os
from abc import ABC, abstractmethod
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from repro.errors import DeviceError, ShadowWriteAttempt


@dataclass
class DeviceIOStats:
    """Lifetime IO tallies kept by every concrete device.

    Plain integers bumped inline — no ``repro.obs`` import, so devices
    stay usable inside the shadow's replay closure; the supervisor's
    registry *pulls* these at snapshot time.  (:class:`CountingDevice`
    remains the heavier wrapper that also records block numbers.)
    """

    reads: int = 0
    writes: int = 0
    flushes: int = 0


class BlockDevice(ABC):
    """Abstract fixed-block-size storage device.

    Blocks are addressed ``0 .. block_count - 1``.  ``read_block`` returns
    exactly ``block_size`` bytes; ``write_block`` requires exactly
    ``block_size`` bytes.  ``flush`` is a barrier: after it returns, all
    previously written blocks are considered durable (crash simulation in
    :class:`MemoryBlockDevice` keys off this).
    """

    def __init__(self, block_size: int, block_count: int):
        if block_size <= 0 or block_size % 512 != 0:
            raise ValueError(f"block_size must be a positive multiple of 512, got {block_size}")
        if block_count <= 0:
            raise ValueError(f"block_count must be positive, got {block_count}")
        self.block_size = block_size
        self.block_count = block_count
        self.io_stats = DeviceIOStats()

    @property
    def size_bytes(self) -> int:
        """Total device capacity in bytes."""
        return self.block_size * self.block_count

    def check_block(self, block: int) -> None:
        """Raise :class:`DeviceError` if ``block`` is out of range."""
        if not 0 <= block < self.block_count:
            raise DeviceError(f"block {block} out of range [0, {self.block_count})", block=block)

    @abstractmethod
    def read_block(self, block: int) -> bytes:
        """Return the ``block_size`` bytes stored at ``block``."""

    @abstractmethod
    def write_block(self, block: int, data: bytes) -> None:
        """Store ``data`` (exactly ``block_size`` bytes) at ``block``."""

    @abstractmethod
    def flush(self) -> None:
        """Barrier: make all prior writes durable."""

    def close(self) -> None:
        """Release any resources.  Safe to call more than once."""

    def _check_write(self, block: int, data: bytes) -> None:
        self.check_block(block)
        if len(data) != self.block_size:
            raise DeviceError(
                f"write of {len(data)} bytes to block {block}; block size is {self.block_size}",
                block=block,
            )


class DeviceImage:
    """An immutable sparse image of a :class:`MemoryBlockDevice`.

    Geometry plus a read-only map of the blocks that are not all zeros; a
    zero block is never stored, so equal contents give equal images and
    ``==`` compares the maps without rendering anything.  ``len()`` is the
    capacity in bytes and ``bytes(image)`` renders the flat image (for
    digests and export); flat bytes come back in through
    :meth:`from_bytes`.
    """

    __slots__ = ("block_size", "block_count", "_blocks", "blocks")

    def __init__(self, block_size: int, block_count: int, blocks: Mapping[int, bytes] | None = None):
        zero = bytes(block_size)
        self.block_size = block_size
        self.block_count = block_count
        # bytes() of a bytes is the object itself; of a bytearray, a private copy.
        self._blocks = {block: bytes(data) for block, data in (blocks or {}).items() if data != zero}
        self.blocks = MappingProxyType(self._blocks)

    @classmethod
    def from_bytes(cls, flat: bytes | bytearray, block_size: int = 4096) -> DeviceImage:
        """The image of a flat byte string of whole ``block_size`` blocks."""
        count, rest = divmod(len(flat), block_size)
        if not count or rest:
            raise ValueError(f"a flat image of {len(flat)} bytes is not whole {block_size}-byte blocks")
        view = memoryview(flat)
        return cls(block_size, count, {i: view[i * block_size : (i + 1) * block_size] for i in range(count)})

    def __len__(self) -> int:
        return self.block_size * self.block_count

    def __bytes__(self) -> bytes:
        zero = bytes(self.block_size)
        return b"".join(self._blocks.get(block, zero) for block in range(self.block_count))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeviceImage):
            return NotImplemented
        geometry = (self.block_size, self.block_count) == (other.block_size, other.block_count)
        return geometry and self._blocks == other._blocks

    def digest(self) -> str:
        """SHA-256 of the geometry and the stored blocks in block order:
        a content digest that renders nothing."""
        digest = hashlib.sha256(f"{self.block_size}x{self.block_count}".encode())
        for block in sorted(self._blocks):
            digest.update(block.to_bytes(8, "little"))
            digest.update(self._blocks[block])
        return digest.hexdigest()

    def __repr__(self) -> str:
        return f"DeviceImage({self.block_count} x {self.block_size} B, {len(self._blocks)} non-zero)"


class MemoryBlockDevice(BlockDevice):
    """A sparse copy-on-write in-memory device with optional crash simulation.

    Every view is a block map.  The image is ``_image`` (the
    :class:`DeviceImage` handed to :meth:`restore` or made by the last
    :meth:`snapshot`, shared not copied, never mutated) overlaid by
    ``_overlay``, the blocks written since; a block written as zeros is
    held as the one shared ``_zero_block``.  With ``track_durability`` a
    second overlay, ``_durable``, holds what would survive a power
    failure: ``flush`` publishes the blocks written since the last one
    into it and ``crash()`` falls back to it.  The journal-atomicity
    property tests (DESIGN §5.5) are built on this.
    """

    def __init__(self, block_size: int = 4096, block_count: int = 4096, track_durability: bool = False):
        super().__init__(block_size, block_count)
        self._zero_block = bytes(block_size)
        self._image = DeviceImage(block_size, block_count)
        self._overlay: dict[int, bytes] = {}
        self._track_durability = track_durability
        self._durable: dict[int, bytes] = {}
        self._dirty_since_flush: set[int] = set()
        self._closed = False

    def read_block(self, block: int) -> bytes:
        if self._closed:
            raise DeviceError("device is closed", block=block)
        self.check_block(block)
        self.io_stats.reads += 1
        data = self._overlay.get(block)
        if data is None:
            data = self._image._blocks.get(block, self._zero_block)
        return data

    def write_block(self, block: int, data: bytes) -> None:
        if self._closed:
            raise DeviceError("device is closed", block=block)
        self._check_write(block, data)
        self.io_stats.writes += 1
        # bytes() of a bytes is the object itself; of a bytearray, a private copy.
        self._overlay[block] = self._zero_block if data == self._zero_block else bytes(data)
        if self._track_durability:
            self._dirty_since_flush.add(block)

    def flush(self) -> None:
        if self._closed:
            raise DeviceError("device is closed")
        self.io_stats.flushes += 1
        if self._track_durability:
            for block in self._dirty_since_flush:
                self._durable[block] = self._overlay[block]
            self._dirty_since_flush.clear()

    def crash(self) -> None:
        """Simulate a power failure: discard un-flushed writes.

        Only meaningful with ``track_durability``; without it the call is
        rejected because there is no durable view to fall back to.
        """
        if self._closed:
            raise DeviceError("device is closed")
        if not self._track_durability:
            raise DeviceError("crash() requires track_durability=True")
        self._overlay = dict(self._durable)
        self._dirty_since_flush.clear()

    def snapshot(self) -> DeviceImage:
        """Return the current (volatile) image: the base itself when nothing
        was written since :meth:`restore`, else a new image that shares
        every block with the base and the overlay (and becomes the new
        base, unless un-flushed writes keep the durable view apart).

        Allowed after :meth:`close`: imaging a device that is no longer in
        service is legitimate and read-only.
        """
        image = self._image
        if self._overlay:
            image = DeviceImage(self.block_size, self.block_count, {**image._blocks, **self._overlay})
        if not self._dirty_since_flush:
            self._image = image
            self._overlay.clear()
            self._durable.clear()
        return image

    def restore(self, image: DeviceImage) -> None:
        """Replace the image contents (both volatile and durable views);
        O(1), the immutable ``image`` is shared rather than copied."""
        if self._closed:
            raise DeviceError("device is closed")
        if not isinstance(image, DeviceImage):
            raise TypeError(f"restore() takes a DeviceImage, not {type(image).__name__} (see DeviceImage.from_bytes)")
        if (image.block_size, image.block_count) != (self.block_size, self.block_count):
            raise DeviceError(
                f"image is {image.block_count} x {image.block_size} B; "
                f"device holds {self.block_count} x {self.block_size} B"
            )
        self._image = image
        self._overlay.clear()
        self._durable.clear()
        self._dirty_since_flush.clear()

    def close(self) -> None:
        self._closed = True


class FileBlockDevice(BlockDevice):
    """A device backed by a regular file on the host filesystem.

    The file is created (zero-filled) if it does not exist or is too short.
    ``flush`` maps to ``os.fsync``.  Because the image lives in a real file,
    a shadow process started by :mod:`repro.core.procrunner` can open its
    own read-only :class:`FileBlockDevice` on the same path.
    """

    def __init__(self, path: str | os.PathLike, block_size: int = 4096, block_count: int = 4096, readonly: bool = False):
        super().__init__(block_size, block_count)
        self.path = os.fspath(path)
        self.readonly = readonly
        mode = "rb" if readonly else ("r+b" if os.path.exists(self.path) else "w+b")
        self._file = open(self.path, mode)
        if not readonly:
            self._file.seek(0, os.SEEK_END)
            current = self._file.tell()
            if current < self.size_bytes:
                self._file.truncate(self.size_bytes)
        self._closed = False

    def read_block(self, block: int) -> bytes:
        if self._closed:
            raise DeviceError("device is closed", block=block)
        self.check_block(block)
        self.io_stats.reads += 1
        self._file.seek(block * self.block_size)
        data = self._file.read(self.block_size)
        if len(data) < self.block_size:
            data = data + b"\x00" * (self.block_size - len(data))
        return data

    def write_block(self, block: int, data: bytes) -> None:
        if self._closed:
            raise DeviceError("device is closed", block=block)
        if self.readonly:
            raise DeviceError(f"write to read-only device {self.path}", block=block)
        self._check_write(block, data)
        self.io_stats.writes += 1
        self._file.seek(block * self.block_size)
        self._file.write(data)

    def flush(self) -> None:
        if self._closed:
            raise DeviceError("device is closed")
        self.io_stats.flushes += 1
        if not self.readonly:
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        if not self._closed:
            self._file.close()
            self._closed = True


class WriteFencedDevice(BlockDevice):
    """A read-only view of another device that *raises* on writes.

    This is how the reproduction enforces the paper's rule that the shadow
    never writes to disk: the recovery coordinator always hands the shadow a
    write-fenced device, and :class:`~repro.errors.ShadowWriteAttempt` is a
    non-recoverable programming error, not a maskable fault.
    """

    def __init__(self, inner: BlockDevice):
        super().__init__(inner.block_size, inner.block_count)
        self._inner = inner

    def read_block(self, block: int) -> bytes:
        return self._inner.read_block(block)

    def write_block(self, block: int, data: bytes) -> None:
        raise ShadowWriteAttempt(f"shadow attempted to write block {block}")

    def flush(self) -> None:
        raise ShadowWriteAttempt("shadow attempted to flush the device")

    def close(self) -> None:
        """Closing the fence does not close the underlying device."""


class CountingDevice(BlockDevice):
    """Pass-through wrapper that counts IO operations.

    Benchmarks use the counters to report IO amplification; tests use them
    to assert properties such as "the dentry cache eliminated repeat
    directory reads" or "the shadow issued no writes".
    """

    def __init__(self, inner: BlockDevice):
        super().__init__(inner.block_size, inner.block_count)
        self._inner = inner
        self.reads = 0
        self.writes = 0
        self.flushes = 0
        self.blocks_read: list[int] = []
        self.blocks_written: list[int] = []

    def read_block(self, block: int) -> bytes:
        self.reads += 1
        self.blocks_read.append(block)
        return self._inner.read_block(block)

    def write_block(self, block: int, data: bytes) -> None:
        self.writes += 1
        self.blocks_written.append(block)
        self._inner.write_block(block, data)

    def flush(self) -> None:
        self.flushes += 1
        self._inner.flush()

    def reset_counts(self) -> None:
        """Zero all counters (the wrapped device is untouched)."""
        self.reads = 0
        self.writes = 0
        self.flushes = 0
        self.blocks_read.clear()
        self.blocks_written.clear()

    def close(self) -> None:
        self._inner.close()
