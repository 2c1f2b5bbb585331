"""Block device substrate.

This package models the storage stack below the filesystem:

* :mod:`repro.blockdev.device` — synchronous block devices (memory- and
  file-backed), plus wrappers used throughout the reproduction: a write
  fence that enforces the shadow's never-write rule, and an IO-counting
  wrapper used by benchmarks.
* :mod:`repro.blockdev.faults` — deterministic fault injection at the
  device boundary: transient read errors and silent corruption, the
  hardware-fault half of the paper's fault model.
* :mod:`repro.blockdev.blkmq` — a blk-mq-style asynchronous block layer
  with per-queue submission/completion rings and pluggable IO schedulers.
  Only the base filesystem uses it; the shadow does synchronous IO.
* :mod:`repro.blockdev.cache` — a write-back buffer cache with LRU
  eviction and dirty tracking, again base-only.
"""

from repro.blockdev.device import (
    BlockDevice,
    CountingDevice,
    DeviceImage,
    FileBlockDevice,
    MemoryBlockDevice,
    WriteFencedDevice,
)
from repro.blockdev.faults import DeviceFaultPlan, FaultyBlockDevice
from repro.blockdev.blkmq import BlockMQ, IoRequest, IoScheduler, NoopScheduler, DeadlineScheduler
from repro.blockdev.cache import BufferCache

__all__ = [
    "BlockDevice",
    "DeviceImage",
    "MemoryBlockDevice",
    "FileBlockDevice",
    "WriteFencedDevice",
    "CountingDevice",
    "DeviceFaultPlan",
    "FaultyBlockDevice",
    "BlockMQ",
    "IoRequest",
    "IoScheduler",
    "NoopScheduler",
    "DeadlineScheduler",
    "BufferCache",
]
