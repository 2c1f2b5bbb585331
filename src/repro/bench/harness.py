"""Construction and measurement helpers for the benchmark suite."""

from __future__ import annotations

import time
from typing import Sequence

from repro.api import FilesystemAPI, FsOp
from repro.basefs.filesystem import BaseFilesystem
from repro.basefs.hooks import HookPoints
from repro.basefs.writeback import WritebackPolicy
from repro.blockdev.device import MemoryBlockDevice
from repro.core.supervisor import RAEConfig, RAEFilesystem
from repro.ondisk.mkfs import mkfs
from repro.shadowfs.checks import CheckLevel
from repro.shadowfs.filesystem import ShadowFilesystem

_TEMPLATES: dict[tuple, bytes] = {}


def make_device(block_count: int = 8192, journal_blocks: int | None = None) -> MemoryBlockDevice:
    """A formatted in-memory device (template-cached mkfs).

    ``journal_blocks`` overrides the default journal size — benchmarks
    that deliberately hold huge uncommitted windows need a journal large
    enough for the eventual recovery hand-off commit.
    """
    from repro.ondisk.layout import DEFAULT_JOURNAL_BLOCKS

    journal = journal_blocks if journal_blocks is not None else DEFAULT_JOURNAL_BLOCKS
    device = MemoryBlockDevice(block_count=block_count)
    key = (block_count, journal)
    template = _TEMPLATES.get(key)
    if template is None:
        mkfs(device, journal_blocks=journal)
        template = device.snapshot()
        _TEMPLATES[key] = template
    else:
        device.restore(template)
    return device


def make_base(block_count: int = 8192, hooks: HookPoints | None = None, **kwargs) -> BaseFilesystem:
    return BaseFilesystem(make_device(block_count), hooks=hooks, **kwargs)


def make_shadow(block_count: int = 8192, check_level: CheckLevel = CheckLevel.FULL) -> ShadowFilesystem:
    return ShadowFilesystem(make_device(block_count), check_level=check_level)


def make_rae(
    block_count: int = 8192,
    hooks: HookPoints | None = None,
    config: RAEConfig | None = None,
    writeback_policy: WritebackPolicy | None = None,
    obs=None,
) -> RAEFilesystem:
    return RAEFilesystem(
        make_device(block_count),
        config=config,
        hooks=hooks,
        writeback_policy=writeback_policy,
        obs=obs,
    )


def run_ops(fs: FilesystemAPI, operations: Sequence[FsOp], start_seq: int = 1) -> int:
    """Apply a stream; returns how many succeeded (errno counts too)."""
    done = 0
    for index, operation in enumerate(operations):
        operation.apply(fs, opseq=start_seq + index)
        done += 1
    return done


def time_ops(fs: FilesystemAPI, operations: Sequence[FsOp], start_seq: int = 1) -> tuple[float, float]:
    """Apply a stream; returns (elapsed_seconds, ops_per_second)."""
    start = time.perf_counter()
    run_ops(fs, operations, start_seq=start_seq)
    elapsed = time.perf_counter() - start
    return elapsed, len(operations) / elapsed if elapsed else float("inf")
