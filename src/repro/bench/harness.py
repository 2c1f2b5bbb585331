"""Construction and measurement helpers for the benchmark suite."""

from __future__ import annotations

import time
from typing import Sequence

from repro.api import FilesystemAPI, FsOp
from repro.basefs.filesystem import BaseFilesystem
from repro.basefs.hooks import HookPoints
from repro.basefs.writeback import WritebackPolicy
from repro.core.supervisor import RAEConfig, RAEFilesystem
from repro.ondisk.mkfs import formatted_device as make_device  # the benchmarks' name for it
from repro.shadowfs.checks import CheckLevel
from repro.shadowfs.filesystem import ShadowFilesystem


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
