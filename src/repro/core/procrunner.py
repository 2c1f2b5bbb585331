"""Run the shadow in a separate OS process.

§3.2: "The shadow filesystem is launched as a separate userspace process
to ensure the strong isolation of faults and a clean interface between
the base and shadow."  In-process execution (the default in this
reproduction, for determinism and speed) shares a Python heap with the
base; this module provides the paper-faithful alternative: the shadow
runs in a child process that opens the image file read-only itself, and
only plain-data messages cross the pipe.

Requirements: the device must be a :class:`FileBlockDevice` (the child
needs a path), and the base must have **flushed the replayed journal
state** before the child starts (contained reboot guarantees this).
A crash of the child — any exception, or the process dying outright —
is reported as :class:`RecoveryFailure` without harming the parent,
which is precisely the isolation the paper wants.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

from repro.api import FsOp
from repro.basefs.vfs import FdState
from repro.blockdev.device import FileBlockDevice
from repro.core.oplog import OpRecord
from repro.errors import RECOVERY_BOUNDARY_ERRORS, RecoveryFailure
from repro.ondisk.layout import BLOCK_SIZE
from repro.ondisk.superblock import Superblock
from repro.shadowfs.checks import CheckLevel
from repro.shadowfs.filesystem import ShadowFilesystem
from repro.shadowfs.output import MetadataUpdate
from repro.shadowfs.replay import ReplayEngine, ReplayReport


def open_image_readonly(path: str) -> FileBlockDevice:
    """Open an image file read-only, sizing the device from its
    superblock."""
    with open(path, "rb") as f:
        sb = Superblock.unpack(f.read(BLOCK_SIZE), verify=False)
    return FileBlockDevice(path, block_size=BLOCK_SIZE, block_count=sb.block_count, readonly=True)


@dataclass
class _ShadowJob:
    image_path: str
    records: list[OpRecord]
    fd_snapshot: dict[int, FdState]
    inflight: tuple[int, FsOp] | None
    check_level: CheckLevel
    strict: bool


def _shadow_child(job: _ShadowJob, pipe) -> None:
    """Child entry point: mount, replay, ship the result back."""
    try:
        device = open_image_readonly(job.image_path)
        shadow = ShadowFilesystem(device, check_level=job.check_level)
        engine = ReplayEngine(shadow, strict=job.strict)
        update = engine.run(job.records, job.fd_snapshot, job.inflight)
        pipe.send(("ok", update, engine.report))
    except RECOVERY_BOUNDARY_ERRORS as exc:
        # Catalog and decode failures cross the pipe as data; anything
        # else (ShadowWriteAttempt, a reproduction bug) kills the child,
        # which the parent reports as RecoveryFailure via the EOF path.
        pipe.send(("error", f"{type(exc).__name__}: {exc}", None))
    finally:
        pipe.close()


def run_shadow_process(
    image_path: str,
    records: list[OpRecord],
    fd_snapshot: dict[int, FdState],
    inflight: tuple[int, FsOp] | None,
    check_level: CheckLevel = CheckLevel.FULL,
    strict: bool = True,
    timeout_s: float = 60.0,
) -> tuple[MetadataUpdate, ReplayReport]:
    """Execute recovery replay in a child process; returns its output."""
    if not os.path.exists(image_path):
        raise RecoveryFailure(f"image path {image_path!r} does not exist", phase="shadow-process")
    job = _ShadowJob(
        image_path=image_path,
        records=records,
        fd_snapshot=fd_snapshot,
        inflight=inflight,
        check_level=check_level,
        strict=strict,
    )
    parent_pipe, child_pipe = multiprocessing.Pipe(duplex=False)
    process = multiprocessing.Process(target=_shadow_child, args=(job, child_pipe), daemon=True)
    process.start()
    child_pipe.close()
    try:
        if not parent_pipe.poll(timeout_s):
            raise RecoveryFailure("shadow process timed out", phase="shadow-process")
        status, payload, report = parent_pipe.recv()
    except EOFError as exc:
        raise RecoveryFailure("shadow process died without a result", phase="shadow-process") from exc
    finally:
        process.join(timeout=5.0)
        if process.is_alive():
            process.terminate()
        parent_pipe.close()
    if status != "ok":
        raise RecoveryFailure(f"shadow process failed: {payload}", phase="shadow-process")
    return payload, report
