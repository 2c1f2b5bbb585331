"""The sweep's crash trigger: a device wrapper that counts calls.

A crash point is one call in the scenario's device trace, named by
``(call, block, occurrence)``: "the 3rd flush", "the 2nd write to block
37".  :class:`SweepDevice` wraps the scenario's real device and counts
writes and flushes per ``(call, block)``.  Unarmed, it records the
trace the work-list is built from; armed, it crashes once, right after
the named call completes, and stays quiet after that (recovery's
contained reboot re-mounts on the same device, and a re-fire would
escalate the case into nested recovery).  Counting starts at
:meth:`SweepDevice.record` or :meth:`SweepDevice.arm`, so set-up IO
made before them (the supervised mount) is neither recorded nor
counted.  Reads are passed through uncounted: they change no image.

Two crash kinds:

* ``fail-stop`` — raise :class:`~repro.errors.KernelBug` after the
  call (a kernel bug after the IO; the volatile image survives, testing
  the RAE runtime-error recovery story);
* ``power-loss`` — drop every unflushed write of the inner device, then
  raise (testing the journal's crash-consistency story).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.blockdev.device import BlockDevice
from repro.errors import KernelBug

FAIL_STOP = "fail-stop"
POWER_LOSS = "power-loss"
CRASH_KINDS = (FAIL_STOP, POWER_LOSS)

WRITE = "write"
FLUSH = "flush"


class CrashPoint(NamedTuple):
    """One device call of a trace: the ``occurrence``-th ``call`` to
    ``block`` (``-1`` for a flush) since counting started."""

    call: str
    block: int
    occurrence: int

    def describe(self) -> str:
        if self.call == FLUSH:
            return f"flush #{self.occurrence}"
        return f"write #{self.occurrence} to block {self.block}"


def crash_points(trace: list[CrashPoint], crash_kind: str) -> list[CrashPoint]:
    """The points of ``trace`` worth crashing at under ``crash_kind``.

    Fail-stop crashes after every write and every flush.  A power loss
    drops every unflushed write, so it is taken once per durable image:
    after each write whose next call is a flush (the image that flush
    would replace) and after the last write of an unflushed tail.
    """
    if crash_kind == FAIL_STOP:
        return list(trace)
    return [
        point
        for point, after in zip(trace, trace[1:] + [None])
        if point.call == WRITE and (after is None or after.call == FLUSH)
    ]


class SweepDevice(BlockDevice):
    """Wrap ``inner``; record its write/flush trace or crash at one call."""

    def __init__(self, inner: BlockDevice):
        super().__init__(inner.block_size, inner.block_count)
        self.inner = inner
        self.trace: list[CrashPoint] | None = None
        self.point: CrashPoint | None = None
        self.crash_kind = FAIL_STOP
        self.fired = False
        self._seen: dict[tuple[str, int], int] = {}

    def record(self) -> None:
        """Start counting, appending every write and flush to ``trace``."""
        self.trace = []
        self._seen = {}

    def arm(self, point: CrashPoint, crash_kind: str = FAIL_STOP) -> None:
        """Start counting; crash once, right after ``point``."""
        if crash_kind not in CRASH_KINDS:
            raise ValueError(f"unknown crash kind {crash_kind!r}")
        self.point = point
        self.crash_kind = crash_kind
        self.fired = False
        self._seen = {}

    def disarm(self) -> None:
        self.point = None
        self.trace = None

    def _after(self, call: str, block: int) -> None:
        if self.point is None and self.trace is None:
            return
        occurrence = self._seen.get((call, block), 0) + 1
        self._seen[(call, block)] = occurrence
        here = CrashPoint(call, block, occurrence)
        if self.trace is not None:
            self.trace.append(here)
        if here == self.point and not self.fired:
            self.fired = True
            self._fire()

    def _fire(self) -> None:
        if self.crash_kind == POWER_LOSS:
            # The machine is gone with its volatile state: drop the inner
            # device to its last durable image before the failure
            # propagates, so recovery sees what a real power loss leaves.
            self.inner.crash()
        raise KernelBug(f"sweep crash after {self.point.describe()} [{self.crash_kind}]")

    # ------------------------------------------------------------------
    # BlockDevice

    def read_block(self, block: int) -> bytes:
        self.io_stats.reads += 1
        return self.inner.read_block(block)

    def write_block(self, block: int, data: bytes) -> None:
        self.inner.write_block(block, data)
        self.io_stats.writes += 1
        self._after(WRITE, block)

    def flush(self) -> None:
        self.inner.flush()
        self.io_stats.flushes += 1
        self._after(FLUSH, -1)

    def close(self) -> None:
        self.inner.close()
