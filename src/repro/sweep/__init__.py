"""Crash-point sweep over the IO each scenario actually issues.

An unarmed run of each scenario records its device writes and flushes;
the sweep crashes after each of them (fail-stop) and at each durable
image (power-loss), recovers, classifies, and ships minimized
reproducers for anything that doesn't come back clean.  See
``docs/FAULT_SWEEP.md``.
"""

from repro.sweep.device import (
    CRASH_KINDS,
    FAIL_STOP,
    POWER_LOSS,
    CrashPoint,
    SweepDevice,
    crash_points,
)
from repro.sweep.engine import (
    OUTCOME_CLEAN,
    OUTCOME_DIVERGED,
    OUTCOME_FAILED,
    OUTCOME_REPAIRED,
    OUTCOME_UNREACHED,
    SweepCase,
    SweepConfig,
    SweepEngine,
    SweepError,
    SweepReport,
    SweepRunResult,
)
from repro.sweep.minimize import ddmin
from repro.sweep.suites import ScratchImage

__all__ = [
    "CRASH_KINDS",
    "FAIL_STOP",
    "POWER_LOSS",
    "OUTCOME_CLEAN",
    "OUTCOME_DIVERGED",
    "OUTCOME_FAILED",
    "OUTCOME_REPAIRED",
    "OUTCOME_UNREACHED",
    "CrashPoint",
    "ScratchImage",
    "SweepCase",
    "SweepConfig",
    "SweepDevice",
    "SweepEngine",
    "SweepError",
    "SweepReport",
    "SweepRunResult",
    "crash_points",
    "ddmin",
]
