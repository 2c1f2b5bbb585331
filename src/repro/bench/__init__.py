"""Helpers shared by ``benchmarks/`` and ``repro.tools``.

Keeps the tier-2 ablation files declarative: construction of
filesystems over sized, template-formatted devices, workload execution
with timing, and paper-style table rendering.  This is not the
repository's benchmark — that is ``perfbench/`` (``BENCHMARK.json``),
which imports nothing from here.
"""

from repro.bench.harness import (
    make_base,
    make_device,
    make_rae,
    make_shadow,
    run_ops,
    time_ops,
)
from repro.bench.reporting import format_table, print_banner

__all__ = [
    "make_device",
    "make_base",
    "make_shadow",
    "make_rae",
    "run_ops",
    "time_ops",
    "format_table",
    "print_banner",
]
