"""Ablation — the cost of the shadow's extensive runtime checks (§2.3).

"Due to performance concerns, runtime checks are commonly disabled in
the base, but the shadow can enable all possible checks to survive
dynamic errors without performance concerns."  Quantified two ways:

* shadow throughput at OFF / BASIC / FULL check levels — the price the
  shadow pays, and can afford, per the paper;
* the base's validate-on-sync toggle — the *one* runtime check the base
  keeps (the fault model needs detection before persistence) and its
  common-path cost.
"""

import time

from repro.bench import make_device, run_ops
from repro.bench.reporting import format_table, print_banner
from repro.basefs.filesystem import BaseFilesystem
from repro.shadowfs.checks import CheckLevel
from repro.shadowfs.filesystem import ShadowFilesystem
from repro.workloads import WorkloadGenerator, fileserver_profile

N_OPS = 300
VALIDATE_COST_ROUNDS = 5
# A ratio of two times from one process, so it does not depend on the
# machine.  Measured 1.04-1.14 over twelve best-of-5 repetitions with the
# in-place walkers (1.13-1.17 when validation built an object per
# record); the budget leaves headroom for a noisy runner.
VALIDATE_COST_BUDGET = 1.25


def shadow_throughput(level: CheckLevel) -> tuple[float, int]:
    operations = [
        operation
        for operation in WorkloadGenerator(fileserver_profile(), seed=123).ops(N_OPS)
        if operation.name != "fsync"
    ]
    shadow = ShadowFilesystem(make_device(16384), check_level=level)
    start = time.perf_counter()
    run_ops(shadow, operations)
    elapsed = time.perf_counter() - start
    return len(operations) / elapsed, shadow.checks.stats.checks_run


def test_shadow_check_levels(benchmark):
    benchmark(shadow_throughput, CheckLevel.FULL)
    rows = []
    throughput = {}
    for level in (CheckLevel.OFF, CheckLevel.BASIC, CheckLevel.FULL):
        ops_per_second, checks_run = shadow_throughput(level)
        throughput[level] = ops_per_second
        rows.append([level.name, ops_per_second, checks_run])
    print_banner("Shadow throughput by check level")
    print(format_table(["check level", "ops/s", "checks run"], rows))
    # FULL costs real work, but remains the same order of magnitude: the
    # shadow can afford it (the paper's point).
    assert throughput[CheckLevel.OFF] >= throughput[CheckLevel.FULL]
    assert throughput[CheckLevel.FULL] > throughput[CheckLevel.OFF] / 20


def test_base_validate_on_sync_cost(benchmark):
    operations = WorkloadGenerator(fileserver_profile(), seed=124).ops(N_OPS)

    def run_base(validate: bool) -> float:
        fs = BaseFilesystem(make_device(16384), validate_on_sync=validate)
        start = time.perf_counter()
        for index, operation in enumerate(operations):
            operation.apply(fs, opseq=index + 1)
            fs.writeback.tick()
        fs.commit()
        return time.perf_counter() - start

    benchmark(run_base, True)
    # min is the noise-robust estimator; the two sides alternate so
    # machine drift hits both alike.
    runs = [(run_base(True), run_base(False)) for _ in range(VALIDATE_COST_ROUNDS)]
    with_checks = min(run[0] for run in runs)
    without = min(run[1] for run in runs)
    ratio = with_checks / without
    print_banner(f"Base validate-on-sync cost (the one check the base keeps, best of {VALIDATE_COST_ROUNDS})")
    print(
        format_table(
            ["configuration", "seconds", "relative"],
            [["validate_on_sync=False", without, 1.0], ["validate_on_sync=True", with_checks, ratio]],
        )
    )
    # Detection-before-persistence must be affordable on the common path.
    assert ratio <= VALIDATE_COST_BUDGET, (
        f"validate-on-sync costs {ratio:.2f}x the unvalidated base (budget {VALIDATE_COST_BUDGET}x): "
        "the commit path should check blocks in place, not build what it only checks"
    )


def test_checks_catch_what_they_cost(benchmark):
    """The payoff side: FULL checks catch a cross-structure corruption
    that BASIC misses (a block marked free while referenced)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # correctness demo, not a timing
    from repro.errors import InvariantViolation
    from repro.ondisk.image import read_inode, write_inode
    from repro.ondisk.layout import DiskLayout, ROOT_INO

    import pytest

    device = make_device(16384)
    layout = DiskLayout(block_count=16384)
    root = read_inode(device, layout, ROOT_INO)
    # Clear the root dir block's bitmap bit (cross-structure corruption).
    from repro.ondisk.bitmap import Bitmap

    group = layout.group_of_block(root.direct[0])
    bitmap_block = layout.block_bitmap_block(group)
    bitmap = Bitmap.from_block(layout.blocks_per_group, device.read_block(bitmap_block))
    bitmap.clear(root.direct[0] - layout.group_start(group))
    device.write_block(bitmap_block, bitmap.to_block())

    basic = ShadowFilesystem(device, check_level=CheckLevel.BASIC)
    basic.readdir("/")  # BASIC: structure parses, corruption missed

    with pytest.raises(InvariantViolation):
        full = ShadowFilesystem(device, check_level=CheckLevel.FULL)
        full.readdir("/")
