"""Ablation — what does observability cost, and what does it record?

One claim from the observability design (docs/OBSERVABILITY.md):
**disabled means free.**  With ``RAEConfig(metrics=False)`` the
supervisor's hot path pays one boolean test per operation; there is
no baseline without the code, so the regression guard here is that
the disabled configuration is at least as fast as the enabled one
(within noise) on the figure-2 workload.  The figure-2 benchmark
itself runs the bare :class:`BaseFilesystem`, which carries *zero*
instrumentation — its overhead with metrics disabled is structurally
0%, well under the 5% budget.

A second budget holds the supervisor's *whole* per-op addition —
dispatch, op-log record, instruments, flight entry — to a fraction of
the cheapest op it wraps (``test_supervisor_cost_relative_to_base``).
"""

import time

from repro.api import OpenFlags
from repro.bench import format_table, make_base, make_rae, print_banner, run_ops
from repro.core.supervisor import RAEConfig
from repro.workloads import WorkloadGenerator, webserver_profile

N_OPS = 400
ROUNDS = 5


def _best_seconds(metrics: bool, operations) -> tuple[float, object]:
    """Fastest of ROUNDS fresh runs (min is the noise-robust estimator);
    also returns the last run's filesystem for inspection."""
    best = float("inf")
    fs = None
    for _ in range(ROUNDS):
        fs = make_rae(block_count=16384, config=RAEConfig(metrics=metrics))
        start = time.perf_counter()
        run_ops(fs, operations)
        best = min(best, time.perf_counter() - start)
    return best, fs


def test_obs_overhead(benchmark):
    operations = WorkloadGenerator(webserver_profile(), seed=77).ops(N_OPS)

    def run_enabled():
        run_ops(make_rae(block_count=16384, config=RAEConfig(metrics=True)), operations)

    benchmark(run_enabled)

    enabled_s, enabled_fs = _best_seconds(True, operations)
    disabled_s, _ = _best_seconds(False, operations)

    print_banner("Observability ablation — RAE supervisor, webserver profile")
    print(
        format_table(
            ["configuration", "best seconds", "ops/s", "relative"],
            [
                ["metrics enabled", enabled_s, N_OPS / enabled_s, 1.0],
                ["metrics disabled", disabled_s, N_OPS / disabled_s, disabled_s / enabled_s],
            ],
        )
    )
    overhead = enabled_s / disabled_s - 1.0
    print(f"instrumentation overhead (enabled vs disabled): {overhead * 100:.1f}%")

    # The disabled path must not do metric work: allow generous noise but
    # catch any change that makes metrics=False pay for instruments.
    assert disabled_s <= enabled_s * 1.25, (
        f"metrics=False ({disabled_s:.4f}s) should not be slower than "
        f"metrics=True ({enabled_s:.4f}s) beyond noise"
    )

    snapshot = enabled_fs.obs.snapshot()
    assert snapshot["counters"], "enabled run recorded no counters"
    assert any(name.startswith("op.latency.") for name in snapshot["histograms"])


# ---------------------------------------------------------------------------
# What the supervisor itself adds to an op, relative to the op.

SUPERVISOR_COST_BUDGET = 0.45
SUPERVISOR_COST_ROUNDS = 7
SUPERVISOR_COST_CALLS = 20_000


def _stat_seconds(supervised: bool) -> float:
    """SUPERVISOR_COST_CALLS cached ``stat`` calls on a small tree: through
    the supervisor, or on the bare base followed by the write-back tick
    the supervisor would issue (so the difference is RAE's own work)."""
    config = RAEConfig(profile=False)  # the configuration perfbench measures
    fs = make_rae(block_count=4096, config=config) if supervised else make_base(block_count=4096)
    fs.mkdir("/d")
    fs.close(fs.open("/d/f", OpenFlags.CREAT))
    calls = range(SUPERVISOR_COST_CALLS)
    if supervised:
        stat = fs.stat
        start = time.perf_counter()
        for _ in calls:
            stat("/d/f")
        return time.perf_counter() - start
    stat, tick = fs.stat, fs.writeback.tick
    start = time.perf_counter()
    for _ in calls:
        stat("/d/f")
        tick()
    return time.perf_counter() - start


def test_supervisor_cost_relative_to_base(benchmark):
    benchmark(_stat_seconds, True)

    # min is the noise-robust estimator; both sides come from one process,
    # so the quotient does not depend on the machine's speed.
    supervised = min(_stat_seconds(True) for _ in range(SUPERVISOR_COST_ROUNDS))
    bare = min(_stat_seconds(False) for _ in range(SUPERVISOR_COST_ROUNDS))
    to_us = 1e6 / SUPERVISOR_COST_CALLS
    ratio = (supervised - bare) / bare
    print_banner(
        f"Supervisor cost relative to the base (cached stat, best of "
        f"{SUPERVISOR_COST_ROUNDS} x {SUPERVISOR_COST_CALLS} calls)"
    )
    print(
        format_table(
            ["side", "us per op", "relative"],
            [
                ["bare base stat + tick", bare * to_us, 1.0],
                ["what the supervisor adds", (supervised - bare) * to_us, ratio],
            ],
        )
    )
    assert ratio <= SUPERVISOR_COST_BUDGET, (
        f"the supervisor adds {ratio:.2f}x a cached stat (budget {SUPERVISOR_COST_BUDGET}x): "
        "recording an op should cost a fraction of executing it"
    )
