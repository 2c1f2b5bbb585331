"""Ablation — what does layer-attribution profiling cost?

The layer profiler (:mod:`repro.obs.prof`) is on by default
(``RAEConfig.profile=True``): every supervisor op pays ~20 wrapped
method calls, each two reads of the monotonic clock plus a dict update.
This ablation measures attribution-on vs attribution-off on the
webserver personality and enforces the declared overhead budget.

The budget is deliberately a *budget*, not a noise floor: on an
all-RAM :class:`MemoryBlockDevice` the per-call wrapping overhead is
maximal because the wrapped device/cache calls themselves cost almost
nothing — this is the worst case the profiler can face, and the bound
below is what "cheap enough to stay on by default" means here.  On any
device with real IO latency the relative overhead only shrinks.
"""

import time

from repro.bench import format_table, make_rae, print_banner, run_ops
from repro.core.supervisor import RAEConfig
from repro.workloads import WorkloadGenerator, webserver_profile

N_OPS = 400
ROUNDS = 5
#: attribution-on may cost at most this factor over attribution-off on
#: the worst-case in-memory device (measured ~1.25x; band allows CI
#: scheduler noise on top).
OVERHEAD_BUDGET = 1.50


def _best_seconds(profile: bool, operations) -> tuple[float, object]:
    """Fastest of ROUNDS fresh runs (min is the noise-robust estimator);
    also returns the last run's filesystem for inspection."""
    best = float("inf")
    fs = None
    for _ in range(ROUNDS):
        fs = make_rae(
            block_count=16384, config=RAEConfig(metrics=True, profile=profile)
        )
        start = time.perf_counter()
        run_ops(fs, operations)
        best = min(best, time.perf_counter() - start)
    return best, fs


def test_prof_overhead_within_budget(benchmark):
    operations = WorkloadGenerator(webserver_profile(), seed=77).ops(N_OPS)

    def run_profiled():
        run_ops(
            make_rae(block_count=16384, config=RAEConfig(metrics=True, profile=True)),
            operations,
        )

    benchmark(run_profiled)

    on_s, on_fs = _best_seconds(True, operations)
    off_s, _ = _best_seconds(False, operations)

    print_banner("Layer-attribution ablation — RAE supervisor, webserver profile")
    print(
        format_table(
            ["configuration", "best seconds", "ops/s", "relative"],
            [
                ["attribution on", on_s, N_OPS / on_s, on_s / off_s],
                ["attribution off", off_s, N_OPS / off_s, 1.0],
            ],
        )
    )
    overhead = on_s / off_s - 1.0
    print(f"attribution overhead (on vs off, worst-case RAM device): {overhead * 100:.1f}%")

    assert on_s <= off_s * OVERHEAD_BUDGET, (
        f"profile=True ({on_s:.4f}s) exceeds the declared overhead budget "
        f"({OVERHEAD_BUDGET:.2f}x) over profile=False ({off_s:.4f}s); either "
        "the wrappers got more expensive or the budget needs a deliberate bump"
    )

    # The profiled run actually attributed: every layer was exercised by
    # the webserver mix and the self-times account for real time.
    summary = on_fs.profiler.layer_summary()
    assert on_fs.profiler.ops > 0
    assert summary["vfs"]["calls"] > 0 and summary["device"]["calls"] > 0
    assert sum(entry["self_seconds"] for entry in summary.values()) > 0.0
