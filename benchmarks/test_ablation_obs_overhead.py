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
"""

import time

from repro.bench import format_table, make_rae, print_banner, run_ops
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
