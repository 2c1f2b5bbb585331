import random

import pytest

from perfbench import streams
from perfbench.harness import PROBE_EPISODES, SMOKE_DIVISOR, WORKLOADS
from perfbench.oracle import Reference

SMOKE_PROBE_EPISODES = max(1, PROBE_EPISODES // SMOKE_DIVISOR)

GENERATORS = streams.GENERATORS


def smoke_stream(name: str, seed: int) -> streams.Stream:
    workload = WORKLOADS[name]
    return streams.make_stream(
        name,
        random.Random(f"{name}/{seed}"),
        max(1, workload.count // SMOKE_DIVISOR),
        max(1, workload.warmup // SMOKE_DIVISOR),
        SMOKE_PROBE_EPISODES,
        workload.episode_ops,
    )


def signature(stream: streams.Stream):
    return [(o.name, o.args) for o in stream.prepop + stream.ops], stream.warmup, stream.blocks, stream.triggers


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_stream(name):
    assert signature(smoke_stream(name, 7)) == signature(smoke_stream(name, 7))
    assert signature(smoke_stream(name, 7)) != signature(smoke_stream(name, 8))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_are_exact_and_blocks_partition_the_measured_region(name):
    workload = WORKLOADS[name]
    stream = smoke_stream(name, 3)
    count = max(1, workload.count // SMOKE_DIVISOR)
    measured_triggers = [index for index in stream.triggers if index >= stream.warmup]
    if workload.recovery:
        assert stream.measured == count * (workload.episode_ops + 2)
        assert len(measured_triggers) == count
        assert stream.probe == len(stream.ops)
        # A block is whole episodes: it ends right after a trigger's rmdir.
        for _lo, hi in stream.blocks:
            assert hi - 2 in stream.triggers
    else:
        assert stream.measured == count
        # The recovery probe follows the measured region.
        assert len(stream.ops) - stream.probe == SMOKE_PROBE_EPISODES * (streams.PROBE_EPISODE_OPS + 2)
        assert len(measured_triggers) == SMOKE_PROBE_EPISODES
        assert all(index >= stream.probe for index in measured_triggers)
    assert stream.blocks[0][0] == stream.warmup
    assert stream.blocks[-1][1] == stream.probe
    for (_lo, hi), (lo, _hi) in zip(stream.blocks, stream.blocks[1:]):
        assert hi == lo


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_no_op_fails_on_the_spec(name):
    stream = smoke_stream(name, 5)
    reference = Reference(stream.prepop, stream.ops)  # raises GeneratorError on any errno
    assert len(reference.outcomes) == len(stream.ops)


@pytest.mark.parametrize("name", ["create_churn", "fsync_mail", "recovery_longwindow"])
def test_population_stays_in_its_band_over_ten_times_the_op_count(name):
    gen = GENERATORS[name](random.Random(11))
    gen.prepopulate()
    low, high = gen.band
    full = {"create_churn": 4_000, "fsync_mail": 6_000, "recovery_longwindow": 110 * 202}[name]
    for _ in range(100):
        gen.out.clear()
        gen.emit(full // 10)
        assert low <= len(gen.files) <= high


@pytest.mark.parametrize("name", ["meta_lookup", "data_cold"])
def test_read_mostly_generators_never_change_the_population(name):
    gen = GENERATORS[name](random.Random(11))
    gen.prepopulate()
    before = (list(gen.files.paths), dict(gen.files.size))
    gen.out.clear()
    gen.emit(5_000)
    assert (gen.files.paths, gen.files.size) == before
    assert {o.name for o in gen.out} <= {"stat", "lstat", "readdir", "open", "close", "lseek", "read", "write"}
