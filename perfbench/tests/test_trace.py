import pytest

from perfbench.trace import BOUNDARIES, NOTES, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


CLOCK = FakeClock()


class Inner:
    def work(self, seconds):
        CLOCK.advance(seconds)

    def fail(self):
        CLOCK.advance(0.5)
        raise KeyError("boom")


class Outer:
    def __init__(self):
        self.inner = Inner()

    def op(self):
        CLOCK.advance(1.0)
        self.inner.work(2.0)
        CLOCK.advance(4.0)
        self.inner.work(8.0)
        CLOCK.advance(16.0)


def test_self_times_partition_the_top_level_time_exactly():
    tracer = Tracer(clock=CLOCK)
    tracer.wrap(Outer, "op", "outer")
    tracer.wrap(Inner, "work", "inner", note=lambda _self, seconds: seconds)
    try:
        outer = Outer()
        for op_id in range(3):
            tracer.run_op(op_id, "top", lambda: (CLOCK.advance(32.0), outer.op()))
    finally:
        tracer.uninstall()
    summary = tracer.summary(0, 3)
    assert summary.ops == 3
    assert summary.self_s == {"top": 96.0, "outer": 63.0, "inner": 30.0}
    assert summary.top_level_s == 189.0 == summary.self_total_s
    assert summary.calls == {"outer": 3, "inner": 6}
    assert summary.notes["inner"] == [2.0, 8.0] * 3
    # name, start, end, parent, op: the second op's first inner span
    layer, start, end, parent, op_id, _note = tracer.spans[6]
    assert (layer, end - start, tracer.spans[parent][0], op_id) == ("inner", 2.0, "outer", 1)
    # A summary over some of the ops partitions just their time.
    last = tracer.summary(2, 3)
    assert (last.ops, last.top_level_s, last.self_total_s) == (1, 63.0, 63.0)


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer(clock=CLOCK)
    tracer.wrap(Inner, "fail", "inner")
    try:
        with pytest.raises(KeyError):
            tracer.run_op(0, "top", Inner().fail)
    finally:
        tracer.uninstall()
    assert tracer.summary(0, 1).self_s == {"top": 0.0, "inner": 0.5}
    assert tracer._stack == [-1]


def test_every_patched_attribute_is_restored():
    originals = {(owner, attr): vars(owner)[attr] for owner, attrs, _layer in BOUNDARIES for attr in attrs}
    assert set(NOTES) <= set(originals)
    with Tracer():
        assert all(vars(owner)[attr] is not original for (owner, attr), original in originals.items())
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original
