"""Tests for repro.obs.prof: self-time stack math, supervisor
attachment, reboot re-wrapping, detach, and the prof collector."""

import pytest

from repro.api import OpenFlags
from repro.core.supervisor import RAEConfig, RAEFilesystem
from repro.obs import Registry
from repro.obs.prof import LAYERS, LayerProfiler
from tests.conftest import formatted_device
from tests.test_core_supervisor import crash_on_name
from tests.test_obs import FakeClock


def _make_profiler(step: float = 1.0) -> tuple[LayerProfiler, FakeClock]:
    clock = FakeClock(step=step)
    return LayerProfiler(Registry(clock=clock)), clock


class _Leaf:
    """A wrapped callee that costs nothing on the fake clock."""

    def work(self):
        return "leaf"


class _Parent:
    def __init__(self, leaf: _Leaf, calls: int = 1):
        self.leaf = leaf
        self.calls = calls

    def work(self):
        for _ in range(self.calls):
            self.leaf.work()
        return "parent"


class TestSelfTimeStack:
    """Bit-exact attribution math on a fake clock (1 unit per read).

    Every wrapper reads the clock once at push and once at pop, so each
    wrapped frame's *own* bracket contributes exactly the clock units
    consumed while it was the running (top) frame.
    """

    def test_parent_not_charged_for_child(self):
        prof, _ = _make_profiler()
        leaf = _Leaf()
        parent = _Parent(leaf)
        prof._wrap(prof._wrapped, parent, "work", "api")
        prof._wrap(prof._wrapped, leaf, "work", "device")

        assert parent.work() == "parent"
        # push parent (t1) -> push leaf charges api t2-t1=1 -> pop leaf
        # charges device t3-t2=1, resets parent's mark -> pop parent
        # charges api t4-t3=1.
        assert prof.self_seconds["api"] == pytest.approx(2.0)
        assert prof.self_seconds["device"] == pytest.approx(1.0)
        assert prof.ops == 1
        assert prof.calls["api"] == 1 and prof.calls["device"] == 1

    def test_sequential_children_reset_the_parent_mark(self):
        prof, _ = _make_profiler()
        leaf = _Leaf()
        parent = _Parent(leaf, calls=2)
        prof._wrap(prof._wrapped, parent, "work", "api")
        prof._wrap(prof._wrapped, leaf, "work", "device")

        parent.work()
        # Each child costs the parent one push-charge; the pop resets the
        # parent's mark so nothing is double-counted between children.
        assert prof.self_seconds["api"] == pytest.approx(3.0)
        assert prof.self_seconds["device"] == pytest.approx(2.0)
        assert prof.ops == 1

    def test_exception_unwinding_still_charges_and_flushes(self):
        prof, _ = _make_profiler()

        class _Boom:
            def work(self):
                raise KeyError("boom")

        boom = _Boom()
        prof._wrap(prof._wrapped, boom, "work", "vfs")
        with pytest.raises(KeyError):
            boom.work()
        assert prof.self_seconds["vfs"] == pytest.approx(1.0)
        assert prof.ops == 1
        assert prof._stack == []

    def test_per_layer_histograms_record_per_op_self_time(self):
        prof, _ = _make_profiler()
        leaf = _Leaf()
        prof._wrap(prof._wrapped, leaf, "work", "blkmq")
        leaf.work()
        leaf.work()
        summary = prof.layer_summary()
        assert summary["blkmq"]["p50"] == pytest.approx(1.0)
        assert summary["blkmq"]["share"] == pytest.approx(1.0)
        # Untouched layers are present with a deterministic zero shape.
        assert summary["journal"] == {
            "self_seconds": 0.0, "calls": 0, "share": 0.0,
            "p50": None, "p95": None, "p99": None,
        }


class TestSupervisorAttachment:
    def _workload(self, fs):
        fs.mkdir("/d")
        fd = fs.open("/d/f", flags=OpenFlags.CREAT)
        fs.write(fd, b"x" * 4096)
        fs.fsync(fd)
        fs.read(fd, 16)
        fs.close(fd)
        fs.stat("/d/f")

    def test_default_config_attaches_and_attributes(self):
        fs = RAEFilesystem(formatted_device(4096))
        assert fs.profiler is not None
        self._workload(fs)
        summary = fs.profiler.layer_summary()
        assert set(summary) == set(LAYERS)
        assert fs.profiler.ops > 0
        assert summary["api"]["calls"] > 0
        assert summary["vfs"]["self_seconds"] > 0
        assert summary["device"]["calls"] > 0  # fsync reached the device
        assert sum(e["share"] for e in summary.values()) == pytest.approx(1.0)

    def test_every_flushed_op_is_an_api_call(self):
        """``FsOp.apply`` calls ``fstat_ino`` after each successful open
        and ``fstat_ino`` bypasses ``_call``: left unwrapped at the api
        layer, its bare vfs frame is flushed as a phantom operation."""
        from repro.workloads import WorkloadGenerator, varmail_profile

        fs = RAEFilesystem(formatted_device(4096))
        operations = WorkloadGenerator(varmail_profile(), seed=7).ops(120)
        for index, operation in enumerate(operations):
            operation.apply(fs, opseq=index + 1)
        assert any(operation.name == "open" for operation in operations)
        assert fs.profiler.ops == fs.profiler.calls["api"]

    def test_prof_collector_lands_in_registry_snapshot(self):
        fs = RAEFilesystem(formatted_device(4096))
        fs.mkdir("/a")
        collected = fs.obs.snapshot()["collected"]
        assert collected["prof.ops"] >= 1
        assert collected["prof.vfs.calls"] >= 1
        assert "prof.device.self_seconds" in collected

    def test_profile_off_means_no_wrapping(self):
        fs = RAEFilesystem(formatted_device(4096), RAEConfig(profile=False))
        assert fs.profiler is None
        assert "_call" not in fs.__dict__
        assert "mkdir" not in fs.base.__dict__
        assert "prof.ops" not in fs.obs.snapshot()["collected"]

    def test_metrics_off_implies_profile_off(self):
        fs = RAEFilesystem(formatted_device(4096), RAEConfig(metrics=False))
        assert fs.profiler is None

    def test_detach_restores_methods_and_stops_accumulating(self):
        fs = RAEFilesystem(formatted_device(4096))
        fs.mkdir("/a")
        ops_before = fs.profiler.ops
        fs.profiler.detach()
        assert "_call" not in fs.__dict__
        assert "mkdir" not in fs.base.__dict__
        assert "read_block" not in fs.device.__dict__
        fs.mkdir("/b")
        assert fs.profiler.ops == ops_before
        assert fs.readdir("/") == ["a", "b"]

    def test_unmount_detaches_so_the_next_mount_sees_the_device(self):
        """The device outlives the supervisor: wrappers left on it by an
        unmounted supervisor's profiler would keep charging that dead
        profiler and hide the device layer from the next mount's."""
        device = formatted_device(4096)
        first = RAEFilesystem(device)
        first.mkdir("/a")
        first.unmount()
        assert "read_block" not in device.__dict__
        ops, calls = first.profiler.ops, dict(first.profiler.calls)
        assert calls["device"] > 0  # the unmount op itself was attributed

        second = RAEFilesystem(device)
        for index in range(31):
            second.mkdir(f"/d{index}")
        summary = second.profiler.layer_summary()
        assert summary["device"]["calls"] > 0
        assert summary["device"]["self_seconds"] > 0
        assert second.profiler.ops == 31
        assert (first.profiler.ops, first.profiler.calls) == (ops, calls)

    def test_double_attach_rejected(self):
        fs = RAEFilesystem(formatted_device(4096))
        with pytest.raises(ValueError):
            fs.profiler.attach(fs)

    def test_contained_reboot_rewraps_the_new_base(self):
        from repro.basefs.hooks import HookPoints

        hooks = HookPoints()
        crash_on_name(hooks, "evil")
        fs = RAEFilesystem(formatted_device(4096), hooks=hooks)
        fs.mkdir("/ok")
        fs.mkdir("/evil-dir")  # injected KernelBug -> contained reboot
        assert fs.recovery_count == 1
        vfs_calls = fs.profiler.calls["vfs"]
        fs.mkdir("/after")  # must hit the *new* base's wrappers
        assert fs.profiler.calls["vfs"] > vfs_calls
        assert "mkdir" in fs.base.__dict__  # new base is wrapped in place

    def test_attribution_is_observationally_free(self):
        """profile on vs off: identical op streams end in byte-identical
        images (the wrappers only measure, never change behavior)."""
        from repro.basefs.hooks import HookPoints
        from repro.workloads import WorkloadGenerator, varmail_profile

        images = []
        for profile in (True, False):
            device = formatted_device(4096)
            hooks = HookPoints()
            crash_on_name(hooks, "evil")
            fs = RAEFilesystem(device, RAEConfig(profile=profile), hooks=hooks)
            for index, operation in enumerate(
                WorkloadGenerator(varmail_profile(), seed=5).ops(40)
            ):
                operation.apply(fs, opseq=index + 1)
            fs.mkdir("/evil-dir")  # recovery under both arms
            assert fs.recovery_count == 1
            fs.unmount()
            images.append(device.snapshot())
        assert images[0] == images[1]


class TestDeterministicDeviceAttribution:
    def test_injected_device_cost_lands_in_the_device_layer(self):
        """A slowdown injected into the raw device (on the fake clock)
        is attributed to the device layer, not smeared over callers."""
        clock = FakeClock(step=0.0)  # only explicit ticks advance time
        device = formatted_device(4096)
        real_read = device.read_block

        def slow_read(block_no):
            clock.now += 7.0  # the seeded synthetic regression
            return real_read(block_no)

        device.read_block = slow_read
        fs = RAEFilesystem(device, obs=Registry(clock=clock))
        fd = fs.open("/f", flags=OpenFlags.CREAT)
        fs.write(fd, b"y" * 4096)
        fs.fsync(fd)
        fs.read(fd, 4096)
        fs.close(fd)
        summary = fs.profiler.layer_summary()
        reads = [r for r in (summary["device"],) if r["calls"]]
        assert reads, "device layer never called"
        # With a zero-step clock, *all* elapsed time is the injected
        # device cost — every unit must be charged to the device layer.
        assert summary["device"]["self_seconds"] > 0
        for layer in LAYERS:
            if layer != "device":
                assert summary[layer]["self_seconds"] == pytest.approx(0.0)

    def test_seeded_device_sleep_dominates_the_table(self):
        """Real clock, generator workload: a sleep seeded into the raw
        device's ``write_block`` makes the device layer dominate the
        breakdown instead of being a rounding error."""
        import time

        from repro.workloads import WorkloadGenerator, varmail_profile

        operations = WorkloadGenerator(varmail_profile(), seed=11).ops(60)

        def device_layer(slow: bool) -> dict:
            device = formatted_device(4096)
            if slow:
                real_write = device.write_block

                def write_block(block_no, data):
                    time.sleep(0.002)  # the seeded synthetic regression
                    return real_write(block_no, data)

                device.write_block = write_block
            fs = RAEFilesystem(device)
            for index, operation in enumerate(operations):
                operation.apply(fs, opseq=index + 1)
            return fs.profiler.layer_summary()["device"]

        clean, slowed = device_layer(False), device_layer(True)
        assert slowed["calls"] > 0
        assert slowed["share"] > clean["share"]
        assert slowed["share"] > 0.5
        assert slowed["self_seconds"] > clean["self_seconds"] * 5
