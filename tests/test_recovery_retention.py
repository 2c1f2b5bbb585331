"""What a successful recovery leaves behind of the base it discarded.

The contained reboot distrusts everything the failed base holds, and the
supervisor keeps nothing of it: the detector's history keeps each
exception with its message and file:line traceback, but the frames'
locals (whose ``self`` is the failed base) are cleared once the error is
handled, and the base's own reference cycles are cut at the reboot.  So
reference counting alone frees the failed base inside the stall, with
the cyclic collector switched off — on every path that ends a recovery
or ignores a WARN.
"""

from __future__ import annotations

import gc
import traceback
import weakref

import pytest

from repro.basefs.filesystem import BaseFilesystem
from repro.basefs.hooks import HookPoints
from repro.basefs.writeback import WritebackPolicy
from repro.core.detector import WarnPolicy
from repro.core.supervisor import RAEConfig, RAEFilesystem
from repro.errors import Errno, FsError, KernelBug, KernelWarning
from tests.conftest import formatted_device


def _raise(kind, message):
    raise kind(message)


RAISED_AT = f'File "{_raise.__code__.co_filename}", line {_raise.__code__.co_firstlineno + 1}'


class Rig:
    """A supervisor whose ``mkdir("/evil")`` meets a kernel bug, whose
    ``mkdir("/warny")`` meets a WARN, and whose next journal commit fails
    once ``commit_bugs`` is raised above zero.  Every base it ever runs
    on is tracked by a weak reference."""

    def __init__(self, config: RAEConfig | None = None, writeback_policy: WritebackPolicy | None = None):
        self.commit_bugs = 0
        hooks = HookPoints()
        hooks.register("dir.insert", self._insert)
        hooks.register("journal.commit", self._commit)
        self.fs = RAEFilesystem(formatted_device(), config or RAEConfig(), hooks=hooks,
                                writeback_policy=writeback_policy)
        self.bases = [weakref.ref(self.fs.base)]
        self.fs.on_reboot.append(lambda base: self.bases.append(weakref.ref(base)))

    def _insert(self, point, ctx):
        if ctx.get("name") == "evil":
            _raise(KernelBug, "bug on evil")
        if ctx.get("name") == "warny":
            _raise(KernelWarning, "warn on warny")

    def _commit(self, point, ctx):
        if self.commit_bugs:
            self.commit_bugs -= 1
            _raise(KernelBug, "commit bug")

    def alive(self) -> list[BaseFilesystem]:
        return [base for base in (ref() for ref in self.bases) if base is not None]

    def recover(self) -> None:
        """One recovery from an op, its window a mkdir/rmdir pair."""
        self.fs.mkdir("/d")
        self.fs.rmdir("/d")
        self.fs.mkdir("/evil")
        self.fs.rmdir("/evil")


def _op_recovery():
    rig = Rig()
    return rig, rig.recover, 1


def _tick_recovery():
    rig = Rig(writeback_policy=WritebackPolicy(commit_interval_ops=1))

    def trigger():
        rig.commit_bugs = 1
        rig.fs.mkdir("/ticked")  # the op succeeds; its write-back tick's commit fails
        assert rig.fs.detector.history[-1].op_name == "writeback"

    return rig, trigger, 1


def _nested_recovery():
    rig = Rig()

    def trigger():
        rig.commit_bugs = 1
        rig.fs.mkdir("/evil")  # recovery -> post-recovery commit fails -> nested recovery
        assert rig.fs.detector.history[-1].op_name == "post-recovery-commit"

    return rig, trigger, 2


def _ignored_warn():
    rig = Rig(RAEConfig(warn_policy=WarnPolicy.IGNORE))

    def trigger():
        with pytest.raises(FsError) as error:
            rig.fs.mkdir("/warny")
        assert error.value.errno == Errno.EIO
        rig.recover()  # the base the WARN ran on is the one this discards

    return rig, trigger, 1


SCENARIOS = [_op_recovery, _tick_recovery, _nested_recovery, _ignored_warn]


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__.strip("_"))
def test_failed_base_is_freed_without_the_collector(scenario, collector_off):
    rig, trigger, recoveries = scenario()
    rig.recover()  # a warm-up recovery, so the rings and histories are not empty
    before = rig.fs.recovery_count
    trigger()
    assert rig.fs.recovery_count == before + recoveries
    # Neither a cycle nor a pin: every discarded base went with the
    # reference count, and only the live one remains.
    assert rig.alive() == [rig.fs.base]


def test_fifty_recoveries_keep_one_base():
    rig = Rig(RAEConfig(profile=False))
    for _ in range(50):
        rig.recover()
    gc.collect()
    assert rig.fs.recovery_count == 50
    assert len(rig.bases) == 51
    assert rig.alive() == [rig.fs.base]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__.strip("_"))
def test_history_still_renders(scenario):
    rig, trigger, _ = scenario()
    trigger()
    history = list(rig.fs.detector.history)
    assert history
    for detected in history:
        exc = detected.exception
        assert str(exc) in ("bug on evil", "warn on warny", "commit bug")
        assert str(exc) in detected.describe()
        rendered = "".join(traceback.format_exception(exc))
        assert RAISED_AT in rendered
        assert f"{type(exc).__name__}: {exc}" in rendered
        # The frame that caught the error may have been running when it
        # was handled; every frame below it has no locals left, and none
        # holds a base.
        tb = exc.__traceback__
        assert not any(isinstance(value, BaseFilesystem) for value in tb.tb_frame.f_locals.values())
        tb = tb.tb_next
        while tb is not None:
            assert tb.tb_frame.f_locals == {}
            tb = tb.tb_next


def test_on_reboot_reads_every_stats_object_of_the_failed_base(collector_off):
    """The contract perfbench's layer counters rely on: a callback that
    kept the failed base reads every ``*.stats`` object of it at the
    reboot, and once it lets go the base is freed."""
    rig = Rig(RAEConfig(profile=False))
    fs = rig.fs
    read = {}

    class Counters:
        def __init__(self):
            self.base = fs.base

        def rebooted(self, new_base):
            old, self.base = self.base, new_base
            read.update(
                (name, dict(vars(layer.stats)))
                for name, layer in vars(old).items()
                if hasattr(layer, "stats")
            )

    counters = Counters()
    fs.on_reboot.insert(0, counters.rebooted)
    fs.mkdir("/d")
    fs.base.commit()
    failed = weakref.ref(fs.base)
    fs.mkdir("/evil")
    assert fs.recovery_count == 1
    assert {"dentry_cache", "inode_cache", "page_cache", "cache", "journal", "writeback", "blkmq"} <= set(read)
    assert read["journal"]["commits"] >= 1 and read["writeback"]["ticks"] >= 1
    assert counters.base is fs.base
    assert failed() is None
