"""The layer-attribution profiler: self-time per stack layer, per op.

Classic profiler accounting over a supervisor-side span stack.  Every
wrapped method pushes a ``[layer, mark]`` frame; *self-time* is the
wall time a frame spends as the top of the stack, so a parent is never
charged for its children:

* on **push**, the running (top) frame is charged ``now - mark`` and
  the new frame starts with ``mark = now``;
* on **pop**, the finishing frame is charged ``now - mark`` and the
  newly exposed frame's ``mark`` is reset to ``now``.

When the stack empties the operation is over: the per-op accumulator
is folded into the cumulative per-layer totals and one observation per
touched layer lands in a ``layer.self.<layer>`` log-scale histogram,
so the artifact gets p50/p95/p99 *of per-op self-time* per layer.

Attachment is runtime ``setattr`` on live instances — the supervisor,
its base filesystem's subsystems, and the block device — never a
module-level import into the base layers, so the pull-don't-push
discipline (docs/OBSERVABILITY.md) and SHADOW-PURITY both hold.  A
contained reboot swaps in a fresh base with unwrapped subsystems; the
profiler registers an ``on_reboot`` callback to re-wrap the new base
(the device instance survives reboots and stays wrapped).  The device
also outlives the supervisor, so a successful ``unmount`` detaches:
wrappers left on it would keep charging a dead profiler and hide the
device from the next mount's.
"""

from __future__ import annotations

from typing import Callable

LAYERS = ("api", "vfs", "pagecache", "journal", "writeback", "blkmq", "device")

# Per-op self-times start around single-digit microseconds and recovery
# episodes can push an op's device share past a second: 0.1 µs × 2ⁿ over
# 30 buckets spans 0.1 µs to ~53 s.
_HIST_LO = 1e-7
_HIST_BUCKETS = 30

_WRAP_MARKER = "__rae_layer_wrapper__"

# (attribute name, layer) wrap plans per wrapped object kind.
_VFS_OPS = (
    "mkdir", "rmdir", "unlink", "rename", "link", "symlink", "readlink",
    "readdir", "stat", "lstat", "truncate", "open", "close", "read",
    "write", "lseek", "fsync", "fstat_ino", "unmount",
)
_PAGECACHE_METHODS = ("lookup", "install", "dirty_pages", "mark_clean", "drop_ino")
_BUFFERCACHE_METHODS = ("read", "write", "writeback", "writeback_some", "sync")
_BLKMQ_METHODS = ("submit", "pump", "drain", "reap")
_DEVICE_METHODS = ("read_block", "write_block", "flush")


class LayerProfiler:
    """Decompose op wall time into per-layer self-time (see module doc).

    ``registry`` supplies the injected monotonic clock and the
    histogram store — tests pass a fake-clock :class:`Registry` and get
    bit-exact attributions.
    """

    def __init__(self, registry):
        self.registry = registry
        self.clock: Callable[[], float] = registry.clock
        self.self_seconds: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.ops = 0
        self._stack: list[list] = []
        self._op_self: dict[str, float] = {}
        self._wrapped: list[tuple[object, str, object, bool, Callable[[], None]]] = []
        self._base_wrapped: list[tuple[object, str, object, bool, Callable[[], None]]] = []
        self._hists = {
            layer: registry.histogram(
                f"layer.self.{layer}", lo=_HIST_LO, buckets=_HIST_BUCKETS
            )
            for layer in LAYERS
        }
        self._fs = None

    # -- wrapping ------------------------------------------------------

    def _wrap(self, records: list, obj: object, name: str, layer: str) -> None:
        original = getattr(obj, name, None)
        if original is None or getattr(original, _WRAP_MARKER, False):
            return
        had_instance_attr = name in getattr(obj, "__dict__", {})
        clock = self.clock
        stack = self._stack
        acc = self._op_self
        calls = self.calls

        def wrapper(*args, **kwargs):
            now = clock()
            if stack:
                top = stack[-1]
                acc[top[0]] = acc.get(top[0], 0.0) + (now - top[1])
            frame = [layer, now]
            stack.append(frame)
            calls[layer] += 1
            try:
                return original(*args, **kwargs)
            finally:
                now = clock()
                acc[layer] = acc.get(layer, 0.0) + (now - frame[1])
                stack.pop()
                if stack:
                    stack[-1][1] = now
                else:
                    self._flush_op()

        def release() -> None:
            # A traceback the wrapper raised through keeps the wrapper
            # alive (its frame references the function) after unwrapping;
            # it must not keep the wrapped object alive with it.
            nonlocal original
            original = None

        setattr(wrapper, _WRAP_MARKER, True)
        setattr(obj, name, wrapper)
        records.append((obj, name, original, had_instance_attr, release))

    @staticmethod
    def _unwrap(records: list) -> None:
        while records:
            obj, name, original, had_instance_attr, release = records.pop()
            release()
            if had_instance_attr:
                setattr(obj, name, original)
            else:
                try:
                    delattr(obj, name)  # fall back to the class attribute
                except AttributeError:
                    setattr(obj, name, original)

    def _flush_op(self) -> None:
        self.ops += 1
        acc = self._op_self
        totals = self.self_seconds
        hists = self._hists
        for layer, seconds in acc.items():
            totals[layer] += seconds
            hists[layer].observe(seconds)
        acc.clear()

    def _wrap_base(self, base) -> None:
        for name in _VFS_OPS:
            self._wrap(self._base_wrapped, base, name, "vfs")
        # commit is the writeback path's entry (fsync/tick/scrub all
        # funnel there); the journal and home-write costs nested inside
        # it are charged to their own layers.
        self._wrap(self._base_wrapped, base, "commit", "writeback")
        self._wrap(self._base_wrapped, base.writeback, "tick", "writeback")
        self._wrap(self._base_wrapped, base.journal, "commit", "journal")
        for name in _PAGECACHE_METHODS:
            self._wrap(self._base_wrapped, base.page_cache, name, "pagecache")
        for name in _BUFFERCACHE_METHODS:
            self._wrap(self._base_wrapped, base.cache, name, "pagecache")
        for name in _BLKMQ_METHODS:
            self._wrap(self._base_wrapped, base.blkmq, name, "blkmq")

    def _on_reboot(self, new_base) -> None:
        """Contained reboot: the old base's wrapped objects are dead;
        re-wrap the fresh base's layer objects in place."""
        self._unwrap(self._base_wrapped)
        self._wrap_base(new_base)

    # -- public API ----------------------------------------------------

    def attach(self, fs) -> None:
        """Wrap a live :class:`RAEFilesystem` (supervisor dispatch, its
        base's layers, and the block device) and follow reboots."""
        if self._fs is not None:
            raise ValueError("LayerProfiler is already attached")
        self._fs = fs
        # fstat_ino is the one FilesystemAPI method that bypasses _call;
        # unwrapped, its vfs frame would land on an empty stack and be
        # counted as an operation of its own.
        for name in ("_call", "fstat_ino", "unmount"):
            self._wrap(self._wrapped, fs, name, "api")
        for name in _DEVICE_METHODS:
            self._wrap(self._wrapped, fs.device, name, "device")
        self._wrap_base(fs.base)
        fs.on_reboot.append(self._on_reboot)

    def detach(self) -> None:
        """Restore every wrapped method and stop following reboots.

        Safe to call from inside a wrapped frame (``unmount`` is one):
        the stack and the per-op accumulator are left alone, so the
        wrappers already running unwind normally and the operation in
        flight is attributed and counted like any other.
        """
        fs = self._fs
        if fs is None:
            return
        self._unwrap(self._base_wrapped)
        self._unwrap(self._wrapped)
        if self._on_reboot in fs.on_reboot:
            fs.on_reboot.remove(self._on_reboot)
        self._fs = None

    # -- export --------------------------------------------------------

    def collector_snapshot(self) -> dict:
        """Flat dict for the registry's ``prof.`` collector namespace."""
        snap: dict = {"ops": self.ops}
        for layer in LAYERS:
            snap[f"{layer}.self_seconds"] = self.self_seconds[layer]
            snap[f"{layer}.calls"] = self.calls[layer]
        return snap

    def layer_summary(self) -> dict:
        """Per-layer breakdown with a deterministic schema: every layer
        is always present, with per-op self-time percentiles from the
        ``layer.self.*`` histograms (``None`` before any op)."""
        total = sum(self.self_seconds.values())
        summary = {}
        for layer in LAYERS:
            hist = self._hists[layer]
            seconds = self.self_seconds[layer]
            summary[layer] = {
                "self_seconds": seconds,
                "calls": self.calls[layer],
                "share": (seconds / total) if total > 0 else 0.0,
                "p50": hist.percentile(0.50),
                "p95": hist.percentile(0.95),
                "p99": hist.percentile(0.99),
            }
        return summary
