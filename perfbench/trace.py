"""Span tracing from outside the program.

The benchmark's own tracer: it wraps the public functions at each layer
boundary — patched on the *class or module*, so the fresh objects a
contained reboot builds are traced without re-wrapping — and restores
every one of them afterwards.  Nothing under ``src/`` is edited and
nothing here runs during the end-to-end pass.

Each call records one span ``(layer, start, end, parent, op, note)``
in memory: ``parent`` is the index of the span that was running when it
started, ``op`` the top-level operation both belong to, ``note`` an
optional count taken at the boundary.  A layer's *self time* is its
spans' durations minus the part their child spans cover, so the self
times of all layers sum exactly to the traced duration of the top-level
spans.  The wrappers' own cost lands in the self time of the caller;
``harness.trace_overhead_ratio`` states how large it is.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import repro.core.recovery as recovery_module
import repro.core.supervisor as supervisor_module
from repro.basefs import BaseFilesystem
from repro.basefs.allocator import BlockAllocator, InodeAllocator
from repro.basefs.dentry_cache import DentryCache
from repro.basefs.inode_cache import InodeCache
from repro.basefs.journal_mgr import JournalManager
from repro.basefs.page_cache import PageCache
from repro.basefs.writeback import WritebackDaemon
from repro.blockdev import BlockMQ, BufferCache, MemoryBlockDevice
from repro.core.oplog import OpLog
from repro.core.supervisor import RAEFilesystem
from repro.shadowfs import ReplayEngine, ShadowFilesystem

API_OPS = (
    "mkdir", "rmdir", "unlink", "rename", "link", "symlink", "readlink", "readdir",
    "stat", "lstat", "truncate", "open", "close", "read", "write", "lseek", "fsync",
)

#: (owner, attributes, layer).  A layer is named after the module whose
#: work its self time is; ``api`` also owns the top-level span the
#: harness opens around ``FsOp.apply``.
BOUNDARIES = (
    (RAEFilesystem, API_OPS, "api"),
    (OpLog, ("record", "truncate"), "core.oplog"),
    (BaseFilesystem, API_OPS + ("fstat_ino",), "basefs.filesystem"),
    (BaseFilesystem, ("commit",), "basefs.commit"),
    (WritebackDaemon, ("tick",), "basefs.writeback"),
    (JournalManager, ("commit",), "basefs.journal_mgr"),
    (
        DentryCache,
        ("lookup", "insert", "insert_negative", "invalidate", "invalidate_dir", "invalidate_ino"),
        "basefs.dentry_cache",
    ),
    (InodeCache, ("get", "insert"), "basefs.inode_cache"),
    (PageCache, ("lookup", "install", "dirty_pages", "mark_clean"), "basefs.page_cache"),
    (BlockAllocator, ("allocate", "free", "apply_pending_frees"), "basefs.allocator"),
    (InodeAllocator, ("allocate", "free"), "basefs.allocator"),
    (BufferCache, ("read", "write", "writeback"), "blockdev.cache"),
    (BlockMQ, ("submit", "pump", "drain"), "blockdev.blkmq"),
    (MemoryBlockDevice, ("read_block", "write_block", "flush"), "blockdev.device"),
    (recovery_module, ("contained_reboot",), "core.reboot"),
    (ShadowFilesystem, ("__init__",), "shadowfs.mount"),
    (ReplayEngine, ("run",), "shadowfs.replay"),
    (recovery_module, ("download_metadata",), "core.handoff"),
    (supervisor_module, ("build_bundle",), "obs.forensics"),
)

LAYERS = tuple(dict.fromkeys(layer for _owner, _attrs, layer in BOUNDARIES))


def _window_note(oplog, *_args):
    """Counts at the ``OpLog.truncate`` boundary: the window being
    dropped, in entries and approximate bytes."""
    return (len(oplog.entries), oplog.approximate_bytes())


NOTES = {(OpLog, "truncate"): _window_note}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self._stack: list[int] = [-1]
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str, note=None) -> None:
        """Replace ``owner.attr`` (a class's method or a module's
        function) with a span-recording wrapper until :meth:`uninstall`."""
        original = vars(owner)[attr]
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            noted = note(*args) if note is not None else None
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self._op, noted)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        for owner, attrs, layer in BOUNDARIES:
            for attr in attrs:
                self.wrap(owner, attr, layer, NOTES.get((owner, attr)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *_exc) -> None:
        self.uninstall()

    # -- top-level operations ------------------------------------------

    def run_op(self, op_id: int, layer: str, call, *args):
        """Run ``call(*args)`` as the top-level span of operation
        ``op_id``; returns its result."""
        spans, stack, clock = self.spans, self._stack, self.clock
        self._op = op_id
        index = len(spans)
        spans.append(None)
        stack.append(index)
        start = clock()
        try:
            return call(*args)
        finally:
            end = clock()
            stack.pop()
            spans[index] = (layer, start, end, -1, op_id, None)
            self._op = -1

    # -- analysis ------------------------------------------------------

    def summary(self, first_op: int, end_op: int) -> "TraceSummary":
        return TraceSummary(self.spans, first_op, end_op)

    def write(self, path: str) -> None:
        """One JSON line per span, in start order."""
        with open(path, "w") as out:
            for index, (layer, start, end, parent, op_id, noted) in enumerate(self.spans):
                record = {"id": index, "layer": layer, "start": start, "end": end,
                          "parent": parent, "op": op_id}
                if noted is not None:
                    record["note"] = noted
                out.write(json.dumps(record) + "\n")


class TraceSummary:
    """Self time, call counts and inclusive durations per layer, over the
    spans of the top-level operations ``first_op <= op < end_op``."""

    def __init__(self, spans: list[tuple], first_op: int, end_op: int):
        covered = [0.0] * len(spans)
        for _layer, start, end, parent, _op, _note in spans:
            if parent >= 0:
                covered[parent] += end - start
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.notes: dict[str, list] = defaultdict(list)
        self.top_level_s = 0.0
        self.ops = 0
        for index, (layer, start, end, parent, op_id, noted) in enumerate(spans):
            if not first_op <= op_id < end_op:
                continue
            duration = end - start
            self.self_s[layer] += duration - covered[index]
            if parent < 0:
                self.top_level_s += duration
                self.ops += 1
            else:
                # The harness's top-level span is not a call into the layer.
                self.calls[layer] += 1
                self.durations[layer].append(duration)
            if noted is not None:
                self.notes[layer].append(noted)

    @property
    def self_total_s(self) -> float:
        return sum(self.self_s.values())
