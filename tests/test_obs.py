"""Tests for repro.obs: metrics, tracing, supervisor wiring, purity."""

import ast
import json
from pathlib import Path

import pytest

from repro.api import OpResult, OpenFlags, op
from repro.basefs.filesystem import BaseFilesystem
from repro.basefs.hooks import HookPoints
from repro.core.supervisor import RAEConfig, RAEFilesystem
from repro.errors import FsError, KernelBug
from repro.obs import Registry, Tracer
from repro.obs.metrics import Histogram
from tests.conftest import formatted_device
from tests.test_core_supervisor import crash_on_name

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


class FakeClock:
    """Deterministic injected clock: advances by `step` per call."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


# ---------------------------------------------------------------------------
# Histogram bucketing


class TestHistogram:
    def test_log_scale_bucket_edges(self):
        hist = Histogram("h", lo=1.0, factor=2.0, buckets=4)
        assert hist.boundaries == [1.0, 2.0, 4.0, 8.0]
        hist.observe(0.5)  # below lo -> first bucket (le 1.0)
        hist.observe(1.0)  # exactly on a boundary -> that bucket (le semantics)
        hist.observe(1.0000001)  # just past -> next bucket
        hist.observe(8.0)  # top boundary -> last finite bucket
        hist.observe(8.0000001)  # past the top -> +inf overflow
        assert hist.bucket_counts == [2, 1, 0, 1]
        assert hist.overflow == 1
        assert hist.count == 5
        assert hist.min == 0.5
        assert hist.max == pytest.approx(8.0000001)
        assert hist.sum == pytest.approx(0.5 + 1.0 + 1.0000001 + 8.0 + 8.0000001)

    def test_snapshot_buckets_are_labelled(self):
        hist = Histogram("h", lo=1.0, factor=2.0, buckets=2)
        hist.observe(1.5)
        snap = hist.snapshot()
        assert snap["buckets"] == [["1", 0], ["2", 1], ["+inf", 0]]
        assert snap["count"] == 1

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", lo=0.0)
        with pytest.raises(ValueError):
            Histogram("h", factor=1.0)
        with pytest.raises(ValueError):
            Histogram("h", buckets=0)


# ---------------------------------------------------------------------------
# Registry


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = Registry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_counters_gauges_in_snapshot(self):
        reg = Registry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(2)
        reg.gauge("depth").set(7.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"hits": 3}
        assert snap["gauges"] == {"depth": 7.5}
        assert snap["enabled"] is True

    def test_disabled_registry_hands_out_null_instruments(self):
        reg = Registry(enabled=False)
        reg.counter("hits").inc(100)
        reg.gauge("depth").set(9)
        reg.histogram("lat").observe(1.0)
        snap = reg.snapshot()
        assert snap["enabled"] is False
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_collectors_namespaced_and_replaceable(self):
        reg = Registry()
        reg.register_collector("cache", lambda: {"hits": 1})
        assert reg.collect() == {"cache.hits": 1}
        reg.register_collector("cache", lambda: {"hits": 5, "misses": 2})
        assert reg.collect() == {"cache.hits": 5, "cache.misses": 2}

    def test_to_json_round_trips(self):
        reg = Registry(clock=FakeClock())
        reg.counter("c").inc()
        with reg.tracer.span("phase"):
            pass
        parsed = json.loads(reg.to_json())
        assert parsed["counters"] == {"c": 1}
        assert parsed["spans"][0]["name"] == "phase"
        assert parsed["spans"][0]["duration"] == 1.0


# ---------------------------------------------------------------------------
# Tracer


class TestTracer:
    def test_spans_with_injected_clock(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner", detail=1):
                pass
        outer, inner = tracer.events
        assert (outer.name, outer.depth) == ("outer", 0)
        assert (inner.name, inner.depth) == ("inner", 1)
        # clock ticks: outer start=1, inner start=2, inner end=3, outer end=4
        assert inner.duration == 1.0
        assert outer.duration == 3.0
        assert inner.attrs == {"detail": 1}

    def test_error_marks_span_and_propagates(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(KernelBug):
            with tracer.span("doomed"):
                raise KernelBug("boom")
        (event,) = tracer.events
        assert event.attrs["error"] == "KernelBug"
        assert event.end is not None

    def test_event_ring_is_bounded(self):
        tracer = Tracer(clock=FakeClock(), limit=3)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        assert [e.name for e in tracer.events] == ["s7", "s8", "s9"]

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(clock=FakeClock(), enabled=False)
        with tracer.span("ghost") as event:
            assert event is None
        assert len(tracer.events) == 0

    def test_timeline_renders_depth_and_attrs(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("recovery", kind="bug"):
            with tracer.span("recovery.reboot"):
                pass
        text = tracer.timeline()
        lines = text.splitlines()
        assert lines[0].startswith("recovery ") and "kind=bug" in lines[0]
        assert lines[1].startswith("  recovery.reboot ")


# ---------------------------------------------------------------------------
# Supervisor wiring


class TestSupervisorObs:
    def test_op_latency_and_errno_counters(self, device, hooks):
        rae = RAEFilesystem(device, RAEConfig(), hooks=hooks)
        rae.mkdir("/a")
        with pytest.raises(FsError):
            rae.rmdir("/missing")
        snap = rae.obs.snapshot()
        assert snap["counters"]["op.count.mkdir"] == 1
        assert snap["counters"]["op.errno.ENOENT"] == 1
        assert snap["histograms"]["op.latency.mkdir"]["count"] == 1
        assert snap["histograms"]["op.latency.rmdir"]["count"] == 1

    def test_snapshot_covers_every_subsystem(self, device, hooks):
        crash_on_name(hooks, "evil")
        rae = RAEFilesystem(device, RAEConfig(), hooks=hooks)
        rae.mkdir("/evil-dir")  # forces a recovery
        assert rae.recovery_count == 1
        collected = rae.obs.snapshot()["collected"]
        prefixes = {name.split(".")[0] for name in collected}
        assert {"op", "oplog", "cache", "journal", "writeback", "device", "blkmq",
                "detector", "recovery"} <= prefixes
        assert collected["recovery.successes"] == 1
        assert collected["recovery.phase.total.mean_seconds"] > 0
        assert collected["device.reads"] > 0
        assert collected["journal.commits"] > 0

    def test_recovery_yields_complete_span_timeline(self, device, hooks):
        crash_on_name(hooks, "evil")
        rae = RAEFilesystem(device, RAEConfig(), hooks=hooks)
        rae.mkdir("/evil-dir")
        events = {e.name: e for e in rae.obs.tracer.events}
        assert set(events) == {
            "recovery", "recovery.reboot", "recovery.replay",
            "recovery.handoff", "recovery.post-commit",
        }
        assert events["recovery"].depth == 0
        for child in ("recovery.reboot", "recovery.replay", "recovery.handoff",
                      "recovery.post-commit"):
            assert events[child].depth == 1
        for event in events.values():
            assert event.end is not None and event.duration >= 0
        assert events["recovery"].attrs["kind"] == "bug"
        assert events["recovery.replay"].attrs["inflight"] is True

    def test_nested_recovery_spans_nest(self, device, hooks):
        """A bug during the post-recovery commit triggers a nested
        recovery: its span must sit *inside* the parent's post-commit."""
        crash_on_name(hooks, "evil")
        fired = {"n": 0}

        def commit_bug(point, ctx):
            fired["n"] += 1
            if fired["n"] == 1:
                raise KernelBug("post-recovery commit crash")

        hooks.register("journal.commit", commit_bug)
        rae = RAEFilesystem(device, RAEConfig(), hooks=hooks)
        rae.mkdir("/evil-dir")  # recovery -> post-commit crash -> nested recovery
        assert rae.recovery_count == 2
        recoveries = [e for e in rae.obs.tracer.events if e.name == "recovery"]
        assert len(recoveries) == 2
        outer, nested = recoveries
        assert outer.depth == 0 and outer.attrs["nesting"] == 0
        assert nested.depth == 2 and nested.attrs["nesting"] == 1  # inside post-commit
        post_commits = [e for e in rae.obs.tracer.events if e.name == "recovery.post-commit"]
        assert len(post_commits) == 2  # outer's (containing the nested) + nested's own
        # Nested recovery started while the outer post-commit was open.
        outer_post = post_commits[0]
        assert outer_post.start <= nested.start and nested.end <= outer_post.end

    def test_metrics_disabled_records_nothing(self, device, hooks):
        rae = RAEFilesystem(device, RAEConfig(metrics=False), hooks=hooks)
        rae.mkdir("/a")
        snap = rae.obs.snapshot()
        assert snap["enabled"] is False
        assert snap["counters"] == {} and snap["histograms"] == {}
        assert snap["spans"] == []
        # Collectors still answer (they read existing stats), so reports work.
        assert snap["collected"]["op.total"] == 1

    def test_injected_registry_and_clock(self, device, hooks):
        clock = FakeClock(step=0.5)
        # profile=False: the layer profiler's wrappers read the same
        # injected clock, which would add steps inside the measured op.
        rae = RAEFilesystem(
            device, RAEConfig(profile=False), hooks=hooks, obs=Registry(clock=clock)
        )
        reads_before = clock.now / clock.step
        rae.mkdir("/a")
        hist = rae.obs.snapshot()["histograms"]["op.latency.mkdir"]
        assert hist["count"] == 1
        assert hist["sum"] == pytest.approx(0.5)  # exactly one clock step
        # One clock pair per supervised op: the end reading is also the
        # flight entry's timestamp.
        assert clock.now / clock.step - reads_before == 2
        rae.stat("/a")
        assert clock.now / clock.step - reads_before == 4
        assert [entry.ts for entry in rae.flight.freeze("probe").entries] == [1.0, 2.0]

    def test_flight_alone_reads_the_clock_once_per_op(self, device, hooks):
        clock = FakeClock()
        rae = RAEFilesystem(
            device, RAEConfig(profile=False), hooks=hooks, obs=Registry(enabled=False, clock=clock)
        )
        rae.mkdir("/a")
        rae.stat("/a")
        assert clock.now == 2.0
        quiet = RAEFilesystem(
            formatted_device(), RAEConfig(profile=False, flight=False),
            obs=Registry(enabled=False, clock=clock),
        )
        quiet.mkdir("/a")
        assert clock.now == 2.0  # metrics off, flight off: no clock at all

    def test_instruments_belong_to_their_supervisor(self, device, hooks):
        """Per-name instruments are bound per supervisor, in its own
        registry: two supervisors never share a count, and one without
        metrics never creates an instrument."""
        first = RAEFilesystem(device, RAEConfig(), hooks=hooks)
        second = RAEFilesystem(formatted_device(), RAEConfig())
        silent = RAEFilesystem(formatted_device(), RAEConfig(metrics=False))
        for _ in range(3):
            first.stat("/")
        second.stat("/")
        silent.stat("/")
        assert first.obs.snapshot()["counters"]["op.count.stat"] == 3
        assert second.obs.snapshot()["counters"]["op.count.stat"] == 1
        assert first.obs.snapshot()["histograms"]["op.latency.stat"]["count"] == 3
        assert "op.count.mkdir" not in first.obs.snapshot()["counters"]  # bound on first use only
        snap = silent.obs.snapshot()
        assert snap["counters"] == {} and snap["histograms"] == {}
        assert silent._op_instruments == {}

    def test_bound_instruments_survive_a_contained_reboot(self, device, hooks):
        crash_on_name(hooks, "evil")
        rae = RAEFilesystem(device, RAEConfig(), hooks=hooks)
        rae.mkdir("/before")
        rae.mkdir("/evil-dir")  # recovery swaps the base under the bound pair
        assert rae.recovery_count == 1
        rae.mkdir("/after")
        snap = rae.obs.snapshot()
        assert snap["counters"]["op.count.mkdir"] == 3
        assert snap["histograms"]["op.latency.mkdir"]["count"] == 3
        assert rae.obs.counter("op.count.mkdir") is rae._op_instruments["mkdir"][1]

    def test_errno_counters_appear_per_errno(self, device, hooks):
        rae = RAEFilesystem(device, RAEConfig(), hooks=hooks)
        rae.mkdir("/a")
        for _ in range(2):
            with pytest.raises(FsError):
                rae.rmdir("/missing")
        with pytest.raises(FsError):
            rae.mkdir("/a")
        with pytest.raises(FsError):
            rae.close(99)
        counters = rae.obs.snapshot()["counters"]
        assert {name: n for name, n in counters.items() if name.startswith("op.errno.")} == {
            "op.errno.ENOENT": 2, "op.errno.EEXIST": 1, "op.errno.EBADF": 1,
        }
        assert counters["op.count.rmdir"] == 2 and counters["op.count.mkdir"] == 2

    def test_differential_metrics_on_off_same_filesystem_state(self):
        """Instrumentation must be observationally free: identical op
        streams with metrics on vs off end in byte-identical images."""
        from repro.workloads import WorkloadGenerator, varmail_profile

        images = []
        for metrics in (True, False):
            device = formatted_device(4096)
            hooks = HookPoints()
            crash_on_name(hooks, "evil")
            rae = RAEFilesystem(
                device, RAEConfig(metrics=metrics), hooks=hooks
            )
            for index, operation in enumerate(
                WorkloadGenerator(varmail_profile(), seed=11).ops(120)
            ):
                operation.apply(rae, opseq=index + 1)
            rae.mkdir("/evil-dir")  # fault-injected recovery in both runs
            assert rae.recovery_count == 1
            rae.unmount()
            images.append(device.snapshot())
        assert images[0] == images[1]


# ---------------------------------------------------------------------------
# Shadow purity: no repro.obs anywhere in the replay closure


def _module_name(path: Path) -> str:
    rel = path.relative_to(SRC_ROOT.parent)  # e.g. repro/obs/trace.py
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _repro_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.startswith("repro"))
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("repro"):
            found.add(node.module)
    return found


class TestShadowStaysInstrumentationFree:
    def test_obs_unreachable_from_shadowfs_and_spec(self):
        """Transitive import closure from shadowfs/ and spec/ must never
        touch repro.obs (REPLAY-DETERMINISM: no clocks in the replay
        closure)."""
        graph: dict[str, set[str]] = {}
        for path in SRC_ROOT.rglob("*.py"):
            graph[_module_name(path)] = _repro_imports(path)

        def resolve(name: str) -> set[str]:
            # an import of repro.a.b depends on repro.a.b and repro.a
            targets = set()
            parts = name.split(".")
            for end in range(len(parts), 1, -1):
                prefix = ".".join(parts[:end])
                if prefix in graph:
                    targets.add(prefix)
            return targets

        roots = [m for m in graph if m.startswith(("repro.shadowfs", "repro.spec"))]
        assert roots, "shadowfs/spec modules not found — did the tree move?"
        seen: set[str] = set()
        frontier = list(roots)
        while frontier:
            module = frontier.pop()
            if module in seen:
                continue
            seen.add(module)
            for imported in graph.get(module, ()):
                frontier.extend(resolve(imported))
        offenders = sorted(m for m in seen if m.startswith("repro.obs"))
        assert not offenders, (
            f"repro.obs is reachable from the replay closure via {offenders}; "
            "the shadow must stay instrumentation-free"
        )

    def test_forensics_modules_exist_and_stay_out_of_the_closure(self):
        """The forensics subsystem (events, flight recorder, bundles,
        profiler) must be present in the scanned tree — a rename
        would silently drop it from the transitive check above — and
        must never be imported, even indirectly, from shadowfs/ or
        spec/.  The divergence capture runs supervisor-side via the
        engine's ``_crosscheck`` seam; the shadow itself gains no
        observability imports."""
        forensics_modules = {
            "repro.obs.events",
            "repro.obs.flight",
            "repro.obs.forensics",
            "repro.obs.prof",
            "repro.obs.prof.profiler",
        }
        graph = {
            _module_name(path): _repro_imports(path)
            for path in SRC_ROOT.rglob("*.py")
        }
        missing = forensics_modules - set(graph)
        assert not missing, f"forensics modules moved or deleted: {sorted(missing)}"
        shadow_modules = {
            m: imports for m, imports in graph.items()
            if m.startswith(("repro.shadowfs", "repro.spec"))
        }
        for module, imports in shadow_modules.items():
            hits = imports & forensics_modules
            assert not hits, f"{module} imports forensics modules {sorted(hits)}"

    def test_artifact_gate_module_is_gone(self):
        """``repro.obs.check`` policed the two ``BENCH_*.json`` artifacts
        retired with rae-bench; nothing re-exports it."""
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.obs.check")

    def test_lint_rule_flags_obs_import_in_shadowfs(self, tmp_path):
        from tests.test_static_analysis import analyze_tree, write_tree
        from repro.analysis.rules.shadow_purity import ShadowPurityRule

        root = write_tree(tmp_path, {
            "shadowfs/sneaky.py": """
                from repro.obs import Registry

                def observe():
                    return Registry()
            """,
        })
        report = analyze_tree(root, rules=[ShadowPurityRule()])
        assert any("repro.obs" in f.message for f in report.findings)


# ---------------------------------------------------------------------------
# Export


class TestExport:
    def test_write_snapshot(self, tmp_path):
        from repro.obs import write_snapshot

        reg = Registry(clock=FakeClock())
        reg.counter("c").inc()
        path = write_snapshot(str(tmp_path / "snap.json"), reg, meta={"run": 1})
        payload = json.loads(Path(path).read_text())
        assert payload["meta"] == {"run": 1}
        assert payload["snapshot"]["counters"] == {"c": 1}

    def test_write_snapshot_is_crash_safe(self, tmp_path):
        """write_snapshot goes through atomic_write_json: a payload that
        fails to serialize must leave an existing snapshot untouched and
        no temp file behind (serialization happens before the target is
        touched; replacement is a single os.replace)."""
        from repro.obs import write_snapshot

        target = tmp_path / "snap.json"
        target.write_text('{"old": true}')
        reg = Registry(clock=FakeClock())
        with pytest.raises(TypeError):
            write_snapshot(str(target), reg, meta={"bad": object()})
        assert json.loads(target.read_text()) == {"old": True}
        assert list(tmp_path.iterdir()) == [target]
