"""Tests for the raeflow layer: CFG builder, dataflow solver, call graph,
and the three flow rules (SHADOW-REACH, REPLAY-DETERMINISM, LOCK-ORDER)
plus the CFG-upgraded LOCK-RELEASE."""

import ast
import textwrap

import pytest

from repro.analysis.engine import ParsedModule
from repro.analysis.flow.callgraph import FALLBACK_CAP, CallGraph
from repro.analysis.flow.cfg import build_cfg, function_defs
from repro.analysis.flow.dataflow import (
    BACKWARD,
    FORWARD,
    DataflowAnalysis,
    GenKillAnalysis,
    LocksetAnalysis,
    ReleaseOnAllPathsAnalysis,
    ordered_calls,
    solve,
)
from repro.analysis.rules.lock_order import LockOrderRule
from repro.analysis.rules.lock_release import LockReleaseRule
from repro.analysis.rules.replay_determinism import ReplayDeterminismRule
from repro.analysis.rules.shadow_reach import ShadowReachRule


def cfg_of(source: str):
    tree = ast.parse(textwrap.dedent(source))
    func = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))
    return func, build_cfg(func)


def stmt_node(cfg, func, marker: str):
    """The CFG node owning the first statement whose source contains ``marker``."""
    for stmt in ast.walk(func):
        if isinstance(stmt, ast.stmt):
            try:
                text = ast.unparse(stmt)
            except Exception:
                continue
            if marker in text.splitlines()[0]:
                node = cfg.node_of(stmt)
                if node is not None:
                    return node
    raise AssertionError(f"no CFG node for statement containing {marker!r}")


def parse_modules(files: dict[str, str]) -> list[ParsedModule]:
    return [ParsedModule.parse(path, textwrap.dedent(src)) for path, src in files.items()]


def findings_of(rule, files: dict[str, str]):
    modules = parse_modules(files)
    if hasattr(rule, "check_project"):
        return list(rule.check_project(modules))
    out = []
    for module in modules:
        out.extend(rule.check(module))
    return out


# ---------------------------------------------------------------------------
# CFG builder


class TestCFGBuilder:
    def test_try_except_else_finally(self):
        func, cfg = cfg_of("""
            def f():
                try:
                    body()
                except KeyError:
                    handler()
                else:
                    orelse()
                finally:
                    cleanup()
                after()
        """)
        body = stmt_node(cfg, func, "body()")
        handler = stmt_node(cfg, func, "handler()")
        orelse = stmt_node(cfg, func, "orelse()")
        cleanup = stmt_node(cfg, func, "cleanup()")
        after = stmt_node(cfg, func, "after()")
        # Normal path runs the else; exceptional path runs the handler;
        # both funnel through the finally before reaching the follow.
        assert cfg.has_path(body.index, orelse.index)
        assert cfg.has_path(body.index, handler.index)
        assert cfg.has_path(handler.index, cleanup.index)
        assert cfg.has_path(orelse.index, cleanup.index)
        assert cfg.has_path(cleanup.index, after.index)
        # after() cannot run without the finally.
        assert not any(
            succ == after.index for succ in body.succ | handler.succ | orelse.succ
        )
        # An else-clause exception reaches the finally, not this try's handler.
        assert not cfg.has_path(orelse.index, handler.index)

    def test_while_else_and_break(self):
        func, cfg = cfg_of("""
            def f(items):
                while cond():
                    if bad():
                        break
                    work()
                else:
                    exhausted()
                after()
        """)
        brk = stmt_node(cfg, func, "break")
        work = stmt_node(cfg, func, "work()")
        exhausted = stmt_node(cfg, func, "exhausted()")
        after = stmt_node(cfg, func, "after()")
        head = stmt_node(cfg, func, "while")
        # Normal exhaustion runs the else; break skips it.
        assert cfg.has_path(head.index, exhausted.index)
        assert after.index in cfg.nodes[brk.index].succ
        assert not cfg.has_path(brk.index, exhausted.index)
        # The loop body loops back to the header.
        assert cfg.has_path(work.index, head.index)

    def test_nested_function_bodies_are_opaque(self):
        func, cfg = cfg_of("""
            def f():
                before()
                def inner():
                    hidden()
                after()
        """)
        # hidden() belongs to inner's CFG, not f's.
        hidden_stmt = next(
            s for s in ast.walk(func) if isinstance(s, ast.Expr) and "hidden" in ast.unparse(s)
        )
        assert cfg.node_of(hidden_stmt) is None
        # But the def statement itself is a node on the path.
        inner_def = stmt_node(cfg, func, "def inner")
        assert cfg.has_path(stmt_node(cfg, func, "before()").index, inner_def.index)
        assert cfg.has_path(inner_def.index, stmt_node(cfg, func, "after()").index)
        # And inner's own CFG sees hidden().
        inner_func = next(n for n in ast.walk(func) if isinstance(n, ast.FunctionDef) and n.name == "inner")
        inner_cfg = build_cfg(inner_func)
        assert inner_cfg.node_of(hidden_stmt) is not None

    def test_with_multiple_context_managers(self):
        func, cfg = cfg_of("""
            def f():
                with open_a() as a, open_b() as b:
                    body()
        """)
        with_node = stmt_node(cfg, func, "with")
        assert with_node.kind == "with"
        exprs = [ast.unparse(p) for p in with_node.payload]
        assert any("open_a" in e for e in exprs)
        assert any("open_b" in e for e in exprs)
        assert cfg.has_path(with_node.index, stmt_node(cfg, func, "body()").index)

    def test_return_inside_finally(self):
        func, cfg = cfg_of("""
            def f():
                try:
                    body()
                finally:
                    return fallback()
                unreachable()
        """)
        ret = stmt_node(cfg, func, "return")
        assert cfg.has_path(stmt_node(cfg, func, "body()").index, ret.index)
        assert cfg.has_path(ret.index, cfg.exit)

    def test_return_routes_through_enclosing_finally(self):
        func, cfg = cfg_of("""
            def f():
                try:
                    return early()
                finally:
                    cleanup()
        """)
        ret = stmt_node(cfg, func, "return")
        cleanup = stmt_node(cfg, func, "cleanup()")
        # The return's continuation is the finally, not EXIT directly.
        assert cfg.exit not in cfg.nodes[ret.index].succ
        assert cfg.has_path(ret.index, cleanup.index)
        assert cfg.has_path(cleanup.index, cfg.exit)

    def test_every_statement_has_an_exceptional_edge(self):
        func, cfg = cfg_of("""
            def f():
                a()
                b()
        """)
        a = stmt_node(cfg, func, "a()")
        # a() may raise: EXIT is a direct successor alongside b().
        assert cfg.exit in a.succ
        assert stmt_node(cfg, func, "b()").index in a.succ


# ---------------------------------------------------------------------------
# dataflow solver


class _ReachingMarks(GenKillAnalysis):
    """Forward may-analysis: which mark(...) literals can have executed."""

    may = True
    direction = FORWARD

    def gen(self, node):
        out = set()
        for part in node.payload:
            for call in ast.walk(part):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "mark"
                ):
                    out.add(call.args[0].value)
        return frozenset(out)


class _CommitOnAllPaths(DataflowAnalysis[bool]):
    """Forward must-analysis: has a ``.commit(...)`` call executed on
    *every* path from entry to here?  Boolean lattice, AND-join."""

    direction = FORWARD

    def boundary(self):
        return False

    def initial(self):
        return True  # optimistic top; the AND-join erodes it

    def join(self, a, b):
        return a and b

    def transfer(self, node, value):
        return value or any(
            isinstance(call.func, ast.Attribute) and call.func.attr == "commit"
            for call in ordered_calls(node.payload)
        )


class TestDataflowSolver:
    def test_forward_may_union_at_join(self):
        func, cfg = cfg_of("""
            def f(c):
                if c:
                    mark("a")
                else:
                    mark("b")
                done()
        """)
        values = solve(cfg, _ReachingMarks())
        done = stmt_node(cfg, func, "done()")
        assert values[done.index].before == {"a", "b"}

    def test_forward_must_requires_all_paths(self):
        func, cfg = cfg_of("""
            def f(c):
                if c:
                    journal.commit(1)
                sink()
        """)
        values = solve(cfg, _CommitOnAllPaths())
        sink = stmt_node(cfg, func, "sink()")
        assert values[sink.index].before is False  # the else path skips the commit

    def test_forward_must_passes_on_straight_line(self):
        func, cfg = cfg_of("""
            def f():
                journal.commit(1)
                sink()
        """)
        values = solve(cfg, _CommitOnAllPaths())
        assert values[stmt_node(cfg, func, "sink()").index].before is True

    def test_backward_release_on_all_paths(self):
        func, cfg = cfg_of("""
            def f(self):
                try:
                    self.locks.acquire(1)
                    work()
                finally:
                    self.locks.release_all()
        """)
        analysis = ReleaseOnAllPathsAnalysis()
        assert analysis.direction == BACKWARD
        values = solve(cfg, analysis)
        acq = stmt_node(cfg, func, "acquire")
        assert values[acq.index].before is True

    def test_backward_fallthrough_release_misses_exceptional_path(self):
        func, cfg = cfg_of("""
            def f(self):
                self.locks.acquire(1)
                work()
                self.locks.release_all()
        """)
        values = solve(cfg, ReleaseOnAllPathsAnalysis())
        acq = stmt_node(cfg, func, "acquire")
        assert values[acq.index].before is False  # work() may raise past the release

    def test_lockset_union_join(self):
        func, cfg = cfg_of("""
            def f(self, c):
                if c:
                    self.locks.acquire(parent_ino)
                else:
                    self.locks.acquire(child_ino)
                probe()
        """)
        values = solve(cfg, LocksetAnalysis())
        probe = stmt_node(cfg, func, "probe()")
        assert values[probe.index].before == {"parent_ino", "child_ino"}

    def test_lockset_release_kills(self):
        func, cfg = cfg_of("""
            def f(self):
                self.locks.acquire(a)
                self.locks.release(a)
                probe()
        """)
        values = solve(cfg, LocksetAnalysis())
        assert values[stmt_node(cfg, func, "probe()").index].before == frozenset()


# ---------------------------------------------------------------------------
# call graph


class TestCallGraph:
    def test_typed_attribute_and_import_resolution(self):
        modules = parse_modules({
            "blockdev/device.py": """
                class Device:
                    def write_block(self, block, data):
                        pass
            """,
            "basefs/mgr.py": """
                from blockdev.device import Device

                class Manager:
                    def __init__(self):
                        self.device = Device()

                    def poke(self):
                        self.device.write_block(0, b"")
            """,
        })
        graph = CallGraph(modules)
        poke = "basefs/mgr.py::Manager.poke"
        assert "blockdev/device.py::Device.write_block" in graph.edges[poke]

    def test_reachability_and_chain(self):
        modules = parse_modules({
            "a.py": """
                def leaf():
                    pass

                def mid():
                    leaf()

                def top():
                    mid()
            """,
        })
        graph = CallGraph(modules)
        parents = graph.reachable(["a.py::top"])
        assert "a.py::leaf" in parents
        chain = graph.chain(parents, "a.py::leaf")
        assert chain == ["a.py::top", "a.py::mid", "a.py::leaf"]

    def test_loop_element_types_resolve_method_calls(self):
        modules = parse_modules({
            "ops.py": """
                class FsOp:
                    def apply(self, fs):
                        pass
            """,
            "driver.py": """
                from ops import FsOp

                def run_all(ops: list[FsOp]):
                    for index, op in enumerate(ops):
                        op.apply(None)
            """,
        })
        graph = CallGraph(modules)
        assert "ops.py::FsOp.apply" in graph.edges["driver.py::run_all"]

    def test_builtin_collection_methods_are_not_fallback_resolved(self):
        modules = parse_modules({
            "cachey.py": """
                class InodeCache:
                    def get(self, ino):
                        pass
            """,
            "user.py": """
                def f(mapping):
                    mapping.get(1)
            """,
        })
        graph = CallGraph(modules)
        assert graph.edges["user.py::f"] == set()

    def test_import_binding_is_independent_of_file_order(self):
        # Attribute types must resolve even when the importing module
        # sorts (and so parses) before the module defining the class;
        # import binding is a second pass over the full module set.
        modules = parse_modules({
            "basefs/aaa_user.py": """
                from basefs.zzz_table.fdtable import FdTable

                class Owner:
                    def __init__(self):
                        self.fd_table = FdTable()

                    def grab(self):
                        self.fd_table.allocate(3)
            """,
            "basefs/zzz_table/fdtable.py": """
                class FdTable:
                    def allocate(self, ino):
                        pass
            """,
        })
        graph = CallGraph(modules)
        assert (
            "basefs/zzz_table/fdtable.py::FdTable.allocate"
            in graph.edges["basefs/aaa_user.py::Owner.grab"]
        )


class TestFallbackCap:
    @staticmethod
    def _tree_with_candidates(count: int) -> dict[str, str]:
        files = {
            f"impl_{index}.py": f"""
                class Impl{index}:
                    def spin(self):
                        pass
            """
            for index in range(count)
        }
        files["caller.py"] = """
            def drive(obj):
                obj.spin()
        """
        return files

    def test_at_cap_links_every_candidate(self):
        graph = CallGraph(parse_modules(self._tree_with_candidates(FALLBACK_CAP)))
        assert graph.edges["caller.py::drive"] == {
            f"impl_{index}.py::Impl{index}.spin" for index in range(FALLBACK_CAP)
        }

    def test_over_cap_links_nothing(self):
        graph = CallGraph(parse_modules(self._tree_with_candidates(FALLBACK_CAP + 1)))
        assert graph.edges.get("caller.py::drive", set()) == set()

    def test_single_candidate_links(self):
        graph = CallGraph(parse_modules(self._tree_with_candidates(1)))
        assert graph.edges["caller.py::drive"] == {"impl_0.py::Impl0.spin"}

    def test_builtin_method_names_never_fallback_even_with_one_candidate(self):
        modules = parse_modules({
            "cachey.py": """
                class Journal:
                    def append(self, rec):
                        pass

                    def insert(self, index, rec):
                        pass
            """,
            "user.py": """
                def f(items, rec):
                    items.append(rec)
                    items.insert(0, rec)
            """,
        })
        graph = CallGraph(modules)
        assert graph.edges.get("user.py::f", set()) == set()

    def test_witness_chain_through_fallback_edge(self):
        modules = parse_modules({
            "impl.py": """
                class Engine:
                    def spin(self, device):
                        device.write_block(0, b"")
            """,
            "blockdev/device.py": """
                class Device:
                    def write_block(self, block, data):
                        pass
            """,
            "caller.py": """
                def drive(obj, device):
                    obj.spin(device)
            """,
        })
        graph = CallGraph(modules)
        parents = graph.reachable(["caller.py::drive"])
        target = "blockdev/device.py::Device.write_block"
        assert target in parents
        assert graph.chain(parents, target) == [
            "caller.py::drive",
            "impl.py::Engine.spin",
            target,
        ]


# ---------------------------------------------------------------------------
# SHADOW-REACH


SINK_MODULES = {
    "blockdev/device.py": """
        class Device:
            def write_block(self, block, data):
                pass

            def read_block(self, block):
                return b""
    """,
    "ondisk/util.py": """
        from blockdev.device import Device

        def poke(device: Device):
            device.write_block(0, b"")

        def peek(device: Device):
            return device.read_block(0)
    """,
}


class TestShadowReach:
    def test_transitive_device_write_is_flagged(self):
        files = dict(SINK_MODULES)
        files["shadowfs/fs.py"] = """
            from ondisk.util import poke

            class Shadow:
                def boom(self):
                    poke(self.dev)
        """
        findings = findings_of(ShadowReachRule(), files)
        assert [f.rule_id for f in findings] == ["SHADOW-REACH"]
        assert findings[0].path == "shadowfs/fs.py"
        assert "poke" in findings[0].message
        assert "write_block" in findings[0].message

    def test_spec_code_is_protected_too(self):
        files = dict(SINK_MODULES)
        files["spec/verifier.py"] = """
            from ondisk.util import poke

            def check(dev):
                poke(dev)
        """
        findings = findings_of(ShadowReachRule(), files)
        assert [f.rule_id for f in findings] == ["SHADOW-REACH"]
        assert findings[0].path == "spec/verifier.py"

    def test_read_only_chain_passes(self):
        files = dict(SINK_MODULES)
        files["shadowfs/fs.py"] = """
            from ondisk.util import peek

            class Shadow:
                def scan(self):
                    return peek(self.dev)
        """
        assert findings_of(ShadowReachRule(), files) == []

    def test_cache_mutation_reach_is_flagged(self):
        files = {
            "basefs/inode_cache.py": """
                class InodeCache:
                    def insert(self, ino, inode):
                        pass
            """,
            "basefs/helper.py": """
                from basefs.inode_cache import InodeCache

                def warm(cache: InodeCache):
                    cache.insert(1, None)
            """,
            "shadowfs/fs.py": """
                from basefs.helper import warm

                def hydrate(cache):
                    warm(cache)
            """,
        }
        findings = findings_of(ShadowReachRule(), files)
        assert [f.rule_id for f in findings] == ["SHADOW-REACH"]
        assert "cache mutation" in findings[0].message


# ---------------------------------------------------------------------------
# REPLAY-DETERMINISM


class TestReplayDeterminism:
    def test_time_call_in_replay_closure_is_flagged(self):
        files = {
            "shadowfs/replay.py": """
                import time

                class ReplayEngine:
                    def run(self, records):
                        for record in records:
                            self._one(record)

                    def _one(self, record):
                        started = time.monotonic()
                        return started
            """,
        }
        findings = findings_of(ReplayDeterminismRule(), files)
        assert [f.rule_id for f in findings] == ["REPLAY-DETERMINISM"]
        assert "time.monotonic" in findings[0].message
        assert "ReplayEngine.run" in findings[0].message  # witness chain

    def test_from_import_binding_is_flagged(self):
        files = {
            "shadowfs/replay.py": """
                from random import randint

                class Replayer:
                    def run(self):
                        return randint(0, 7)
            """,
        }
        findings = findings_of(ReplayDeterminismRule(), files)
        assert [f.rule_id for f in findings] == ["REPLAY-DETERMINISM"]
        assert "randint" in findings[0].message

    def test_set_iteration_is_flagged_and_sorted_is_not(self):
        files = {
            "shadowfs/filesystem.py": """
                class ShadowFilesystem:
                    def __init__(self):
                        self._orphans: set[int] = set()

                    def bad(self):
                        return [ino for ino in self._orphans]

                    def good(self):
                        return [ino for ino in sorted(self._orphans)]
            """,
        }
        findings = findings_of(ReplayDeterminismRule(), files)
        assert [f.rule_id for f in findings] == ["REPLAY-DETERMINISM"]
        assert "unordered set" in findings[0].message
        assert "_orphans" in findings[0].message

    def test_clean_replay_passes(self):
        files = {
            "shadowfs/replay.py": """
                class ReplayEngine:
                    def run(self, records):
                        return [self._one(r) for r in records]

                    def _one(self, record):
                        return sorted({record.seq})
            """,
        }
        assert findings_of(ReplayDeterminismRule(), files) == []

    def test_nondeterminism_outside_the_closure_is_not_flagged(self):
        files = {
            "shadowfs/replay.py": """
                class ReplayEngine:
                    def run(self):
                        return 1
            """,
            "bench/timer.py": """
                import time

                def now():
                    return time.time()
            """,
        }
        assert findings_of(ReplayDeterminismRule(), files) == []


# ---------------------------------------------------------------------------
# LOCK-ORDER


class TestLockOrder:
    def test_nested_acquire_without_sanction_is_flagged(self):
        files = {
            "basefs/filesystem.py": """
                class Fs:
                    def rmdir(self, parent_ino, child_ino):
                        try:
                            self.locks.acquire(parent_ino)
                            self.locks.acquire(child_ino)
                            self._remove(parent_ino, child_ino)
                        finally:
                            self.locks.release_all()
            """,
        }
        findings = findings_of(LockOrderRule(), files)
        assert [f.rule_id for f in findings] == ["LOCK-ORDER"]
        assert "parent_ino" in findings[0].message  # the held set
        assert "child_ino" in findings[0].message  # the nested acquire

    def test_parent_sanction_passes(self):
        files = {
            "basefs/filesystem.py": """
                class Fs:
                    def rmdir(self, parent_ino, child_ino):
                        try:
                            self.locks.acquire(parent_ino)
                            self.locks.acquire(child_ino, parent=parent_ino)
                            self._remove(parent_ino, child_ino)
                        finally:
                            self.locks.release_all()
            """,
        }
        assert findings_of(LockOrderRule(), files) == []

    def test_acquire_pair_first_passes_but_pair_under_held_is_flagged(self):
        files = {
            "basefs/filesystem.py": """
                class Fs:
                    def rename(self, a, b):
                        try:
                            self.locks.acquire_pair(a, b)
                            self._move(a, b)
                        finally:
                            self.locks.release_all()

                    def bad_rename(self, root, a, b):
                        try:
                            self.locks.acquire(root)
                            self.locks.acquire_pair(a, b)
                            self._move(a, b)
                        finally:
                            self.locks.release_all()
            """,
        }
        findings = findings_of(LockOrderRule(), files)
        assert len(findings) == 1
        assert findings[0].line > 0
        assert "acquire_pair" in findings[0].message

    def test_release_between_acquires_passes(self):
        files = {
            "basefs/filesystem.py": """
                class Fs:
                    def twice(self, a, b):
                        try:
                            self.locks.acquire(a)
                            self._work(a)
                        finally:
                            self.locks.release_all()
                        try:
                            self.locks.acquire(b)
                            self._work(b)
                        finally:
                            self.locks.release_all()
            """,
        }
        assert findings_of(LockOrderRule(), files) == []

    def test_rule_is_scoped_to_basefs(self):
        files = {
            "tools/helper.py": """
                def nested(locks, a, b):
                    locks.acquire(a)
                    locks.acquire(b)
            """,
        }
        assert findings_of(LockOrderRule(), files) == []


# ---------------------------------------------------------------------------
# LOCK-RELEASE (CFG upgrade + with-form, satellite 3)


class TestLockReleaseCfg:
    def test_with_managed_acquire_passes(self):
        files = {
            "fs.py": """
                def mkdir(self, path):
                    with self.locks.acquire(2):
                        self._insert(path)
            """,
        }
        assert findings_of(LockReleaseRule(), files) == []

    def test_acquire_inside_unrelated_with_is_flagged(self):
        files = {
            "fs.py": """
                def mkdir(self, path):
                    with self._span("mkdir"):
                        self.locks.acquire(2)
                        self._insert(path)
            """,
        }
        findings = findings_of(LockReleaseRule(), files)
        assert [f.rule_id for f in findings] == ["LOCK-RELEASE"]

    def test_straight_line_release_misses_the_acquire_failure_path(self):
        files = {
            "fs.py": """
                def op(self, c):
                    self.locks.acquire_pair(2, 3)
                    self.locks.release_all()
            """,
        }
        # acquire_pair can raise after taking its first lock; without a
        # finally, that unwinding path skips the release.
        findings = findings_of(LockReleaseRule(), files)
        assert [f.rule_id for f in findings] == ["LOCK-RELEASE"]

    def test_module_level_acquire_is_still_checked(self):
        files = {
            "fs.py": """
                locks.acquire(1)
            """,
        }
        findings = findings_of(LockReleaseRule(), files)
        assert [f.rule_id for f in findings] == ["LOCK-RELEASE"]
        assert "module level" in findings[0].message
