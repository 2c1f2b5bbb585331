"""The concurrency rule family on seeded synthetic trees.

Mutation-style validation: every rule fires on at least two distinct
seeded bugs with the right file/line witness, stays silent on the clean
twin, and the declared-spec machinery (registry seeding, sentinel
sanctions, config errors) behaves per docs/STATIC_ANALYSIS.md.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_tree
from repro.analysis.cli import main as raelint_main
from repro.analysis.concurrency import ConcurrencyConfigError, model_for
from repro.analysis.engine import ParsedModule
from repro.analysis.rules import (
    AtomicRmwRule,
    RaceLocksetRule,
)


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return tmp_path


def parse_tree(files: dict[str, str]) -> list[ParsedModule]:
    return [ParsedModule.parse(path, textwrap.dedent(src)) for path, src in files.items()]


def rule_ids(report) -> list[str]:
    return [finding.rule_id for finding in report.findings]


#: Registry + one guarded and one sanctioned attribute, shared by the
#: lockset fixtures.
SPEC = """
    SHARED_CLASSES = ("Counter",)
    GUARDED_BY = {
        "Counter.value": "self._lock",
        "Counter.tag": "<single-threaded>",
    }
"""

COUNTER = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.value = 0
            self.items = []
            self.tag = None
"""


def counter_file(suffix: str) -> str:
    """COUNTER plus extra top-level code; both parts dedent
    independently so the literals can live at different indents."""
    return textwrap.dedent(COUNTER) + textwrap.dedent(suffix)


# ---------------------------------------------------------------------------
# RACE-LOCKSET


class TestRaceLockset:
    def test_write_without_declared_guard_is_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "spec/concurrency.py": SPEC,
            "core/counter.py": counter_file("""
                def reset(c: Counter):
                    c.value = 0
            """),
        })
        report = analyze_tree(root, rules=[RaceLocksetRule()])
        assert rule_ids(report) == ["RACE-LOCKSET"]
        finding = report.findings[0]
        assert finding.path == "core/counter.py"
        assert finding.line == 12  # the unguarded c.value write
        assert "'self._lock'" in finding.message

    def test_write_with_no_guard_declaration_is_flagged(self, tmp_path):
        # Second seeded bug: a *different* attribute, mutated through a
        # container method, with no GUARDED_BY entry at all.
        root = write_tree(tmp_path, {
            "spec/concurrency.py": SPEC,
            "core/counter.py": counter_file("""
                def record(c: Counter, item):
                    with c._lock:
                        c.items.append(item)
            """),
        })
        report = analyze_tree(root, rules=[RaceLocksetRule()])
        assert rule_ids(report) == ["RACE-LOCKSET"]
        finding = report.findings[0]
        assert finding.path == "core/counter.py"
        assert finding.line == 13  # the append() mutation
        assert "no GUARDED_BY declaration" in finding.message

    def test_write_under_with_lock_passes(self, tmp_path):
        root = write_tree(tmp_path, {
            "spec/concurrency.py": SPEC,
            "core/counter.py": counter_file("""
                def reset(c: Counter):
                    with c._lock:
                        c.value = 0
            """),
        })
        assert rule_ids(analyze_tree(root, rules=[RaceLocksetRule()])) == []

    def test_write_between_manual_acquire_release_passes(self, tmp_path):
        root = write_tree(tmp_path, {
            "spec/concurrency.py": SPEC,
            "core/counter.py": counter_file("""
                def reset(c: Counter):
                    c._lock.acquire()
                    c.value = 0
                    c._lock.release()
            """),
        })
        assert rule_ids(analyze_tree(root, rules=[RaceLocksetRule()])) == []

    def test_single_threaded_sentinel_sanctions_the_write(self, tmp_path):
        root = write_tree(tmp_path, {
            "spec/concurrency.py": SPEC,
            "core/counter.py": counter_file("""
                def retag(c: Counter):
                    c.tag = "x"
            """),
        })
        assert rule_ids(analyze_tree(root, rules=[RaceLocksetRule()])) == []

    def test_init_writes_are_exempt_and_reads_never_fire(self, tmp_path):
        # COUNTER's __init__ writes every attribute unguarded; reads of
        # shared attributes are not writes.  Neither may fire.
        root = write_tree(tmp_path, {
            "spec/concurrency.py": SPEC,
            "core/counter.py": counter_file("""
                def peek(c: Counter):
                    return c.value
            """),
        })
        assert rule_ids(analyze_tree(root, rules=[RaceLocksetRule()])) == []

    def test_silent_without_a_concurrency_spec(self, tmp_path):
        root = write_tree(tmp_path, {
            "core/counter.py": counter_file("""
                def reset(c: Counter):
                    c.value = 0
            """),
        })
        assert rule_ids(analyze_tree(root, rules=[RaceLocksetRule()])) == []


# ---------------------------------------------------------------------------
# ATOMIC-RMW


class TestAtomicRmw:
    def test_rmw_without_declared_guard_is_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "spec/concurrency.py": SPEC,
            "core/counter.py": counter_file("""
                def bump(c: Counter):
                    c.value += 1
            """),
        })
        report = analyze_tree(root, rules=[AtomicRmwRule()])
        assert rule_ids(report) == ["ATOMIC-RMW"]
        finding = report.findings[0]
        assert (finding.path, finding.line) == ("core/counter.py", 12)
        assert "'self._lock'" in finding.message

    def test_unsynchronized_rmw_on_undeclared_attribute_is_flagged(self, tmp_path):
        # Second seeded bug: no GUARDED_BY entry for the attribute, and
        # no lock held at all.
        spec = 'SHARED_CLASSES = ("Gauge",)\nGUARDED_BY = {}\n'
        root = write_tree(tmp_path, {
            "spec/concurrency.py": spec,
            "core/gauge.py": """
                class Gauge:
                    def __init__(self):
                        self.hits = 0

                def tick(g: Gauge):
                    g.hits += 1
            """,
        })
        report = analyze_tree(root, rules=[AtomicRmwRule()])
        assert rule_ids(report) == ["ATOMIC-RMW"]
        finding = report.findings[0]
        assert (finding.path, finding.line) == ("core/gauge.py", 7)
        assert "unsynchronized read-modify-write" in finding.message

    def test_read_then_write_split_by_await_is_flagged(self, tmp_path):
        spec = 'SHARED_CLASSES = ("Gauge",)\nGUARDED_BY = {}\n'
        root = write_tree(tmp_path, {
            "spec/concurrency.py": spec,
            "core/gauge.py": """
                class Gauge:
                    def __init__(self):
                        self.hits = 0

                async def slow_bump(g: Gauge):
                    snapshot = g.hits
                    await checkpoint()
                    g.hits = snapshot + 1

                async def checkpoint():
                    pass
            """,
        })
        report = analyze_tree(root, rules=[AtomicRmwRule()])
        assert rule_ids(report) == ["ATOMIC-RMW"]
        finding = report.findings[0]
        assert (finding.path, finding.line) == ("core/gauge.py", 9)
        assert "split by an await" in finding.message

    def test_rmw_under_its_guard_passes(self, tmp_path):
        root = write_tree(tmp_path, {
            "spec/concurrency.py": SPEC,
            "core/counter.py": counter_file("""
                def bump(c: Counter):
                    with c._lock:
                        c.value += 1
            """),
        })
        assert rule_ids(analyze_tree(root, rules=[AtomicRmwRule()])) == []

    def test_await_compound_spanned_by_one_lock_passes(self, tmp_path):
        spec = 'SHARED_CLASSES = ("Gauge",)\nGUARDED_BY = {}\n'
        root = write_tree(tmp_path, {
            "spec/concurrency.py": spec,
            "core/gauge.py": """
                class Gauge:
                    def __init__(self):
                        self.hits = 0

                async def slow_bump(g: Gauge, big_lock):
                    async with g.hits_lock:
                        snapshot = g.hits
                        await checkpoint()
                        g.hits = snapshot + 1

                async def checkpoint():
                    pass
            """,
        })
        assert rule_ids(analyze_tree(root, rules=[AtomicRmwRule()])) == []


# ---------------------------------------------------------------------------
# the shared-state model: seeding and config validation


class TestModelSeeding:
    def test_escape_via_executor_submit_only(self):
        # No Thread, no registry entry: the *only* sharing evidence is
        # an executor submit of a bound method.
        modules = parse_tree({
            "spec/concurrency.py": "SHARED_CLASSES = ()\nGUARDED_BY = {}\n",
            "svc/workers.py": """
                class Job:
                    def __init__(self):
                        self.state = "new"

                    def run(self):
                        self.state = "done"

                def dispatch(executor):
                    job = Job()
                    executor.submit(job.run)
            """,
        })
        model = model_for(modules)
        assert any(key.endswith("::Job") for key in model.shared)
        reason = model.reason("Job.state")
        assert "executor submit" in reason and "svc/workers.py:11" in reason
        kinds = {site.kind for site in model.accesses["Job.state"]}
        assert kinds == {"write"}  # the __init__ write is exempt

    def test_thread_target_and_task_creation_seed_sharing(self):
        modules = parse_tree({
            "spec/concurrency.py": "SHARED_CLASSES = ()\nGUARDED_BY = {}\n",
            "svc/workers.py": """
                import asyncio
                import threading

                class Pump:
                    def spin(self):
                        pass

                class Drain:
                    async def flow(self):
                        pass

                def go():
                    p = Pump()
                    threading.Thread(target=p.spin).start()

                async def run():
                    d = Drain()
                    asyncio.create_task(d.flow())
            """,
        })
        model = model_for(modules)
        reasons = {key.rsplit("::", 1)[1]: reason for key, reason in model.shared.items()}
        assert "threading.Thread target" in reasons["Pump"]
        assert "asyncio task creation" in reasons["Drain"]

    def test_registered_but_never_constructed_class_is_checked(self, tmp_path):
        # Registration alone must bind (the class exists) and the rules
        # must still check accesses that arrive via annotations — the
        # "turn the checks on before the concurrent caller lands" story.
        root = write_tree(tmp_path, {
            "spec/concurrency.py": 'SHARED_CLASSES = ("Ledger",)\nGUARDED_BY = {}\n',
            "core/ledger.py": """
                class Ledger:
                    def __init__(self):
                        self.balance = 0

                def credit(ledger: Ledger, amount):
                    ledger.balance = amount
            """,
        })
        report = analyze_tree(root, rules=[RaceLocksetRule()])
        assert rule_ids(report) == ["RACE-LOCKSET"]
        assert report.findings[0].line == 7


class TestConfigErrors:
    def test_guard_for_nonexistent_attribute_raises(self):
        modules = parse_tree({
            "spec/concurrency.py": """
                SHARED_CLASSES = ("Counter",)
                GUARDED_BY = {
                    "Counter.valeu": "self._lock",
                }
            """,
            "core/counter.py": COUNTER,
        })
        with pytest.raises(ConcurrencyConfigError, match=r"Counter\.valeu"):
            model_for(modules)

    def test_unknown_shared_class_raises(self):
        modules = parse_tree({
            "spec/concurrency.py": 'SHARED_CLASSES = ("Ghost",)\nGUARDED_BY = {}\n',
            "core/counter.py": COUNTER,
        })
        with pytest.raises(ConcurrencyConfigError, match="Ghost"):
            model_for(modules)

    def test_cli_reports_config_error_as_exit_two(self, tmp_path, capsys):
        root = write_tree(tmp_path, {
            "spec/concurrency.py": SPEC.replace("Counter.value", "Counter.valeu"),
            "core/counter.py": COUNTER,
        })
        assert raelint_main([str(root)]) == 2
        err = capsys.readouterr().err
        assert "concurrency spec error" in err
        assert "Counter.valeu" in err
        # The error names the spec file and the offending line.
        assert "spec/concurrency.py:4" in err


# ---------------------------------------------------------------------------
# the real tree: the registry binds and the family runs clean


class TestRealTree:
    def test_concurrency_family_is_clean_on_src_repro(self):
        root = Path(__file__).resolve().parent.parent / "src" / "repro"
        report = analyze_tree(root, rules=[RaceLocksetRule(), AtomicRmwRule()])
        assert rule_ids(report) == [], "\n".join(f.render() for f in report.findings)

    def test_registry_classes_have_access_sites(self):
        # The declarations are load-bearing: the model actually binds
        # them to supervisor-side access sites.
        root = Path(__file__).resolve().parent.parent / "src" / "repro"
        from repro.analysis.engine import Analyzer

        modules, _ = Analyzer(root).parse_all()
        model = model_for(modules)
        assert model is not None
        owners = {key.split(".")[0] for key in model.shared_attr_keys()}
        assert {"RAEFilesystem", "OpLog", "Detector", "LockManager"} <= owners
