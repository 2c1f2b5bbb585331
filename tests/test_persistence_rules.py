"""The persistence rule family on seeded synthetic trees.

Mutation-style validation: every rule fires on at least two distinct
seeded crash-consistency bugs with the right file/line witness, stays
silent on the clean twin, and the declared-spec machinery (durability
protocols, write-site roles, sanctions, config errors) behaves per
docs/STATIC_ANALYSIS.md.  A home write seeded into a copy of the real
tree is caught by the family as a whole.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_tree
from repro.analysis.cli import main as raelint_main
from repro.analysis.engine import Analyzer, ParsedModule
from repro.analysis.persistence import PersistenceConfigError, model_for
from repro.analysis.rules import FlushBarrierRule, PersistOrderRule

REPO = Path(__file__).resolve().parent.parent


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


# ---------------------------------------------------------------------------
# FLUSH-BARRIER


#: Commit record then in-place write, no flush between: the reordering
#: window a crash would land in.
UNFLUSHED_COMMIT = """
    class Journal:
        def commit(self, txn):
            self.device.write_block(0, txn)
            self.device.write_block(7, txn)
"""

ROLES_COMMIT_THEN_CHECKPOINT = """
    WRITE_SITE_ROLES = {
        "Journal.commit": ("commit-record", "checkpoint"),
    }
"""


class TestFlushBarrier:
    def test_unflushed_commit_record_before_checkpoint_is_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "spec/persistence.py": ROLES_COMMIT_THEN_CHECKPOINT,
            "basefs/journal.py": UNFLUSHED_COMMIT,
        })
        report = analyze_tree(root, rules=[FlushBarrierRule()])
        assert rule_ids(report) == ["FLUSH-BARRIER"]
        finding = report.findings[0]
        assert (finding.path, finding.line) == ("basefs/journal.py", 5)
        # The witness names the unflushed commit-record write.
        assert "basefs/journal.py:4" in finding.message
        assert "add a device flush" in finding.message

    def test_unsealed_callee_write_is_flagged_at_the_call(self, tmp_path):
        # Second seeded bug, interprocedural: the in-place write lives in
        # a callee, the pending commit record in the caller — the finding
        # anchors at the call and names both.
        root = write_tree(tmp_path, {
            "spec/persistence.py": """
                WRITE_SITE_ROLES = {
                    "Store.commit": ("commit-record",),
                }
            """,
            "basefs/store.py": """
                class Store:
                    def commit(self, txn):
                        self.device.write_block(0, txn)
                        self.checkpoint_home(txn)

                    def checkpoint_home(self, txn):
                        self.device.write_block(9, txn)
            """,
        })
        report = analyze_tree(root, rules=[FlushBarrierRule()])
        assert rule_ids(report) == ["FLUSH-BARRIER"]
        finding = report.findings[0]
        assert (finding.path, finding.line) == ("basefs/store.py", 5)
        assert "call into Store.checkpoint_home" in finding.message
        assert "basefs/store.py:8" in finding.message  # the overtaking write
        assert "basefs/store.py:4" in finding.message  # the pending record

    def test_flush_between_commit_record_and_checkpoint_passes(self, tmp_path):
        root = write_tree(tmp_path, {
            "spec/persistence.py": ROLES_COMMIT_THEN_CHECKPOINT,
            "basefs/journal.py": """
                class Journal:
                    def commit(self, txn):
                        self.device.write_block(0, txn)
                        self.device.flush()
                        self.device.write_block(7, txn)
            """,
        })
        assert rule_ids(analyze_tree(root, rules=[FlushBarrierRule()])) == []

    def test_callee_sealing_its_own_record_passes(self, tmp_path):
        # The JournalWriter.append story: the callee flushes the commit
        # record it wrote, so the caller's writeback is provably safe.
        root = write_tree(tmp_path, {
            "spec/persistence.py": """
                WRITE_SITE_ROLES = {
                    "Store.append_record": ("commit-record",),
                }
            """,
            "basefs/store.py": """
                class Store:
                    def commit(self, txn):
                        self.append_record(txn)
                        self.cache.writeback(txn)

                    def append_record(self, txn):
                        self.device.write_block(0, txn)
                        self.device.flush()
            """,
        })
        assert rule_ids(analyze_tree(root, rules=[FlushBarrierRule()])) == []

    def test_silent_without_a_persistence_spec(self, tmp_path):
        root = write_tree(tmp_path, {
            "basefs/journal.py": UNFLUSHED_COMMIT,
        })
        assert rule_ids(analyze_tree(root, rules=[FlushBarrierRule()])) == []


# ---------------------------------------------------------------------------
# PERSIST-ORDER


def _protocol_spec(phases: str, roles: str, events: str = "{}") -> str:
    return f"""
        DURABILITY_PROTOCOL = {{
            "Log.append": {{"phases": {phases}, "events": {events}}},
        }}
        WRITE_SITE_ROLES = {{
            "Log.append": {roles},
        }}
    """


class TestPersistOrder:
    def test_out_of_order_phase_is_flagged(self, tmp_path):
        # Declared journal-write first; the code leads with the commit
        # record.
        root = write_tree(tmp_path, {
            "spec/persistence.py": _protocol_spec(
                '("journal-write", "commit-record", "barrier")', '("commit-record",)'
            ),
            "ondisk/log.py": """
                class Log:
                    def append(self, rec):
                        self.device.write_block(8, rec)
            """,
        })
        report = analyze_tree(root, rules=[PersistOrderRule()])
        assert rule_ids(report) == ["PERSIST-ORDER"]
        finding = report.findings[0]
        assert (finding.path, finding.line) == ("ondisk/log.py", 4)
        assert "commit-record out of order in Log.append" in finding.message
        assert "'start'" in finding.message

    def test_incomplete_return_is_flagged(self, tmp_path):
        # Second seeded bug: the protocol starts but a normal return
        # skips the barrier.
        root = write_tree(tmp_path, {
            "spec/persistence.py": _protocol_spec(
                '("journal-write", "barrier")', '("journal-write",)'
            ),
            "ondisk/log.py": """
                class Log:
                    def append(self, rec):
                        self.device.write_block(8, rec)
                        return True
            """,
        })
        report = analyze_tree(root, rules=[PersistOrderRule()])
        assert rule_ids(report) == ["PERSIST-ORDER"]
        finding = report.findings[0]
        assert (finding.path, finding.line) == ("ondisk/log.py", 5)
        assert "durability protocol incomplete" in finding.message
        assert "phases [barrier] not performed" in finding.message

    def test_loop_repetition_and_zero_iteration_paths_pass(self, tmp_path):
        # A loop of journal-block writes is one journal-write phase, and
        # the statically-possible zero-iteration path must not flag the
        # commit record as out of order (must-semantics).
        root = write_tree(tmp_path, {
            "spec/persistence.py": _protocol_spec(
                '("journal-write", "commit-record", "barrier")',
                '("journal-write", "commit-record")',
            ),
            "ondisk/log.py": """
                class Log:
                    def append(self, recs):
                        for rec in recs:
                            self.device.write_block(1, rec)
                        self.device.write_block(0, recs)
                        self.device.flush()
            """,
        })
        assert rule_ids(analyze_tree(root, rules=[PersistOrderRule()])) == []

    def test_optional_phase_may_be_skipped(self, tmp_path):
        # "data-write?" is skippable: a commit with no dirty data pages.
        root = write_tree(tmp_path, {
            "spec/persistence.py": _protocol_spec(
                '("journal-write", "data-write?", "barrier")', '("journal-write",)'
            ),
            "ondisk/log.py": """
                class Log:
                    def append(self, rec):
                        self.device.write_block(1, rec)
                        self.device.flush()
            """,
        })
        assert rule_ids(analyze_tree(root, rules=[PersistOrderRule()])) == []

    def test_exceptional_exit_is_exempt(self, tmp_path):
        # An exception abandons the transaction before its commit record
        # — exactly what journal replay recovers — so the raise path is
        # not an incomplete protocol.
        root = write_tree(tmp_path, {
            "spec/persistence.py": _protocol_spec(
                '("journal-write", "commit-record", "barrier")',
                '("journal-write", "commit-record")',
            ),
            "ondisk/log.py": """
                class Log:
                    def append(self, rec):
                        self.device.write_block(1, rec)
                        if not rec:
                            raise ValueError(rec)
                        self.device.write_block(0, rec)
                        self.device.flush()
            """,
        })
        assert rule_ids(analyze_tree(root, rules=[PersistOrderRule()])) == []

    def test_early_return_before_protocol_starts_passes(self, tmp_path):
        root = write_tree(tmp_path, {
            "spec/persistence.py": _protocol_spec(
                '("journal-write", "commit-record", "barrier")',
                '("journal-write", "commit-record")',
            ),
            "ondisk/log.py": """
                class Log:
                    def append(self, recs):
                        if not recs:
                            return 0
                        self.device.write_block(1, recs)
                        self.device.write_block(0, recs)
                        self.device.flush()
            """,
        })
        assert rule_ids(analyze_tree(root, rules=[PersistOrderRule()])) == []

    def test_delegated_event_counts_as_its_declared_phase(self, tmp_path):
        # `self.journal.append(...)` performs the commit record on the
        # caller's behalf; the events map makes the typestate see it.
        spec = """
            DURABILITY_PROTOCOL = {
                "Fs.commit": {
                    "phases": ("commit-record", "barrier"),
                    "events": {"journal.append": "commit-record"},
                },
            }
        """
        clean = write_tree(tmp_path / "clean", {
            "spec/persistence.py": spec,
            "basefs/fs.py": """
                class Fs:
                    def commit(self, txn):
                        self.journal.append(txn)
                        self.device.flush()
            """,
        })
        assert rule_ids(analyze_tree(clean, rules=[PersistOrderRule()])) == []

        buggy = write_tree(tmp_path / "buggy", {
            "spec/persistence.py": spec,
            "basefs/fs.py": """
                class Fs:
                    def commit(self, txn):
                        self.journal.append(txn)
            """,
        })
        report = analyze_tree(buggy, rules=[PersistOrderRule()])
        assert rule_ids(report) == ["PERSIST-ORDER"]
        assert "phases [barrier] not performed" in report.findings[0].message


# ---------------------------------------------------------------------------
# declared-spec config errors: always exit 2, never findings


class TestConfigErrors:
    def test_unknown_kind_raises_at_parse_time(self):
        modules = parse_tree({
            "spec/persistence.py": _protocol_spec(
                '("jornal-write",)', '("journal-write",)'
            ),
            "ondisk/log.py": "class Log:\n    def append(self, rec):\n        pass\n",
        })
        with pytest.raises(PersistenceConfigError, match="jornal-write"):
            model_for(modules)

    def test_unbound_protocol_raises(self):
        modules = parse_tree({
            "spec/persistence.py": """
                DURABILITY_PROTOCOL = {
                    "Ghost.commit": {"phases": ("barrier",), "events": {}},
                }
            """,
            "ondisk/log.py": "class Log:\n    def append(self, rec):\n        pass\n",
        })
        with pytest.raises(PersistenceConfigError, match="Ghost.commit.*names no function"):
            model_for(modules)

    def test_site_role_arity_mismatch_raises(self):
        modules = parse_tree({
            "spec/persistence.py": ROLES_COMMIT_THEN_CHECKPOINT,
            "basefs/journal.py": """
                class Journal:
                    def commit(self, txn):
                        self.device.write_block(0, txn)
            """,
        })
        with pytest.raises(PersistenceConfigError, match="declares 2 write_block sites"):
            model_for(modules)

    def test_cli_reports_spec_error_as_exit_two(self, tmp_path, capsys):
        root = write_tree(tmp_path, {
            "spec/persistence.py": """
                WRITE_SITE_ROLES = {
                    "Ghost": ("journal-write",),
                }
            """,
            "basefs/journal.py": UNFLUSHED_COMMIT,
        })
        assert raelint_main([str(root)]) == 2
        err = capsys.readouterr().err
        assert "persistence spec error" in err
        assert "Ghost" in err
        # The error names the spec file and the offending line.
        assert "spec/persistence.py:3" in err


# ---------------------------------------------------------------------------
# satellite: --changed-since


def _git(cwd: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=cwd, check=True, capture_output=True, text=True,
    )


class TestChangedSince:
    def test_scopes_reporting_to_the_merge_base_delta(self, tmp_path, capsys):
        # Base commit: spec + a buggy file (pre-existing debt).  Feature
        # commit: a second buggy file.  --changed-since base must report
        # only the feature file's finding.
        spec = """
            WRITE_SITE_ROLES = {
                "Cold.commit": ("commit-record", "checkpoint"),
                "Hot.commit": ("commit-record", "checkpoint"),
            }
        """
        write_tree(tmp_path, {
            "spec/persistence.py": spec,
            "basefs/cold.py": """
                class Cold:
                    def commit(self, txn):
                        self.device.write_block(0, txn)
                        self.device.write_block(7, txn)
            """,
        })
        _git(tmp_path, "init", "-q")
        _git(tmp_path, "add", "-A")
        _git(tmp_path, "commit", "-q", "-m", "base")
        _git(tmp_path, "branch", "base")
        write_tree(tmp_path, {
            "basefs/hot.py": """
                class Hot:
                    def commit(self, txn):
                        self.device.write_block(0, txn)
                        self.device.write_block(7, txn)
            """,
        })
        _git(tmp_path, "add", "-A")
        _git(tmp_path, "commit", "-q", "-m", "feature")

        args = [str(tmp_path), "--select", "FLUSH-BARRIER", "--fail-on-findings"]
        # Clean working tree: plain --changed-only has nothing to report.
        assert raelint_main(args + ["--changed-only"]) == 0
        assert "no changed files" in capsys.readouterr().out
        # Against the merge base, the feature file's finding surfaces —
        # and only it.
        assert raelint_main(args + ["--changed-only", "--changed-since", "base"]) == 1
        out = capsys.readouterr().out
        assert "basefs/hot.py" in out
        assert "basefs/cold.py" not in out

    def test_changed_since_requires_changed_only(self, tmp_path, capsys):
        assert raelint_main([str(tmp_path), "--changed-since", "main"]) == 2
        assert "--changed-since requires --changed-only" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# satellite: --format=github


class TestGithubFormat:
    def test_new_findings_render_as_error(self, tmp_path, capsys):
        root = write_tree(tmp_path, {
            "spec/persistence.py": ROLES_COMMIT_THEN_CHECKPOINT,
            "basefs/journal.py": UNFLUSHED_COMMIT,
        })
        code = raelint_main([
            str(root), "--select", "FLUSH-BARRIER",
            "--format", "github", "--fail-on-findings",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "basefs/journal.py" in out


# ---------------------------------------------------------------------------
# the real tree: the spec binds and the family runs clean


class TestRealTree:
    def test_persistence_family_is_clean_on_src_repro(self):
        root = REPO / "src" / "repro"
        report = analyze_tree(root, rules=[FlushBarrierRule(), PersistOrderRule()])
        assert rule_ids(report) == [], "\n".join(f.render() for f in report.findings)

    def test_model_binds_the_declared_surface(self):
        # The declarations are load-bearing: every declared function has
        # persistence points, and no unflushed commit record survives
        # composition.
        root = REPO / "src" / "repro"
        modules, _ = Analyzer(root).parse_all()
        model = model_for(modules)
        assert model is not None
        with_points = {model.qualname(point.func_key) for point in model.points}
        assert set(model.decls.protocols) | set(model.decls.site_roles) <= with_points
        assert model.violations == []


# ---------------------------------------------------------------------------
# unjournaled writes seeded into a copy of the real tree


def _seeded_copy(tmp_path: Path, anchor: str, insertion: str) -> tuple[Path, int]:
    """Copy ``src/repro`` and insert ``insertion`` right after the one
    occurrence of ``anchor`` in ``basefs/filesystem.py``; returns the
    copy's root and the inserted line's number."""
    root = tmp_path / "repro"
    shutil.copytree(REPO / "src" / "repro", root, ignore=shutil.ignore_patterns("__pycache__"))
    target = root / "basefs" / "filesystem.py"
    head, tail = target.read_text().split(anchor)
    target.write_text(head + anchor + insertion + tail)
    return root, (head + anchor).count("\n") + 1


def _persistence_findings(root: Path, capsys) -> list[tuple[str, str, int]]:
    code = raelint_main([
        str(root), "--select", "persistence", "--fail-on-findings", "--format=json",
    ])
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert code == (1 if findings else 0)
    return [(f["rule"], f["path"], f["line"]) for f in findings]


class TestSeededUnjournaledWrites:
    def test_home_write_before_the_commit_record_breaks_the_protocol(self, tmp_path, capsys):
        # A checkpoint between BaseFilesystem.commit's ordered-data flush
        # and its journal commit: the declared protocol has no room for it.
        root, line = _seeded_copy(
            tmp_path,
            "                raise request.error\n        self.device.flush()\n",
            "        self.cache.writeback(5)\n",
        )
        assert _persistence_findings(root, capsys) == [
            ("PERSIST-ORDER", "basefs/filesystem.py", line),
        ]
