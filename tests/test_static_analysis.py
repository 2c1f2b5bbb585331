"""raelint: rule unit tests (known-bad flagged, known-good passes),
suppression mechanics, the rule registry, CLI modes, and the tree gate
that keeps src/repro clean."""

from __future__ import annotations

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis import RULE_CLASSES, Analyzer, analyze_tree, default_rules
from repro.analysis.cli import main as raelint_main
from repro.analysis.engine import PARSE_ERROR_RULE
from repro.analysis.findings import Severity
from repro.analysis.rules import (
    ErrnoDisciplineRule,
    HookRegistryRule,
    LockReleaseRule,
    OplogCoverageRule,
    ShadowPurityRule,
    rule_families,
)
from tests.test_contracts_rules import CONTRACTS
from tests.test_persistence_rules import ROLES_COMMIT_THEN_CHECKPOINT, UNFLUSHED_COMMIT

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return tmp_path


def rule_ids(report) -> list[str]:
    return [finding.rule_id for finding in report.findings]


# ---------------------------------------------------------------------------
# SHADOW-PURITY


class TestShadowPurity:
    def test_flags_threading_import_and_device_write(self, tmp_path):
        root = write_tree(tmp_path, {
            "shadowfs/bad.py": """
                import threading
                from repro.basefs.page_cache import PageCache

                def persist(device, block, data):
                    device.write_block(block, data)
                    device.flush()
            """,
        })
        report = analyze_tree(root, rules=[ShadowPurityRule()])
        messages = [f.message for f in report.findings]
        assert len(report.findings) == 4
        assert any("threading" in m for m in messages)
        assert any("page_cache" in m for m in messages)
        assert any("write_block" in m for m in messages)
        assert any("flush" in m for m in messages)

    def test_good_shadow_module_passes(self, tmp_path):
        root = write_tree(tmp_path, {
            "shadowfs/good.py": """
                from repro.errors import FsError
                from repro.blockdev.device import BlockDevice

                def fsync(self, fd, opseq=0):
                    raise FsError(Errno.EINVAL, "the shadow omits the sync family")

                def read(device, block):
                    return device.read_block(block)
            """,
        })
        report = analyze_tree(root, rules=[ShadowPurityRule()])
        assert report.findings == []

    def test_rule_only_applies_under_shadowfs(self, tmp_path):
        root = write_tree(tmp_path, {
            "basefs/ok.py": """
                import threading

                def persist(device, block, data):
                    device.write_block(block, data)
            """,
        })
        report = analyze_tree(root, rules=[ShadowPurityRule()])
        assert report.findings == []


# ---------------------------------------------------------------------------
# OPLOG-COVERAGE

GOOD_SUPERVISOR_TREE = {
    "api.py": """
        OP_SIGNATURES = {
            "mkdir": (("path", "perms"), True),
            "stat": (("path",), False),
        }
    """,
    "basefs/filesystem.py": """
        class BaseFilesystem:
            def mkdir(self, path, perms=0o755, opseq=0):
                pass

            def stat(self, path):
                pass
    """,
    "core/supervisor.py": """
        class RAEFilesystem:
            def _call(self, name, **args):
                try:
                    outcome = self._apply(name, args)
                except KernelBug:
                    outcome = self._recover()
                else:
                    self.oplog.record(self.seq, name, outcome)
                return outcome

            def mkdir(self, path, perms=0o755, opseq=0):
                return self._call("mkdir", path=path, perms=perms)

            def stat(self, path):
                return self._call("stat", path=path)
    """,
}


class TestOplogCoverage:
    def test_good_chain_passes(self, tmp_path):
        root = write_tree(tmp_path, GOOD_SUPERVISOR_TREE)
        report = analyze_tree(root, rules=[OplogCoverageRule()])
        assert report.findings == []

    def test_unwrapped_mutation_is_flagged(self, tmp_path):
        files = dict(GOOD_SUPERVISOR_TREE)
        files["core/supervisor.py"] = """
            class RAEFilesystem:
                def _call(self, name, **args):
                    outcome = self._apply(name, args)
                    self.oplog.record(self.seq, name, outcome)
                    return outcome

                def mkdir(self, path, perms=0o755, opseq=0):
                    return self.base.mkdir(path, perms)  # bypasses recording
        """
        root = write_tree(tmp_path, files)
        report = analyze_tree(root, rules=[OplogCoverageRule()])
        assert rule_ids(report) == ["OPLOG-COVERAGE"]
        assert "mkdir" in report.findings[0].message

    def test_recording_only_in_error_path_is_flagged(self, tmp_path):
        files = dict(GOOD_SUPERVISOR_TREE)
        files["core/supervisor.py"] = """
            class RAEFilesystem:
                def _call(self, name, **args):
                    try:
                        outcome = self._apply(name, args)
                    except KernelBug:
                        self.oplog.record(self.seq, name, None)  # error path only
                        raise
                    return outcome

                def mkdir(self, path, perms=0o755, opseq=0):
                    return self._call("mkdir", path=path, perms=perms)
        """
        root = write_tree(tmp_path, files)
        report = analyze_tree(root, rules=[OplogCoverageRule()])
        assert rule_ids(report) == ["OPLOG-COVERAGE"]

    def test_missing_base_method_is_flagged(self, tmp_path):
        files = dict(GOOD_SUPERVISOR_TREE)
        files["basefs/filesystem.py"] = """
            class BaseFilesystem:
                def stat(self, path):
                    pass
        """
        root = write_tree(tmp_path, files)
        report = analyze_tree(root, rules=[OplogCoverageRule()])
        assert rule_ids(report) == ["OPLOG-COVERAGE"]
        assert "BaseFilesystem" in report.findings[0].message

    def test_silent_without_op_signatures(self, tmp_path):
        root = write_tree(tmp_path, {"x.py": "class RAEFilesystem:\n    pass\n"})
        report = analyze_tree(root, rules=[OplogCoverageRule()])
        assert report.findings == []


# ---------------------------------------------------------------------------
# LOCK-RELEASE


class TestLockRelease:
    def test_unguarded_acquire_is_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "fs.py": """
                def mkdir(self, path):
                    self.locks.acquire(2)
                    self._insert(path)
                    self.locks.release_all()
            """,
        })
        report = analyze_tree(root, rules=[LockReleaseRule()])
        assert rule_ids(report) == ["LOCK-RELEASE"]

    def test_try_finally_release_passes(self, tmp_path):
        root = write_tree(tmp_path, {
            "fs.py": """
                def mkdir(self, path):
                    try:
                        self.locks.acquire(2)
                        self.locks.acquire_pair(3, 4)
                        self._insert(path)
                    finally:
                        self.locks.release_all()
            """,
        })
        report = analyze_tree(root, rules=[LockReleaseRule()])
        assert report.findings == []

    def test_release_in_handler_does_not_count(self, tmp_path):
        root = write_tree(tmp_path, {
            "fs.py": """
                def mkdir(self, path):
                    try:
                        self.locks.acquire(2)
                    except KernelBug:
                        self.locks.release_all()
            """,
        })
        report = analyze_tree(root, rules=[LockReleaseRule()])
        assert rule_ids(report) == ["LOCK-RELEASE"]

    def test_lock_manager_internals_are_exempt(self, tmp_path):
        root = write_tree(tmp_path, {
            "locks.py": """
                class LockManager:
                    def acquire_pair(self, a, b):
                        first, second = sorted((a, b))
                        self.acquire(first)
                        self.acquire(second)
            """,
        })
        report = analyze_tree(root, rules=[LockReleaseRule()])
        assert report.findings == []


# ---------------------------------------------------------------------------
# ERRNO-DISCIPLINE


class TestErrnoDiscipline:
    def test_generic_raise_and_broad_except_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "bad.py": """
                def f():
                    try:
                        g()
                    except Exception:
                        raise RuntimeError("broke")

                def h():
                    try:
                        g()
                    except:
                        pass
            """,
        })
        report = analyze_tree(root, rules=[ErrnoDisciplineRule()])
        assert sorted(rule_ids(report)) == ["ERRNO-DISCIPLINE"] * 3

    def test_fs_error_without_errno_member_flagged(self, tmp_path):
        root = write_tree(tmp_path, {
            "bad.py": """
                def f(path):
                    raise FsError(2, path)
            """,
            "good.py": """
                def f(path, outcome):
                    raise FsError(Errno.ENOENT, path)

                def g(outcome):
                    raise FsError(outcome.errno, "propagated")
            """,
        })
        report = analyze_tree(root, rules=[ErrnoDisciplineRule()])
        assert len(report.findings) == 1
        assert report.findings[0].path == "bad.py"

    def test_catalog_raises_pass(self, tmp_path):
        root = write_tree(tmp_path, {
            "good.py": """
                def f():
                    try:
                        g()
                    except (KernelBug, InvariantViolation):
                        raise RecoveryFailure("nested", phase="test")
            """,
        })
        report = analyze_tree(root, rules=[ErrnoDisciplineRule()])
        assert report.findings == []


# ---------------------------------------------------------------------------
# HOOK-REGISTRY

HOOK_TREE_BASE = {
    "basefs/hooks.py": """
        HOOK_NAMES = (
            "vfs.lookup",
            "dir.insert",
        )
    """,
}


class TestHookRegistry:
    def test_typod_hook_name_is_flagged(self, tmp_path):
        files = dict(HOOK_TREE_BASE)
        files["basefs/filesystem.py"] = """
            def insert(self):
                self.hooks.fire("dir.isnert", dir_ino=2)
        """
        root = write_tree(tmp_path, files)
        report = analyze_tree(root, rules=[HookRegistryRule()])
        assert rule_ids(report) == ["HOOK-REGISTRY"]
        assert "dir.isnert" in report.findings[0].message

    def test_registered_names_and_dynamic_names_pass(self, tmp_path):
        files = dict(HOOK_TREE_BASE)
        files["basefs/filesystem.py"] = """
            def insert(self, point):
                self.hooks.fire("dir.insert", dir_ino=2)
                self.hooks.register("vfs.lookup", handler)
                self.hooks.fire(point, dir_ino=2)  # dynamic: runtime-validated
        """
        root = write_tree(tmp_path, files)
        report = analyze_tree(root, rules=[HookRegistryRule()])
        assert report.findings == []

    def test_silent_without_registry(self, tmp_path):
        root = write_tree(tmp_path, {
            "x.py": 'def f(self):\n    self.hooks.fire("anything.goes")\n',
        })
        report = analyze_tree(root, rules=[HookRegistryRule()])
        assert report.findings == []


# ---------------------------------------------------------------------------
# engine mechanics: suppression, parse errors


class TestSuppressionAndBaseline:
    BAD = """
        def f():
            try:
                g()
            except Exception:{suffix}
                pass
    """

    def test_inline_suppression_silences_finding(self, tmp_path):
        root = write_tree(tmp_path, {
            "bad.py": self.BAD.format(suffix="  # raelint: disable=ERRNO-DISCIPLINE — sanctioned boundary"),
        })
        report = analyze_tree(root, rules=[ErrnoDisciplineRule()])
        assert report.findings == []
        assert report.suppressed == 1

    def test_comment_line_above_suppresses_next_line(self, tmp_path):
        root = write_tree(tmp_path, {
            "bad.py": """
                def f():
                    try:
                        g()
                    # raelint: disable=ERRNO-DISCIPLINE
                    except Exception:
                        pass
            """,
        })
        report = analyze_tree(root, rules=[ErrnoDisciplineRule()])
        assert report.findings == []
        assert report.suppressed == 1

    def test_comment_directive_skips_blank_lines_to_next_code_line(self, tmp_path):
        root = write_tree(tmp_path, {
            "bad.py": """
                def f():
                    try:
                        g()
                    # raelint: disable=ERRNO-DISCIPLINE

                    except Exception:
                        pass
            """,
        })
        report = analyze_tree(root, rules=[ErrnoDisciplineRule()])
        assert report.findings == []
        assert report.suppressed == 1

    def test_comment_directive_skips_interleaved_comments(self, tmp_path):
        root = write_tree(tmp_path, {
            "bad.py": """
                def f():
                    try:
                        g()
                    # raelint: disable=ERRNO-DISCIPLINE
                    # sanctioned: the workload shield is a catch-all by design
                    except Exception:
                        pass
            """,
        })
        report = analyze_tree(root, rules=[ErrnoDisciplineRule()])
        assert report.findings == []
        assert report.suppressed == 1

    def test_stacked_comment_directives_land_on_the_same_code_line(self, tmp_path):
        root = write_tree(tmp_path, {
            "bad.py": """
                import threading

                def persist(device, block, data):
                    # raelint: disable=SHADOW-PURITY
                    # raelint: disable=ERRNO-DISCIPLINE
                    device.write_block(block, data)
            """,
        })
        # Both directives must target the write_block line (line 7), not
        # each other.
        from repro.analysis.engine import ParsedModule

        parsed = ParsedModule.parse("bad.py", (root / "bad.py").read_text())
        assert parsed.suppressions.get(7) == {"SHADOW-PURITY", "ERRNO-DISCIPLINE"}

    def test_suppression_of_other_rule_does_not_apply(self, tmp_path):
        root = write_tree(tmp_path, {
            "bad.py": self.BAD.format(suffix="  # raelint: disable=HOOK-REGISTRY"),
        })
        report = analyze_tree(root, rules=[ErrnoDisciplineRule()])
        assert len(report.findings) == 1

    def test_parse_error_is_a_finding(self, tmp_path):
        root = write_tree(tmp_path, {"broken.py": "def f(:\n"})
        report = analyze_tree(root, rules=default_rules())
        assert rule_ids(report) == [PARSE_ERROR_RULE]
        assert report.findings[0].severity is Severity.ERROR


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"ok.py": "x = 1\n"})
        assert raelint_main([str(root), "--fail-on-findings"]) == 0
        assert "0 new" in capsys.readouterr().out

    def test_fail_on_findings(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"bad.py": "try:\n    f()\nexcept Exception:\n    pass\n"})
        assert raelint_main([str(root)]) == 0  # report-only by default
        assert raelint_main([str(root), "--fail-on-findings"]) == 1

    def test_json_format(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"bad.py": "try:\n    f()\nexcept Exception:\n    pass\n"})
        raelint_main([str(root), "--format=json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["new"][0]["rule"] == "ERRNO-DISCIPLINE"
        assert payload["new"][0]["path"] == "bad.py"

    def test_output_is_sorted_by_path_line_rule(self, tmp_path, capsys):
        bad = "try:\n    f()\nexcept Exception:\n    pass\n\ntry:\n    g()\nexcept Exception:\n    pass\n"
        root = write_tree(tmp_path, {"b.py": bad, "a.py": bad})
        raelint_main([str(root), "--format=json"])
        payload = json.loads(capsys.readouterr().out)
        keys = [(f["path"], f["line"], f["rule"]) for f in payload["findings"]]
        assert keys == sorted(keys)
        assert len(keys) == 4  # both files, both lines, stable order

    def test_list_rules(self, capsys):
        assert raelint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "SHADOW-PURITY",
            "SHADOW-REACH",
            "OPLOG-COVERAGE",
            "LOCK-RELEASE",
            "LOCK-ORDER",
            "REPLAY-DETERMINISM",
            "ERRNO-DISCIPLINE",
            "HOOK-REGISTRY",
            "ERRNO-PARITY",
            "EFFECT-CONTRACT",
            "API-PARITY",
            "STATE-PROTOCOL",
        ):
            assert rule_id in out

    def test_missing_root_exits_two(self, tmp_path):
        assert raelint_main([str(tmp_path / "nope")]) == 2

    def test_select_runs_only_named_rules(self, tmp_path, capsys):
        # The tree violates ERRNO-DISCIPLINE only; selecting an
        # unrelated rule must make the run clean.
        root = write_tree(tmp_path, {"bad.py": "try:\n    f()\nexcept Exception:\n    pass\n"})
        assert raelint_main([str(root), "--select", "ERRNO-DISCIPLINE", "--fail-on-findings"]) == 1
        capsys.readouterr()
        assert raelint_main([str(root), "--select", "SHADOW-PURITY", "--fail-on-findings"]) == 0

    def test_select_unknown_rule_exits_two(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"ok.py": "x = 1\n"})
        assert raelint_main([str(root), "--select", "NO-SUCH-RULE"]) == 2
        err = capsys.readouterr().err
        assert "NO-SUCH-RULE" in err
        # Family names are valid --select tokens, so the error lists them.
        assert "families:" in err

    def test_github_format_emits_workflow_annotations(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"bad.py": "try:\n    f()\nexcept Exception:\n    pass\n"})
        assert raelint_main([str(root), "--format=github", "--fail-on-findings"]) == 1
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("::error "))
        # file= is joined with the analysis root so GitHub can anchor
        # the annotation on the PR diff; line/title/message follow the
        # workflow-command grammar.
        assert f"file={(Path(root) / 'bad.py').as_posix()}" in line
        assert "line=3," in line
        assert "title=ERRNO-DISCIPLINE" in line
        assert line.count("::") == 2

    def test_changed_only_outside_git_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        root = write_tree(tmp_path / "tree", {"ok.py": "x = 1\n"})
        assert raelint_main([str(root), "--changed-only"]) == 2
        assert "requires a git checkout" in capsys.readouterr().err

    def test_changed_only_reports_only_changed_files(self, tmp_path, capsys):
        import subprocess

        bad = "try:\n    f()\nexcept Exception:\n    pass\n"
        root = write_tree(tmp_path, {"touched.py": "x = 1\n", "untouched.py": bad})

        def git(*argv):
            subprocess.run(
                ["git", *argv], cwd=root, check=True, capture_output=True,
                env={"PATH": "/usr/bin:/bin", "HOME": str(tmp_path),
                     "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                     "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"},
            )

        git("init", "-q")
        git("add", ".")
        git("commit", "-q", "-m", "seed")

        # untouched.py's finding is committed history; touched.py gains
        # one, and a brand-new untracked file brings another.
        (root / "touched.py").write_text(bad)
        (root / "fresh.py").write_text(bad)
        assert raelint_main([str(root), "--changed-only", "--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {f["path"] for f in payload["findings"]} == {"touched.py", "fresh.py"}

    def test_changed_only_skips_deleted_files(self, tmp_path, capsys):
        # A file deleted in the working tree shows up in `git diff HEAD`
        # but has nothing to analyze; it must be dropped from the
        # changed set, and the run must not crash trying to read it.
        import subprocess

        bad = "try:\n    f()\nexcept Exception:\n    pass\n"
        root = write_tree(tmp_path, {"doomed.py": bad, "ok.py": "x = 1\n"})

        def git(*argv):
            subprocess.run(
                ["git", *argv], cwd=root, check=True, capture_output=True,
                env={"PATH": "/usr/bin:/bin", "HOME": str(tmp_path),
                     "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                     "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"},
            )

        git("init", "-q")
        git("add", ".")
        git("commit", "-q", "-m", "seed")

        (root / "doomed.py").unlink()
        (root / "fresh.py").write_text(bad)

        assert raelint_main([str(root), "--changed-only", "--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # Only the untracked file is reported; doomed.py does not appear.
        assert {f["path"] for f in payload["findings"]} == {"fresh.py"}


# ---------------------------------------------------------------------------
# the rule registry and --select family names


class TestFamilySelect:
    def test_registry_pins_every_rule_and_family(self):
        # The exact rule set, in registration order: a rule cannot appear
        # or disappear without this test changing.
        assert rule_families() == {
            "core": (
                "SHADOW-PURITY", "SHADOW-REACH", "OPLOG-COVERAGE",
                "LOCK-RELEASE", "LOCK-ORDER",
                "REPLAY-DETERMINISM", "ERRNO-DISCIPLINE", "HOOK-REGISTRY",
            ),
            "contracts": (
                "ERRNO-PARITY", "EFFECT-CONTRACT", "API-PARITY", "STATE-PROTOCOL",
            ),
            "persistence": ("FLUSH-BARRIER", "PERSIST-ORDER"),
        }
        assert len(RULE_CLASSES) == 14
        assert len({cls.rule_id for cls in RULE_CLASSES}) == 14

    def test_rule_catalog_documents_exactly_the_registry(self):
        # docs/STATIC_ANALYSIS.md has one `### RULE-ID (severity)` section
        # per registered rule: a rule cannot be added or retired without
        # its documentation following.
        catalog = (REPO_ROOT / "docs" / "STATIC_ANALYSIS.md").read_text()
        documented = set(re.findall(r"^### ([A-Z0-9]+(?:-[A-Z0-9]+)*)(?: \(|$)", catalog, re.M))
        assert documented == {cls.rule_id for cls in RULE_CLASSES}

    def test_family_token_selects_only_that_family(self, tmp_path, capsys):
        # A persistence bug and nothing else: `--select persistence`
        # reports it, `--select contracts` stays silent on the same tree.
        root = write_tree(tmp_path, {
            "spec/persistence.py": ROLES_COMMIT_THEN_CHECKPOINT,
            "basefs/journal.py": UNFLUSHED_COMMIT,
        })
        assert raelint_main([str(root), "--select", "persistence", "--fail-on-findings"]) == 1
        assert "FLUSH-BARRIER" in capsys.readouterr().out
        assert raelint_main([str(root), "--select", "contracts", "--fail-on-findings"]) == 0

    def test_family_and_exact_id_tokens_mix(self, tmp_path, capsys):
        root = write_tree(tmp_path, {
            "spec/persistence.py": ROLES_COMMIT_THEN_CHECKPOINT,
            "basefs/journal.py": UNFLUSHED_COMMIT,
        })
        assert raelint_main([
            str(root), "--select", "contracts,SHADOW-PURITY", "--fail-on-findings",
        ]) == 0
        assert raelint_main([
            str(root), "--select", "contracts,FLUSH-BARRIER", "--fail-on-findings",
        ]) == 1

    def test_unknown_family_exits_two(self, tmp_path, capsys):
        assert raelint_main([str(tmp_path), "--select", "persistance"]) == 2
        err = capsys.readouterr().err
        assert "persistance" in err
        # The error teaches the vocabulary.
        assert "persistence" in err and "contracts" in err

    def test_list_rules_shows_families(self, capsys):
        assert raelint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "[persistence]" in out
        assert "[core]" in out

    def test_retired_commute_family_is_rejected(self, tmp_path, capsys):
        assert raelint_main([str(tmp_path), "--select", "commute"]) == 2
        assert "commute" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["concurrency", "RACE-LOCKSET", "JOURNAL-BEFORE-WRITE"])
    def test_retired_concurrency_and_journal_ids_are_rejected(self, tmp_path, capsys, token):
        assert raelint_main([str(tmp_path), "--select", token]) == 2
        assert token in capsys.readouterr().err

    def test_select_help_lists_the_registry_families(self, capsys):
        with pytest.raises(SystemExit):
            raelint_main(["--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"family name ({', '.join(rule_families())})" in help_text

    def test_retired_replay_matrix_emitter_is_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            raelint_main([str(tmp_path), "--emit-replay-matrix", str(tmp_path / "m.json")])
        assert exit_info.value.code == 2
        assert not (tmp_path / "m.json").exists()


# ---------------------------------------------------------------------------
# the shared rule context: memoized CFGs must not change behavior


class TestSharedContext:
    def test_cfgs_are_built_once_per_function(self):
        import ast

        from repro.analysis.engine import RuleContext

        func = ast.parse("def f():\n    if x:\n        return 1\n    return 2\n").body[0]
        context = RuleContext()
        assert context.cfg(func) is context.cfg(func)

    def test_shared_context_findings_match_isolated_runs(self, tmp_path):
        # The engine memoizes CFGs, the call graph and the family models
        # (``context.shared``) across the rule set; the report must be
        # identical to running every rule in its own Analyzer (fresh
        # caches).  Fixture trips flow, contract, and persistence rules
        # so every shared artifact is actually hit.
        root = write_tree(tmp_path, {
            "spec/contracts.py": CONTRACTS,
            "spec/persistence.py": ROLES_COMMIT_THEN_CHECKPOINT,
            "basefs/journal.py": UNFLUSHED_COMMIT,
            "shadowfs/filesystem.py": """
                import time

                class ShadowFilesystem(FilesystemAPI):
                    def unlink(self, path, opseq=0):
                        self._deny(path)

                    def _deny(self, path):
                        time.sleep(0)
                        raise FsError(Errno.EPERM, path)
            """,
            "basefs/ops.py": """
                def risky(locks, ino):
                    locks.acquire(ino)
                    might_raise()
                    locks.release(ino)
            """,
        })
        shared = analyze_tree(root)  # one Analyzer, one RuleContext
        shared_keys = {(f.path, f.line, f.rule_id, f.message) for f in shared.findings}
        isolated_keys = set()
        for rule in default_rules():
            report = analyze_tree(root, rules=[type(rule)()])
            isolated_keys |= {(f.path, f.line, f.rule_id, f.message) for f in report.findings}
        assert shared_keys == isolated_keys
        # The fixture reaches every shared artifact: CFGs (LOCK-RELEASE),
        # the call graph (REPLAY-DETERMINISM), the contract summaries
        # (ERRNO-PARITY) and the persistence model (FLUSH-BARRIER).
        assert {"LOCK-RELEASE", "REPLAY-DETERMINISM", "ERRNO-PARITY", "FLUSH-BARRIER"} <= {
            rule_id for _, _, rule_id, _ in shared_keys
        }


# ---------------------------------------------------------------------------
# the gate: the real tree stays clean


class TestTreeGate:
    def test_src_repro_is_clean(self):
        report = Analyzer(SRC_ROOT).run()
        assert report.clean, "raelint regressions:\n" + "\n".join(
            finding.render() for finding in report.findings
        )

    def test_every_rule_ran_over_a_nontrivial_tree(self):
        report = Analyzer(SRC_ROOT).run()
        assert report.files > 50

    def test_sanctioned_boundaries_are_suppressed_not_silent(self):
        # The detector boundary in the supervisor (and the other sanctioned
        # broad catches) must be visible as suppressions, not invisible.
        report = Analyzer(SRC_ROOT).run()
        assert report.suppressed >= 6
