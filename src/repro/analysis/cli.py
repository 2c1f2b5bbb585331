"""The raelint command line.

    python -m repro.analysis [ROOT] [options]

Analyzes ROOT (default ``src/repro``) with the full rule set, reports
findings, and — with ``--fail-on-findings`` — exits nonzero when any
finding survives inline suppression.  ``--format=json`` emits a
machine-readable report for CI.

``--changed-only`` narrows *reporting* to files touched in the working
tree (``git diff HEAD`` plus untracked files): project rules still
analyze every module — cross-file invariants need the full set — but
only findings in changed files are reported, which keeps pre-commit
runs fast and focused.  ``--select`` narrows the rule set by rule id or
family name.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from repro.analysis.engine import Analyzer
from repro.analysis.findings import Finding
from repro.analysis.persistence import PersistenceConfigError
from repro.analysis.rules import default_rules, rule_families


def _github_annotation(finding: Finding, root: Path) -> str:
    """One GitHub workflow command per finding.

    The ``file=`` property must be repo-relative for GitHub to anchor
    the annotation on the PR diff; finding paths are analysis-root-
    relative, so rejoin them with the root as given on the command line
    (CI invokes raelint from the repo root with ``src/repro``).
    Newlines in messages would terminate the command early — GitHub's
    escaping convention is URL-encoding them.
    """
    path = finding.path if root.is_file() else (root / finding.path).as_posix()
    message = finding.message.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    return f"::error file={path},line={finding.line},title={finding.rule_id}::{message}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raelint",
        description="AST-based static analysis enforcing RAE's structural invariants",
    )
    parser.add_argument(
        "root",
        nargs="?",
        default="src/repro",
        help="directory (or single file) to analyze [default: src/repro]",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="report format; 'github' emits workflow-command annotations "
        "(::error file=...) that GitHub renders inline on the PR diff "
        "[default: text]",
    )
    parser.add_argument(
        "--fail-on-findings",
        action="store_true",
        help="exit 1 when any finding is reported",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the rule set and exit",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="report findings only for files changed in git (diff against "
        "HEAD plus untracked); project rules still see the whole tree",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULE[,RULE...]",
        help="run only the named rules; each token is a rule id or a "
        f"family name ({', '.join(rule_families())}) "
        "selecting every rule in it (comma-separated)",
    )
    parser.add_argument(
        "--changed-since",
        default=None,
        metavar="REF",
        help="with --changed-only: diff against `git merge-base REF HEAD` "
        "instead of the working tree, so CI PR runs scope to the PR's "
        "delta (e.g. --changed-since origin/main)",
    )
    return parser


def _changed_paths(root: Path, since: str | None = None) -> set[str] | None:
    """Root-relative paths of files changed in the enclosing git
    checkout, or ``None`` when git is unavailable or ``root`` is not in
    a checkout.  By default: tracked changes against HEAD plus untracked
    files (the dirty working tree).  With ``since``, the diff base is
    ``git merge-base since HEAD`` instead — the PR's delta — which is
    what a CI pull-request run wants; untracked files still count."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            cwd=root if root.is_dir() else root.parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        diff_base = "HEAD"
        if since is not None:
            diff_base = subprocess.run(
                ["git", "merge-base", since, "HEAD"],
                cwd=top,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
        diff = subprocess.run(
            ["git", "diff", "--name-only", diff_base],
            cwd=top,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            cwd=top,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None

    resolved_root = root.resolve()
    changed: set[str] = set()
    for line in (diff + untracked).splitlines():
        if not line.strip() or not line.endswith(".py"):
            continue
        candidate = (Path(top) / line).resolve()
        if not candidate.is_file():
            continue  # deleted or renamed away: nothing to analyze
        if resolved_root.is_file():
            if candidate == resolved_root:
                changed.add(resolved_root.name)  # matches Analyzer._relpath
            continue
        try:
            rel = candidate.relative_to(resolved_root)
        except ValueError:
            continue  # changed, but outside the analyzed tree
        changed.add(rel.as_posix())
    return changed


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id:20} [{rule.family}] {rule.description}")
        return 0

    if args.select:
        tokens = {part.strip() for part in args.select.split(",") if part.strip()}
        known = {rule.rule_id for rule in rules}
        families = rule_families()
        wanted: set[str] = set()
        unknown: list[str] = []
        for token in sorted(tokens):
            if token in known:
                wanted.add(token)
            elif token in families:
                wanted.update(families[token])
            else:
                unknown.append(token)
        if unknown:
            print(
                f"raelint: unknown rule id(s) or famil(ies): {', '.join(unknown)} "
                f"(families: {', '.join(sorted(families))})",
                file=sys.stderr,
            )
            return 2
        rules = [rule for rule in rules if rule.rule_id in wanted]

    root = Path(args.root)
    if not root.exists():
        print(f"raelint: no such path: {root}", file=sys.stderr)
        return 2

    only_paths: set[str] | None = None
    if args.changed_since and not args.changed_only:
        print("raelint: --changed-since requires --changed-only", file=sys.stderr)
        return 2
    if args.changed_only:
        only_paths = _changed_paths(root, since=args.changed_since)
        if only_paths is None:
            print("raelint: --changed-only requires a git checkout", file=sys.stderr)
            return 2
        if not only_paths:
            print("raelint: no changed files under the analyzed root")
            return 0

    try:
        report = Analyzer(root, rules=rules, only_paths=only_paths).run()
    except PersistenceConfigError as error:
        # A spec/persistence.py declaration that cannot bind is a broken
        # configuration, not a finding: report it like a bad --select.
        print(f"raelint: persistence spec error: {error}", file=sys.stderr)
        return 2

    if args.format == "github":
        for finding in report.findings:
            print(_github_annotation(finding, root))
        print(report.summary())
    elif args.format == "json":
        findings = [f.to_json() for f in report.findings]
        payload = {
            "files": report.files,
            "findings": findings,
            # Every reported finding fails the gate; the key stays for
            # consumers of the report format.
            "new": findings,
            "suppressed": report.suppressed,
            "clean": report.clean,
        }
        print(json.dumps(payload, indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        print(report.summary())

    if args.fail_on_findings and not report.clean:
        return 1
    return 0
