"""The raelint rule engine.

The engine parses every ``.py`` file under an analysis root into a
:class:`ParsedModule` (source, AST, parent links, inline suppressions),
runs two kinds of rules over them, and folds the results through the
inline-suppression filter:

* :class:`FileRule` — examines one module at a time (purity, exception
  discipline, lock pairing);
* :class:`ProjectRule` — sees every module at once, for invariants that
  span files (the oplog recording chain, the hook-name registry).

Suppression syntax, modeled on the usual linter convention::

    self.hooks.fire(name)  # raelint: disable=HOOK-REGISTRY — reason

A directive on a comment-only line applies to the next line instead; the
id ``all`` disables every rule for that line.  A finding is either
fixed or suppressed at its site with its argument; there is no central
accept-list.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.findings import Finding, Severity

_SUPPRESS_RE = re.compile(r"#\s*raelint:\s*disable=([A-Za-z0-9_\-, ]+)")

#: Rule id attached to files the engine cannot parse.
PARSE_ERROR_RULE = "PARSE-ERROR"


@dataclass
class ParsedModule:
    """One source file, parsed and indexed for rule visitors."""

    path: str  # relative to the analysis root, '/'-separated
    source: str
    tree: ast.Module
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    _parents: dict[ast.AST, ast.AST] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, source: str) -> "ParsedModule":
        tree = ast.parse(source)
        module = cls(path=path, source=source, tree=tree)
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                module._parents[child] = parent
        module._index_suppressions()
        return module

    def _index_suppressions(self) -> None:
        lines = self.source.splitlines()
        for lineno, text in enumerate(lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if not match:
                continue
            ids = {part.strip() for part in re.split(r"[,\s]", match.group(1)) if part.strip()}
            # A directive can name several ids; trailing prose after an
            # em-dash or '#' is already excluded by the character class.
            if text.lstrip().startswith("#"):
                # A comment-only directive governs the next line of *code*:
                # skip past blank lines and other comments (including further
                # directives, which stack onto the same code line).
                target = lineno + 1
                while target <= len(lines) and (
                    not lines[target - 1].strip()
                    or lines[target - 1].lstrip().startswith("#")
                ):
                    target += 1
            else:
                target = lineno
            self.suppressions.setdefault(target, set()).update(ids)

    def suppressed(self, line: int, rule_id: str) -> bool:
        active = self.suppressions.get(line, ())
        return rule_id in active or "all" in active

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)


class RuleContext:
    """Shared, memoized analysis artifacts for one analyzer run.

    The flow, contract, and persistence rule families all want the same
    expensive intermediates — per-function CFGs, the project call graph,
    interprocedural summaries, the persistence model.  Before this
    existed every rule rebuilt its own CFGs, so one ``make lint`` built
    each function's graph up to five times.  The :class:`Analyzer` now
    creates one context per run and installs it on every rule; rules
    reach shared artifacts through ``self.context``.

    * :meth:`cfg` memoizes per function *node* (identity), which is
      sound because the parsed trees are owned by the run that owns
      this context — the node cannot be reparsed underneath us.
    * :meth:`graph` memoizes the project call graph per module *list*
      (identity), matching how the engine hands the same sequence to
      every project rule.
    * :attr:`shared` is an open store for rule families to stash
      heavier derived artifacts (contract summaries, the persistence
      model) under family-chosen keys.
    """

    def __init__(self) -> None:
        self._cfgs: dict[int, object] = {}
        self._graphs: list[tuple[Sequence["ParsedModule"], object]] = []
        self.shared: dict = {}

    def cfg(self, func: ast.FunctionDef | ast.AsyncFunctionDef):
        """The (memoized) CFG for one function definition."""
        cached = self._cfgs.get(id(func))
        if cached is None:
            from repro.analysis.flow.cfg import build_cfg

            cached = build_cfg(func)
            self._cfgs[id(func)] = cached
        return cached

    def graph(self, modules: Sequence["ParsedModule"]):
        """The (memoized) project call graph for one module set."""
        for cached_modules, graph in self._graphs:
            if cached_modules is modules:
                return graph
        from repro.analysis.flow.callgraph import CallGraph

        graph = CallGraph(modules)
        self._graphs.append((modules, graph))
        return graph


class Rule:
    """Base class: identity and metadata shared by both rule kinds."""

    rule_id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    #: Rule family (``core``, ``contracts``, ``persistence``):
    #: ``--select`` accepts a family name as shorthand for every rule in
    #: it.
    family: str = "core"
    _context: RuleContext | None = None

    @property
    def context(self) -> RuleContext:
        """The run-shared :class:`RuleContext`.

        The engine installs one shared context before running the rule
        set; a rule invoked directly (unit tests, library use) lazily
        gets a private one, so ``self.context.cfg(...)`` is always safe.
        """
        if self._context is None:
            self._context = RuleContext()
        return self._context

    def finding(self, module: ParsedModule, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
        )


class FileRule(Rule):
    def check(self, module: ParsedModule) -> Iterable[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    def check_project(self, modules: Sequence[ParsedModule]) -> Iterable[Finding]:
        raise NotImplementedError


@dataclass
class Report:
    """The outcome of one analysis run."""

    files: int = 0
    findings: list[Finding] = field(default_factory=list)  # post-suppression
    suppressed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        # Every reported finding fails the gate, so "new" repeats the
        # count; the line's shape is kept for whoever parses it.
        return (
            f"raelint: {self.files} files analyzed, "
            f"{len(self.findings)} findings "
            f"({self.suppressed} suppressed inline), "
            f"{len(self.findings)} new"
        )


class Analyzer:
    """Run a rule set over a source tree.

    ``root`` may be a directory (analyzed recursively) or a single
    ``.py`` file.  Finding paths are relative to the directory root so
    reports are stable no matter where the tool is invoked from.
    """

    def __init__(
        self,
        root: str | Path,
        rules: Sequence[Rule] | None = None,
        only_paths: Iterable[str] | None = None,
    ):
        from repro.analysis.rules import default_rules

        self.root = Path(root)
        self.rules = list(rules) if rules is not None else default_rules()
        # Restrict *reporting* to these root-relative paths (None = all).
        # Project rules still parse and analyze the whole tree — cross-file
        # invariants are only meaningful over the full module set — but
        # file rules skip unselected modules and findings outside the
        # selection are dropped.
        self.only_paths = set(only_paths) if only_paths is not None else None

    def _source_files(self) -> list[Path]:
        if self.root.is_file():
            return [self.root]
        return sorted(p for p in self.root.rglob("*.py") if "__pycache__" not in p.parts)

    def _relpath(self, path: Path) -> str:
        if self.root.is_file():
            return path.name
        return path.relative_to(self.root).as_posix()

    def parse_all(self) -> tuple[list[ParsedModule], list[Finding]]:
        modules: list[ParsedModule] = []
        parse_errors: list[Finding] = []
        for path in self._source_files():
            relpath = self._relpath(path)
            source = path.read_text()
            try:
                modules.append(ParsedModule.parse(relpath, source))
            except SyntaxError as exc:
                parse_errors.append(
                    Finding(
                        path=relpath,
                        line=exc.lineno or 1,
                        rule_id=PARSE_ERROR_RULE,
                        severity=Severity.ERROR,
                        message=f"file does not parse: {exc.msg}",
                    )
                )
        return modules, parse_errors

    def _selected(self, path: str) -> bool:
        return self.only_paths is None or path in self.only_paths

    def run(self) -> Report:
        modules, parse_errors = self.parse_all()
        # One shared context per run: CFGs and the call graph are built
        # once and reused across every rule family (see RuleContext).
        context = RuleContext()
        for rule in self.rules:
            rule._context = context
        raw: list[Finding] = [f for f in parse_errors if self._selected(f.path)]
        for rule in self.rules:
            if isinstance(rule, ProjectRule):
                raw.extend(f for f in rule.check_project(modules) if self._selected(f.path))
            else:
                for module in modules:
                    if self._selected(module.path):
                        raw.extend(rule.check(module))

        report = Report(files=len(modules) + len(parse_errors))
        by_module = {module.path: module for module in modules}
        # Explicit sort key: Severity is not orderable, and the report
        # order must be stable for CI diffs.
        for finding in sorted(
            set(raw),
            key=lambda f: (f.path, f.line, f.rule_id, f.severity.value, f.message),
        ):
            module = by_module.get(finding.path)
            if module is not None and module.suppressed(finding.line, finding.rule_id):
                report.suppressed += 1
                continue
            report.findings.append(finding)
        return report


def analyze_tree(root: str | Path, rules: Sequence[Rule] | None = None) -> Report:
    """Library entry point: analyze ``root`` and return the report."""
    return Analyzer(root, rules=rules).run()
