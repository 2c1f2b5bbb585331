"""raelint — AST-based static analysis for RAE's structural invariants.

The paper's argument rests on structural discipline that, before this
package, was only enforced at runtime: the shadow must stay simple,
sequential, cache-free and never write to disk (``ShadowWriteAttempt``
catches violations only when they execute); the base must record every
state-separating operation before reporting success; locks must be
released on all paths; errors must flow through the catalog so the
detector can classify them; hook names must hit the registry or injected
faults silently never fire.  raelint checks all of that at lint time,
SquirrelFS-style, so invariant drift is caught in CI before it ever
reaches a fault-injection run.

Library API::

    from repro.analysis import analyze_tree
    report = analyze_tree("src/repro")
    assert report.clean, report.summary()

CLI::

    python -m repro.analysis src/repro --fail-on-findings

See docs/STATIC_ANALYSIS.md for the rule catalog, suppression syntax
(``# raelint: disable=RULE-ID``), and focused-run options.
"""

from repro.analysis.engine import (
    Analyzer,
    FileRule,
    ParsedModule,
    ProjectRule,
    Report,
    Rule,
    analyze_tree,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import RULE_CLASSES, default_rules

__all__ = [
    "Analyzer",
    "analyze_tree",
    "FileRule",
    "Finding",
    "ParsedModule",
    "ProjectRule",
    "Report",
    "Rule",
    "RULE_CLASSES",
    "Severity",
    "default_rules",
]
