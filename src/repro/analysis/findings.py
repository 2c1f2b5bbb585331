"""Structured findings emitted by raelint rules.

A finding is one violation of one structural invariant: rule id,
severity, location (path relative to the analyzed root, 1-based line),
and a human-readable message.  Findings are value objects — the engine
sorts, deduplicates, and suppresses them by content, so they are frozen.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True, order=True)
class Finding:
    path: str
    line: int
    rule_id: str
    severity: Severity
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.severity.value} [{self.rule_id}] {self.message}"

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
        }
