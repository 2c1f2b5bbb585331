"""Extraction of the declared persistence spec from the analyzed tree.

Like the contract family, the persistence rules
*parse* their declarations out of the tree (``spec/persistence.py``)
rather than importing the runtime module, so they work on the synthetic
fixture trees the test suite builds under ``tmp_path`` and are silent on
trees that declare nothing.

Two literals are recognized:

* ``DURABILITY_PROTOCOL`` — ``{function: {"phases": (...), "events":
  {...}}}``: the ordered typestate PERSIST-ORDER enforces per declared
  function.  Phases come from the closed kind vocabulary; a ``"?"``
  suffix marks a skippable phase.  ``events`` maps delegated calls
  (``"receiver.method"``) to the kind they count as.
* ``WRITE_SITE_ROLES`` — ``{function: (kind, ...)}``: source-ordered
  roles for raw ``write_block`` sites; undeclared sites default to
  ``checkpoint``.

Shape errors (unknown kind, malformed entry) raise
:class:`PersistenceConfigError` at parse time; binding errors (a name
that matches no function, a role table of the wrong arity) are raised
later by the model, with the declaration's source line.  Both reach the
CLI as exit code 2 — configuration errors, never findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Sequence

from repro.analysis.engine import ParsedModule

#: The closed vocabulary of persistence-point kinds.
PERSIST_KINDS = (
    "journal-write",
    "commit-record",
    "barrier",
    "checkpoint",
    "data-write",
)

_PERSISTENCE_FILENAME = "persistence.py"


class PersistenceConfigError(Exception):
    """A persistence declaration that cannot bind to the analyzed tree
    (or is malformed).  Reported by the CLI as exit 2 (configuration
    error), never as a finding."""

    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


@dataclass
class PersistenceDecls:
    """The parsed persistence spec of one analyzed tree."""

    module: ParsedModule
    #: function -> (phases tuple with optional "?" suffixes, events map)
    protocols: dict[str, tuple[tuple[str, ...], dict[str, str]]] = field(default_factory=dict)
    #: function -> source-ordered write_block roles
    site_roles: dict[str, tuple[str, ...]] = field(default_factory=dict)
    lines: dict[str, int] = field(default_factory=dict)  # decl key -> source line

    def line_of(self, decl: str) -> int:
        return self.lines.get(decl, 1)


def _spec_module(modules: Sequence[ParsedModule]) -> ParsedModule | None:
    for module in modules:
        path = PurePosixPath(module.path)
        if path.name == _PERSISTENCE_FILENAME and "spec" in path.parts:
            return module
    return None


def _check_kind(path: str, line: int, kind: str, *, optional_ok: bool, where: str) -> None:
    base = kind[:-1] if optional_ok and kind.endswith("?") else kind
    if base not in PERSIST_KINDS:
        raise PersistenceConfigError(
            path, line, f"{where}: {kind!r} is not a persistence kind {PERSIST_KINDS}"
        )


def _literal_entries(module, node, table):
    """(key, value, line) triples of a literal dict assignment."""
    if not isinstance(node.value, ast.Dict):
        raise PersistenceConfigError(module.path, node.lineno, f"{table} must be a literal dict")
    for key_node, value_node in zip(node.value.keys, node.value.values):
        try:
            key = ast.literal_eval(key_node) if key_node is not None else None
            value = ast.literal_eval(value_node)
        except ValueError:
            raise PersistenceConfigError(
                module.path,
                getattr(key_node, "lineno", node.lineno),
                f"{table} entries must be pure literals",
            )
        line = getattr(key_node, "lineno", node.lineno)
        if not isinstance(key, str) or not key:
            raise PersistenceConfigError(
                module.path, line, f"{table} key {key!r} must be a function name"
            )
        yield key, value, line


def declared_persistence(modules: Sequence[ParsedModule]) -> PersistenceDecls | None:
    """The persistence literals from ``spec/persistence.py``, or ``None``
    when the tree declares no persistence spec (the rules are then not
    applicable)."""
    module = _spec_module(modules)
    if module is None:
        return None
    decls = PersistenceDecls(module=module)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Assign):
            continue
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if "DURABILITY_PROTOCOL" in targets:
            for key, value, line in _literal_entries(module, node, "DURABILITY_PROTOCOL"):
                if (
                    not isinstance(value, dict)
                    or set(value) != {"phases", "events"}
                    or not isinstance(value["phases"], (tuple, list))
                    or not value["phases"]
                    or not isinstance(value["events"], dict)
                ):
                    raise PersistenceConfigError(
                        module.path,
                        line,
                        f"DURABILITY_PROTOCOL[{key!r}] must be "
                        "{'phases': non-empty tuple, 'events': dict}",
                    )
                phases = tuple(value["phases"])
                for phase in phases:
                    if not isinstance(phase, str):
                        raise PersistenceConfigError(
                            module.path, line, f"DURABILITY_PROTOCOL[{key!r}] phase {phase!r}"
                        )
                    _check_kind(
                        module.path, line, phase, optional_ok=True,
                        where=f"DURABILITY_PROTOCOL[{key!r}]",
                    )
                events: dict[str, str] = {}
                for ev, kind in value["events"].items():
                    if not isinstance(ev, str) or not ev or not isinstance(kind, str):
                        raise PersistenceConfigError(
                            module.path, line,
                            f"DURABILITY_PROTOCOL[{key!r}] events must map "
                            "'receiver.method' to a kind",
                        )
                    _check_kind(
                        module.path, line, kind, optional_ok=False,
                        where=f"DURABILITY_PROTOCOL[{key!r}] event {ev!r}",
                    )
                    events[ev] = kind
                decls.protocols[key] = (phases, events)
                decls.lines[key] = line
        elif "WRITE_SITE_ROLES" in targets:
            for key, value, line in _literal_entries(module, node, "WRITE_SITE_ROLES"):
                if not isinstance(value, (tuple, list)) or not value:
                    raise PersistenceConfigError(
                        module.path, line,
                        f"WRITE_SITE_ROLES[{key!r}] must be a non-empty tuple of kinds",
                    )
                for kind in value:
                    if not isinstance(kind, str):
                        raise PersistenceConfigError(
                            module.path, line, f"WRITE_SITE_ROLES[{key!r}] role {kind!r}"
                        )
                    _check_kind(
                        module.path, line, kind, optional_ok=False,
                        where=f"WRITE_SITE_ROLES[{key!r}]",
                    )
                decls.site_roles[key] = tuple(value)
                decls.lines[key] = line
    return decls
