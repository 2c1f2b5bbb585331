"""Extraction of the declared concurrency spec from the analyzed tree.

Like the contract rules, the concurrency rules *parse* their
declarations out of the tree (``spec/concurrency.py``) rather than
importing the runtime module, so they work on the synthetic fixture
trees the test suite builds under ``tmp_path`` and are silent on trees
that declare nothing.

Two literals are recognized:

* ``SHARED_CLASSES`` — a tuple of class names whose instances are (or
  are about to be) reachable from more than one thread or task.  The
  registry complements the model's *inferred* seeds (``threading.Thread``
  targets, executor submits, asyncio task creation): registering a class
  turns the checks on **before** the concurrent caller lands, which is
  the whole point — that caller inherits a race detector on day one.
* ``GUARDED_BY`` — ``{"Class.attr": "lock token"}``.  The token names
  the lock that must be in the may-held lockset at every write of the
  attribute (``"self._lock"`` matches both ``self._lock.acquire()`` /
  ``with self._lock:`` idioms; tokens compare by their final name
  component, see :func:`repro.analysis.concurrency.model.norm_token`).
  The sentinel :data:`GUARD_SINGLE_THREADED` declares an attribute
  intentionally unsynchronized while its owner is still driven by one
  thread — a written-down, argued sanction, exactly like
  ``shadow_extra`` in the contract table, that must flip to a real lock
  token when the concurrent front-end lands.

Misdeclarations raise :class:`ConcurrencyConfigError`, which the CLI
reports as exit code 2: a guard that names a class or attribute that
does not exist protects nothing, and silently skipping it would let the
registry rot.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Sequence

from repro.analysis.engine import ParsedModule

#: Sentinel guard: the attribute is declared shared for the coming arc
#: but its owner is single-threaded today; accesses are sanctioned until
#: a real lock token replaces this.
GUARD_SINGLE_THREADED = "<single-threaded>"

_CONCURRENCY_FILENAME = "concurrency.py"


class ConcurrencyConfigError(Exception):
    """A ``SHARED_CLASSES``/``GUARDED_BY`` declaration that cannot bind
    to the analyzed tree.  Reported by the CLI as exit 2 (configuration
    error), never as a finding."""

    def __init__(self, path: str, line: int, message: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


@dataclass
class ConcurrencyDecls:
    """The parsed concurrency spec of one analyzed tree."""

    module: ParsedModule
    shared_classes: tuple[str, ...] = ()
    guards: dict[str, str] = field(default_factory=dict)  # "Class.attr" -> token
    lines: dict[str, int] = field(default_factory=dict)  # decl -> source line

    def line_of(self, decl: str) -> int:
        return self.lines.get(decl, 1)


def _spec_module(modules: Sequence[ParsedModule]) -> ParsedModule | None:
    for module in modules:
        path = PurePosixPath(module.path)
        if path.name == _CONCURRENCY_FILENAME and "spec" in path.parts:
            return module
    return None


def declared_concurrency(modules: Sequence[ParsedModule]) -> ConcurrencyDecls | None:
    """The ``SHARED_CLASSES``/``GUARDED_BY`` literals from
    ``spec/concurrency.py``, or ``None`` when the tree declares no
    concurrency spec (the rules are then not applicable)."""
    module = _spec_module(modules)
    if module is None:
        return None
    decls = ConcurrencyDecls(module=module)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Assign):
            continue
        targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if "SHARED_CLASSES" in targets:
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                raise ConcurrencyConfigError(
                    module.path, node.lineno, "SHARED_CLASSES must be a pure literal"
                )
            if not isinstance(value, (tuple, list)) or not all(
                isinstance(item, str) and item for item in value
            ):
                raise ConcurrencyConfigError(
                    module.path, node.lineno, "SHARED_CLASSES must be a tuple of class names"
                )
            decls.shared_classes = tuple(value)
            decls.lines["SHARED_CLASSES"] = node.lineno
            if isinstance(node.value, (ast.Tuple, ast.List)):
                for elt in node.value.elts:
                    try:
                        decls.lines[ast.literal_eval(elt)] = elt.lineno
                    except ValueError:  # pragma: no cover - guarded above
                        pass
        elif "GUARDED_BY" in targets:
            if not isinstance(node.value, ast.Dict):
                raise ConcurrencyConfigError(
                    module.path, node.lineno, "GUARDED_BY must be a literal dict"
                )
            for key_node, value_node in zip(node.value.keys, node.value.values):
                try:
                    key = ast.literal_eval(key_node) if key_node is not None else None
                    value = ast.literal_eval(value_node)
                except ValueError:
                    raise ConcurrencyConfigError(
                        module.path,
                        getattr(key_node, "lineno", node.lineno),
                        "GUARDED_BY entries must be pure literals",
                    )
                line = getattr(key_node, "lineno", node.lineno)
                if not isinstance(key, str) or key.count(".") != 1:
                    raise ConcurrencyConfigError(
                        module.path, line, f"GUARDED_BY key {key!r} is not 'Class.attr'"
                    )
                if not isinstance(value, str) or not value:
                    raise ConcurrencyConfigError(
                        module.path, line, f"GUARDED_BY[{key!r}] must be a lock token string"
                    )
                decls.guards[key] = value
                decls.lines[key] = line
    return decls
