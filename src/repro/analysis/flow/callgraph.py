"""A project-wide call graph over the modules raelint already parses.

Python has no static types, so a sound call graph is impossible — but
this codebase is disciplined enough that a *useful* one is cheap.  The
resolver works outward from what is certain:

1. **Names** resolve through the module's own defs and its imports
   (``from repro.ondisk.journal import replay_journal``); calling a
   class is an edge to its ``__init__``.
2. **``self.m(...)``** resolves through the enclosing class and its
   bases (by name, depth-first).
3. **Typed receivers**: a light type pass records attribute types from
   dataclass/class-body annotations and ``self.x = ClassName(...)``
   constructor assignments, parameter annotations, local
   ``x = ClassName(...)`` assignments, and return annotations — so
   ``self.journal.commit(...)`` lands on ``JournalManager.commit`` and
   ``record.op.apply(...)`` lands on ``FsOp.apply``.
4. **Name-based fallback** for untyped receivers: an edge to every
   project method with that name, but only when there are at most
   :data:`FALLBACK_CAP` candidates and the name is not a builtin
   collection method (``get``, ``append``, ``items`` ... are almost
   always ``dict``/``list`` traffic, and linking them would weld the
   whole graph together).

The result over-approximates where it links and under-approximates
where dispatch is truly dynamic (``getattr``); rules that consume it —
SHADOW-REACH, REPLAY-DETERMINISM — treat reachability as evidence and
report the concrete call chain so a human can audit the path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.engine import ParsedModule

#: Max same-named candidates an untyped attribute call may fan out to.
FALLBACK_CAP = 4

#: Container annotation roots whose subscript names the element type.
_CONTAINER_NAMES = frozenset({
    "list", "tuple", "set", "frozenset", "List", "Tuple", "Set", "FrozenSet",
    "Sequence", "Iterable", "Iterator", "Collection", "MutableSequence", "deque",
})

#: Builtin collection/str methods never resolved by name alone.
_BUILTIN_METHODS = frozenset({
    "get", "items", "keys", "values", "setdefault", "popitem", "update",
    "add", "discard", "pop", "append", "extend", "insert", "remove",
    "clear", "sort", "reverse", "copy", "count", "index",
    "join", "split", "rsplit", "strip", "lstrip", "rstrip", "splitlines",
    "encode", "decode", "format", "startswith", "endswith", "lower",
    "upper", "title", "replace", "zfill", "hex", "to_bytes", "ljust",
    "rjust", "most_common",
})


def _key(path: str, qualname: str) -> str:
    return f"{path}::{qualname}"


@dataclass
class DefInfo:
    """One function/method definition."""

    key: str
    path: str
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_key: str | None = None  # owning class, for methods

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    key: str
    path: str
    qualname: str
    node: ast.ClassDef
    methods: dict[str, str] = field(default_factory=dict)  # name -> def key
    attr_types: dict[str, str] = field(default_factory=dict)  # attr -> class key
    base_names: list[str] = field(default_factory=list)
    base_keys: list[str] = field(default_factory=list)


class CallGraph:
    """Defs, classes, and call edges for a parsed module set."""

    def __init__(self, modules: Sequence[ParsedModule]):
        self.modules = list(modules)
        self.defs: dict[str, DefInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.edges: dict[str, set[str]] = {}
        self.call_sites: dict[tuple[str, str], ast.Call] = {}
        # per-module: name -> ("def", key) | ("class", key) | ("module", path)
        self._scope: dict[str, dict[str, tuple[str, str]]] = {}
        self._methods_by_name: dict[str, list[str]] = {}
        self._paths = {m.path for m in self.modules}
        self._index()
        self._bind_imports()
        self._link_bases()
        self._infer_attr_types()
        self._build_edges()

    # ------------------------------------------------------------------
    # pass 1: index defs, classes, imports

    def _module_for_dotted(self, dotted: str) -> str | None:
        """Map an import string (``repro.basefs.locks``) onto a parsed
        module path (``basefs/locks.py``) by longest-suffix match."""
        parts = dotted.split(".")
        for start in range(len(parts)):
            tail = parts[start:]
            candidate = "/".join(tail) + ".py"
            if candidate in self._paths:
                return candidate
            candidate = "/".join(tail) + "/__init__.py"
            if candidate in self._paths:
                return candidate
        return None

    def _index(self) -> None:
        for module in self.modules:
            scope: dict[str, tuple[str, str]] = {}
            self._scope[module.path] = scope
            self._index_body(module.path, module.tree.body, prefix="", class_key=None, scope=scope)

    def _index_body(
        self,
        path: str,
        body: list[ast.stmt],
        prefix: str,
        class_key: str | None,
        scope: dict[str, tuple[str, str]],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{stmt.name}"
                key = _key(path, qualname)
                self.defs[key] = DefInfo(key=key, path=path, qualname=qualname, node=stmt, class_key=class_key)
                if class_key is not None:
                    self.classes[class_key].methods.setdefault(stmt.name, key)
                    self._methods_by_name.setdefault(stmt.name, []).append(key)
                elif not prefix:
                    scope.setdefault(stmt.name, ("def", key))
                # Nested defs are indexed with a dotted qualname; their
                # own nesting is handled when edges are built.
                self._index_body(path, stmt.body, prefix=qualname + ".", class_key=None, scope=scope)
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{prefix}{stmt.name}"
                key = _key(path, qualname)
                info = ClassInfo(
                    key=key,
                    path=path,
                    qualname=qualname,
                    node=stmt,
                    base_names=[ast.unparse(b) for b in stmt.bases],
                )
                self.classes[key] = info
                if not prefix:
                    scope.setdefault(stmt.name, ("class", key))
                self._index_body(path, stmt.body, prefix=qualname + ".", class_key=key, scope=scope)
            # Imports are bound in a separate pass (_bind_imports) once
            # every module's defs and classes are indexed; resolving them
            # here would make the graph depend on module indexing order.

    def _bind_imports(self) -> None:
        """Pass 1b: bind imports into each module's scope.

        Runs after :meth:`_index` has seen *every* module, so a
        ``from repro.basefs.vfs import FdTable`` in a module that sorts
        before ``basefs/vfs.py`` still resolves — resolving during the
        indexing walk made bindings (and therefore typed edges) depend
        on the alphabetical indexing order.  Imports anywhere in the
        file bind the module scope, including ones nested under
        ``if TYPE_CHECKING:`` or ``try`` fallbacks.
        """
        for module in self.modules:
            scope = self._scope[module.path]
            for stmt in ast.walk(module.tree):
                if isinstance(stmt, ast.Import):
                    for alias in stmt.names:
                        target = self._module_for_dotted(alias.name)
                        if target is not None:
                            scope[alias.asname or alias.name.split(".")[0]] = ("module", target)
                elif isinstance(stmt, ast.ImportFrom):
                    if stmt.module is None:
                        continue
                    target = self._module_for_dotted(stmt.module)
                    if target is None:
                        continue
                    for alias in stmt.names:
                        bound = alias.asname or alias.name
                        resolved = self._lookup_in_module(target, alias.name)
                        if resolved is not None:
                            scope[bound] = resolved
                        else:
                            submodule = self._module_for_dotted(f"{stmt.module}.{alias.name}")
                            if submodule is not None:
                                scope[bound] = ("module", submodule)

    def _lookup_in_module(self, path: str, name: str) -> tuple[str, str] | None:
        for kind, store in (("def", self.defs), ("class", self.classes)):
            key = _key(path, name)
            if key in store:
                return (kind, key)
        return None

    def _link_bases(self) -> None:
        for info in self.classes.values():
            for base in info.base_names:
                resolved = self._resolve_class_name(info.path, base.split("[")[0].split(".")[-1])
                if resolved is not None:
                    info.base_keys.append(resolved)

    def _resolve_class_name(self, path: str, name: str) -> str | None:
        entry = self._scope.get(path, {}).get(name)
        if entry is not None and entry[0] == "class":
            return entry[1]
        key = _key(path, name)
        return key if key in self.classes else None

    # ------------------------------------------------------------------
    # pass 2: attribute types

    def _class_from_annotation(self, path: str, ann: ast.expr | None) -> str | None:
        if ann is None:
            return None
        if isinstance(ann, ast.Name):
            return self._resolve_class_name(path, ann.id)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            return self._resolve_class_name(path, ann.value.strip("'\""))
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            return self._class_from_annotation(path, ann.left) or self._class_from_annotation(path, ann.right)
        if isinstance(ann, ast.Attribute):
            return self._resolve_class_name(path, ann.attr)
        return None

    def _class_of_call(self, path: str, call: ast.Call) -> str | None:
        """The class constructed by ``call``, if its callee is a class."""
        func = call.func
        if isinstance(func, ast.Name):
            entry = self._scope.get(path, {}).get(func.id)
            if entry is not None and entry[0] == "class":
                return entry[1]
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            entry = self._scope.get(path, {}).get(func.value.id)
            if entry is not None and entry[0] == "module":
                resolved = self._lookup_in_module(entry[1], func.attr)
                if resolved is not None and resolved[0] == "class":
                    return resolved[1]
        return None

    def _infer_attr_types(self) -> None:
        for info in self.classes.values():
            for stmt in info.node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    cls = self._class_from_annotation(info.path, stmt.annotation)
                    if cls is not None:
                        info.attr_types[stmt.target.id] = cls
            for method_key in info.methods.values():
                method = self.defs[method_key]
                for node in ast.walk(method.node):
                    target: ast.expr | None = None
                    value: ast.expr | None = None
                    ann: ast.expr | None = None
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target, value, ann = node.target, node.value, node.annotation
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    cls = self._class_from_annotation(info.path, ann)
                    if cls is None and isinstance(value, ast.Call):
                        cls = self._class_of_call(info.path, value)
                    if cls is not None:
                        info.attr_types.setdefault(target.attr, cls)

    # ------------------------------------------------------------------
    # pass 3: edges

    def _build_edges(self) -> None:
        for info in self.defs.values():
            self.edges[info.key] = set()
            locals_types = self._local_types(info)
            for call in self._own_calls(info.node):
                for callee in self._resolve_call(info, call, locals_types):
                    self.edges[info.key].add(callee)
                    self.call_sites.setdefault((info.key, callee), call)

    @staticmethod
    def _own_calls(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.Call]:
        """Call expressions in ``func``'s own body, not in nested defs."""
        calls: list[ast.Call] = []
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(node, ast.Call):
                calls.append(node)
            stack.extend(ast.iter_child_nodes(node))
        return calls

    def _element_class(self, path: str, ann: ast.expr | None) -> str | None:
        """``Sequence[FsOp]`` / ``list[OpRecord]`` -> the element class."""
        if not isinstance(ann, ast.Subscript):
            return None
        root = ann.value
        root_name = root.id if isinstance(root, ast.Name) else getattr(root, "attr", "")
        if root_name not in _CONTAINER_NAMES:
            return None
        inner: ast.expr = ann.slice
        if isinstance(inner, ast.Tuple) and inner.elts:
            inner = inner.elts[0]
        return self._class_from_annotation(path, inner)

    def _local_types(self, info: DefInfo) -> dict[str, str]:
        """Parameter annotations + ``x = ClassName(...)`` assignments +
        loop targets over typed containers."""
        types: dict[str, str] = {}
        elem_types: dict[str, str] = {}
        args = info.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            cls = self._class_from_annotation(info.path, arg.annotation)
            if cls is not None:
                types[arg.arg] = cls
            elem = self._element_class(info.path, arg.annotation)
            if elem is not None:
                elem_types[arg.arg] = elem

        def elem_of(expr: ast.expr) -> str | None:
            if isinstance(expr, ast.Name):
                return elem_types.get(expr.id)
            if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) and expr.args:
                if expr.func.id in {"sorted", "list", "tuple", "reversed", "iter"}:
                    return elem_of(expr.args[0])
            return None

        def bind_loop(target: ast.expr, it: ast.expr) -> None:
            # `for index, x in enumerate(ops)` types x like `for x in ops`.
            if (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id == "enumerate"
                and it.args
                and isinstance(target, ast.Tuple)
                and len(target.elts) == 2
            ):
                target, it = target.elts[1], it.args[0]
            if isinstance(target, ast.Name):
                cls = elem_of(it)
                if cls is not None:
                    types.setdefault(target.id, cls)

        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                # Constructor calls, typed-attribute reads (op = record.op),
                # and typed-returning calls all flow into the local.
                cls = self._type_of(info, node.value, types)
                if cls is not None:
                    types.setdefault(node.targets[0].id, cls)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                bind_loop(node.target, node.iter)
            elif isinstance(node, ast.comprehension):
                bind_loop(node.target, node.iter)
        return types

    def _method_in_class(self, class_key: str, name: str, seen: set[str] | None = None) -> str | None:
        """Resolve a method through the class and its bases (DFS)."""
        seen = seen or set()
        if class_key in seen or class_key not in self.classes:
            return None
        seen.add(class_key)
        info = self.classes[class_key]
        if name in info.methods:
            return info.methods[name]
        for base in info.base_keys:
            found = self._method_in_class(base, name, seen)
            if found is not None:
                return found
        return None

    def _type_of(self, info: DefInfo, expr: ast.expr, locals_types: dict[str, str]) -> str | None:
        """Best-effort class of ``expr`` inside ``info``'s body."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and info.class_key is not None:
                return info.class_key
            if expr.id in locals_types:
                return locals_types[expr.id]
            entry = self._scope.get(info.path, {}).get(expr.id)
            if entry is not None and entry[0] == "class":
                return entry[1]  # the class object itself: Superblock.unpack
            return None
        if isinstance(expr, ast.Attribute):
            owner = self._type_of(info, expr.value, locals_types)
            if owner is not None:
                return self._attr_type(owner, expr.attr)
            return None
        if isinstance(expr, ast.Call):
            cls = self._class_of_call(info.path, expr)
            if cls is not None:
                return cls
            callee = self._resolve_callable(info, expr.func, locals_types)
            if callee is not None:
                returns = self.defs[callee].node.returns
                return self._class_from_annotation(self.defs[callee].path, returns)
            return None
        return None

    def _attr_type(self, class_key: str, attr: str, seen: set[str] | None = None) -> str | None:
        seen = seen or set()
        if class_key in seen or class_key not in self.classes:
            return None
        seen.add(class_key)
        info = self.classes[class_key]
        if attr in info.attr_types:
            return info.attr_types[attr]
        for base in info.base_keys:
            found = self._attr_type(base, attr, seen)
            if found is not None:
                return found
        return None

    def _resolve_callable(
        self, info: DefInfo, func: ast.expr, locals_types: dict[str, str]
    ) -> str | None:
        """Resolve ``func`` to a single def key when unambiguous."""
        if isinstance(func, ast.Name):
            # Nested function of the current def?
            nested = _key(info.path, f"{info.qualname}.{func.id}")
            if nested in self.defs:
                return nested
            entry = self._scope.get(info.path, {}).get(func.id)
            if entry is None:
                return None
            if entry[0] == "def":
                return entry[1]
            if entry[0] == "class":
                return self._method_in_class(entry[1], "__init__")
            return None
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name):
                entry = self._scope.get(info.path, {}).get(func.value.id)
                if entry is not None and entry[0] == "module":
                    resolved = self._lookup_in_module(entry[1], func.attr)
                    if resolved is None:
                        return None
                    if resolved[0] == "def":
                        return resolved[1]
                    return self._method_in_class(resolved[1], "__init__")
            owner = self._type_of(info, func.value, locals_types)
            if owner is not None:
                return self._method_in_class(owner, func.attr)
        return None

    def _resolve_call(
        self, info: DefInfo, call: ast.Call, locals_types: dict[str, str]
    ) -> list[str]:
        resolved = self._resolve_callable(info, call.func, locals_types)
        if resolved is not None:
            return [resolved]
        # Untyped attribute receiver: capped name-based fallback.
        if isinstance(call.func, ast.Attribute):
            name = call.func.attr
            if name.startswith("__") or name in _BUILTIN_METHODS:
                return []
            candidates = self._methods_by_name.get(name, [])
            if 0 < len(candidates) <= FALLBACK_CAP:
                return list(candidates)
        return []

    # ------------------------------------------------------------------
    # queries

    def call_edges(self, key: str) -> list[tuple[ast.Call, list[str]]]:
        """Per-call-site resolution for ``key``: every call expression in
        the def's own body together with the callee keys it resolves to
        (empty-resolution calls are omitted).  Unlike :attr:`edges`, this
        keeps call sites distinct, which interprocedural summaries need —
        the same callee can be reached from differently-guarded sites."""
        info = self.defs[key]
        locals_types = self._local_types(info)
        sites: list[tuple[ast.Call, list[str]]] = []
        for call in self._own_calls(info.node):
            callees = self._resolve_call(info, call, locals_types)
            if callees:
                sites.append((call, sorted(callees)))
        sites.sort(key=lambda item: (getattr(item[0], "lineno", 0), getattr(item[0], "col_offset", 0)))
        return sites

    def reachable(self, roots: Iterable[str]) -> dict[str, str | None]:
        """BFS over call edges; returns ``{reached_key: parent_key}``
        (roots map to ``None``), so callers can rebuild a witness chain."""
        parents: dict[str, str | None] = {}
        queue: list[str] = []
        for root in roots:
            if root in self.defs and root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for callee in sorted(self.edges.get(current, ())):
                if callee not in parents:
                    parents[callee] = current
                    queue.append(callee)
        return parents

    def chain(self, parents: dict[str, str | None], target: str) -> list[str]:
        """The witness call chain from a root to ``target``."""
        path: list[str] = []
        cursor: str | None = target
        while cursor is not None:
            path.append(cursor)
            cursor = parents.get(cursor)
        return list(reversed(path))


def render_chain(graph: CallGraph, keys: list[str]) -> str:
    """``a -> b -> c`` with short method names for finding messages."""
    return " -> ".join(graph.defs[k].qualname if k in graph.defs else k for k in keys)
