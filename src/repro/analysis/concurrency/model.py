"""The shared-state model: which objects are reachable from multiple
threads/tasks, and under which locks each of their attributes is touched.

The model is the static half of an Eraser-style race detector.  It
answers two questions for the consuming rules:

1. **What is shared?**  A class is shared when the tree hands one of its
   bound methods (or an instance) to another thread of control — a
   ``threading.Thread(target=...)``, an executor ``submit``, an asyncio
   task creation — or when it is registered in the declared
   ``SHARED_CLASSES`` registry (``spec/concurrency.py``).  Each shared
   class carries a *seed reason*; findings repeat it so a reviewer can
   see why the checker believes the object escapes.
2. **Under what locks is each attribute touched?**  Every attribute
   access whose receiver resolves (via the call graph's type pass) to a
   shared class becomes an :class:`AccessSite` with the may-held lockset
   at that program point, computed by :class:`ConcurrencyLockset` — the
   PR 2 lockset domain extended with ``threading``-style no-argument
   ``lock.acquire()``/``release()`` pairs — plus the locks implied by
   enclosing ``with <lock>:`` blocks.

Two deliberate exemptions keep the model honest rather than noisy:

* accesses inside the owning class's ``__init__``/``__post_init__`` via
  ``self`` are exempt (Eraser's initialization window: the object cannot
  have escaped to a second thread while it is being constructed);
* container *reads* are reads, but calling a mutating method on an
  attribute (``self.entries.append(...)``) is a **write** to that
  attribute — supervisor-side state lives in dicts and lists, and a
  detector that only saw rebinding assignments would miss nearly all of
  it.

Lock tokens are compared by their final name component
(:func:`norm_token`): ``self._lock``, ``mgr._lock`` and a ``GUARDED_BY``
value of ``"self._lock"`` all normalize to ``_lock``.  That is a
deliberate over-approximation — two different locks with the same
attribute name alias — chosen because the codebase names locks uniquely
and the alternative (path-sensitive alias analysis) buys little here.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.analysis.concurrency.declared import (
    ConcurrencyConfigError,
    ConcurrencyDecls,
    declared_concurrency,
)
from repro.analysis.engine import ParsedModule, RuleContext
from repro.analysis.flow.cfg import CFG
from repro.analysis.flow.dataflow import (
    ACQUIRE_METHODS,
    RELEASE_METHODS,
    DataflowAnalysis,
    lock_call,
    lock_receiver,
    ordered_calls,
    solve,
)
from repro.analysis.rules.shadow_reach import graph_for

#: Mutating container methods: calling one on a shared attribute is a
#: write access to that attribute (same philosophy as SHADOW-REACH's
#: cache-mutator list).
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "add", "update",
    "setdefault", "pop", "popitem", "popleft", "remove", "discard",
    "clear", "sort", "reverse", "push",
})

#: Thread-constructor names whose ``target=`` escapes to a new thread.
_THREAD_CLASS_NAMES = frozenset({"Thread", "Timer"})

#: Receiver-name hints for executor ``submit`` calls.
_EXECUTOR_HINTS = ("executor", "pool")

#: asyncio task-creation entry points (``asyncio.create_task(...)`` or a
#: loop/TaskGroup method): their coroutine argument runs in another task.
_TASK_METHODS = frozenset({"create_task", "ensure_future", "gather", "run_coroutine_threadsafe"})


def norm_token(text: str) -> str:
    """Normalize a lock token to its final name component."""
    return text.split("(")[0].split("[")[0].split(".")[-1].strip()


def apply_guard_call(held: frozenset[str], call: ast.Call) -> frozenset[str]:
    """One acquire/release applied to a normalized may-held lockset.

    Covers both lock idioms in the tree: the ``LockManager`` convention
    (``locks.acquire(ino)`` — token is the normalized argument) and the
    ``threading`` convention (``self._lock.acquire()`` with no arguments
    — token is the normalized receiver).
    """
    if lock_call(call, ACQUIRE_METHODS):
        if call.args:
            args = call.args[:2] if call.func.attr == "acquire_pair" else call.args[:1]  # type: ignore[union-attr]
            return held | {norm_token(ast.unparse(arg)) for arg in args}
        return held | {norm_token(ast.unparse(call.func.value))}  # type: ignore[union-attr]
    if lock_call(call, RELEASE_METHODS):
        if call.func.attr == "release_all":  # type: ignore[union-attr]
            return frozenset()
        if call.args:
            return held - {norm_token(ast.unparse(call.args[0]))}
        return held - {norm_token(ast.unparse(call.func.value))}  # type: ignore[union-attr]
    return held


class ConcurrencyLockset(DataflowAnalysis[frozenset]):
    """Forward may-held lockset over normalized tokens; the concurrency
    rules' shared instantiation of the PR 2 lockset domain."""

    direction = "forward"

    def boundary(self) -> frozenset:
        return frozenset()

    def initial(self) -> frozenset:
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def transfer(self, node, value: frozenset) -> frozenset:
        for call in ordered_calls(node.payload):
            value = apply_guard_call(value, call)
        return value


def own_nodes(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Every AST node in ``func``'s own body, not entering nested
    function/class/lambda bodies (those belong to their own defs)."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def with_lock_tokens(module: ParsedModule, node: ast.AST) -> frozenset[str]:
    """Normalized tokens of lock-ish ``with``/``async with`` context
    managers lexically enclosing ``node`` within its function."""
    tokens: set[str] = set()
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            break
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                if lock_receiver(item.context_expr):
                    tokens.add(norm_token(ast.unparse(item.context_expr)))
    return frozenset(tokens)


def enclosing_stmt(cfg: CFG, module: ParsedModule, node: ast.AST) -> ast.stmt | None:
    """The innermost statement owning ``node`` that has a CFG node."""
    cursor: ast.AST | None = node
    while cursor is not None:
        if isinstance(cursor, ast.stmt) and cfg.node_of(cursor) is not None:
            return cursor
        cursor = module.parent(cursor)
    return None


def lockset_at(
    cfg: CFG,
    values,
    module: ParsedModule,
    node: ast.AST,
) -> frozenset[str]:
    """The may-held lockset at ``node``'s program point: the fixpoint
    value *before* its statement, plus any acquire/release in the same
    statement positioned before the node itself."""
    stmt = enclosing_stmt(cfg, module, node)
    if stmt is None:
        return frozenset()
    cfg_node = cfg.node_of(stmt)
    held = values[cfg_node.index].before
    pos = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
    for call in ordered_calls(cfg_node.payload):
        if (getattr(call, "lineno", 0), getattr(call, "col_offset", 0)) < pos:
            held = apply_guard_call(held, call)
    return held


@dataclass
class AccessSite:
    """One attribute access on a shared class."""

    attr_key: str  # "Class.attr"
    def_key: str  # enclosing definition
    path: str
    line: int
    kind: str  # "read" | "write" | "rmw"
    held: frozenset[str]  # normalized may-held lockset (incl. with-blocks)
    node: ast.AST  # the ast.Attribute access itself
    in_async: bool = False  # enclosing def is async


class SharedStateModel:
    """Shared classes, their seed reasons, and every access site."""

    def __init__(self, modules: Sequence[ParsedModule], decls: ConcurrencyDecls, graph):
        self.modules = modules
        self.decls = decls
        self.graph = graph
        self.by_path = {module.path: module for module in modules}
        #: class key -> human-readable reason the class is shared
        self.shared: dict[str, str] = {}
        #: "Class.attr" -> access sites, source order
        self.accesses: dict[str, list[AccessSite]] = {}
        #: "Class.attr" -> declared guard token (resolved by simple name)
        self.guards: dict[str, str] = dict(decls.guards)
        self._class_attr_names: dict[str, set[str]] = {}
        self._validate_and_seed_registry()
        self._seed_escapes()
        self._collect_accesses()

    # -- seeding -------------------------------------------------------

    def _classes_named(self, name: str) -> list[str]:
        return sorted(
            key
            for key, info in self.graph.classes.items()
            if info.qualname == name or info.qualname.endswith("." + name)
        )

    def _attr_names(self, class_key: str) -> set[str]:
        """Every attribute name the class declares or assigns: class-body
        annotations/assignments (dataclass fields) plus any ``self.x``
        mention in its methods."""
        cached = self._class_attr_names.get(class_key)
        if cached is not None:
            return cached
        names: set[str] = set()
        info = self.graph.classes[class_key]
        for stmt in info.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
            elif isinstance(stmt, ast.Assign):
                names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
        for node in ast.walk(info.node):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                names.add(node.attr)
        self._class_attr_names[class_key] = names
        return names

    def _validate_and_seed_registry(self) -> None:
        spec_path = self.decls.module.path
        for name in self.decls.shared_classes:
            keys = self._classes_named(name)
            if not keys:
                raise ConcurrencyConfigError(
                    spec_path,
                    self.decls.line_of(name),
                    f"SHARED_CLASSES names unknown class {name!r} "
                    f"(not defined anywhere in the analyzed tree)",
                )
            for key in keys:
                self.shared.setdefault(key, "declared in SHARED_CLASSES (spec/concurrency.py)")
        for decl in self.decls.guards:
            cls_name, attr = decl.split(".")
            keys = self._classes_named(cls_name)
            if not keys:
                raise ConcurrencyConfigError(
                    spec_path,
                    self.decls.line_of(decl),
                    f"GUARDED_BY declares a guard for unknown class {cls_name!r}",
                )
            if not any(attr in self._attr_names(key) for key in keys):
                raise ConcurrencyConfigError(
                    spec_path,
                    self.decls.line_of(decl),
                    f"GUARDED_BY declares a guard for nonexistent attribute "
                    f"{decl!r} ({cls_name} has no such attribute) — a guard "
                    f"that cannot bind protects nothing",
                )

    def _mark_shared(self, class_key: str | None, reason: str) -> None:
        if class_key is not None and class_key in self.graph.classes:
            self.shared.setdefault(class_key, reason)

    def _escaping_exprs(self, call: ast.Call) -> tuple[str, list[ast.expr]] | None:
        """If ``call`` hands work to another thread/task, the escaping
        expressions (callables and their arguments), with a seed kind."""
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in _THREAD_CLASS_NAMES:
            escapes: list[ast.expr] = []
            for kw in call.keywords:
                if kw.arg == "target":
                    escapes.append(kw.value)
                elif kw.arg in ("args", "kwargs") and isinstance(kw.value, (ast.Tuple, ast.List)):
                    escapes.extend(kw.value.elts)
            if escapes:
                return "threading.Thread target", escapes
            return None
        if isinstance(func, ast.Attribute) and name == "submit":
            receiver = func.value
            final = receiver.attr if isinstance(receiver, ast.Attribute) else getattr(receiver, "id", "")
            if any(hint in final.lower() for hint in _EXECUTOR_HINTS):
                return "executor submit", list(call.args) + [kw.value for kw in call.keywords]
            return None
        if name in _TASK_METHODS:
            is_asyncio = (
                isinstance(func, ast.Attribute)
                or name in ("gather",)  # bare `gather(...)` after from-import
            )
            if is_asyncio:
                return "asyncio task creation", list(call.args)
        return None

    def _seed_from_expr(self, def_key: str, locals_types: dict[str, str], expr: ast.expr, reason: str) -> None:
        if isinstance(expr, (ast.Tuple, ast.List)):
            for elt in expr.elts:
                self._seed_from_expr(def_key, locals_types, elt, reason)
            return
        if isinstance(expr, ast.Starred):
            self._seed_from_expr(def_key, locals_types, expr.value, reason)
            return
        if isinstance(expr, ast.Await):
            self._seed_from_expr(def_key, locals_types, expr.value, reason)
            return
        if isinstance(expr, ast.Call):
            # A coroutine call handed to create_task: the receiver of the
            # called method escapes, and so do the call's own arguments.
            if isinstance(expr.func, ast.Attribute):
                self._mark_shared(
                    self.graph.expr_class(def_key, expr.func.value, locals_types), reason
                )
            for arg in expr.args:
                self._seed_from_expr(def_key, locals_types, arg, reason)
            return
        if isinstance(expr, ast.Attribute):
            # A bound method `obj.worker`: obj's class escapes.
            self._mark_shared(self.graph.expr_class(def_key, expr.value, locals_types), reason)
            return
        if isinstance(expr, ast.Name):
            self._mark_shared(self.graph.expr_class(def_key, expr, locals_types), reason)

    def _seed_escapes(self) -> None:
        for def_key in sorted(self.graph.defs):
            info = self.graph.defs[def_key]
            locals_types: dict[str, str] | None = None
            for node in own_nodes(info.node):
                if not isinstance(node, ast.Call):
                    continue
                escaping = self._escaping_exprs(node)
                if escaping is None:
                    continue
                kind, exprs = escaping
                if locals_types is None:
                    locals_types = self.graph.local_types(def_key)
                reason = f"escapes via {kind} at {info.path}:{node.lineno}"
                for expr in exprs:
                    self._seed_from_expr(def_key, locals_types, expr, reason)

    # -- access collection ---------------------------------------------

    def _attr_key(self, class_key: str, attr: str) -> str:
        info = self.graph.classes[class_key]
        simple = info.qualname.split(".")[-1]
        return f"{simple}.{attr}"

    def _access_kind(self, module: ParsedModule, node: ast.Attribute) -> str | None:
        if isinstance(node.ctx, ast.Store):
            parent = module.parent(node)
            if isinstance(parent, ast.AugAssign) and parent.target is node:
                return "rmw"
            return "write"
        if isinstance(node.ctx, ast.Del):
            return "write"
        parent = module.parent(node)
        if (
            isinstance(parent, ast.Attribute)
            and parent.value is node
            and parent.attr in MUTATOR_METHODS
        ):
            grand = module.parent(parent)
            if isinstance(grand, ast.Call) and grand.func is parent:
                return "write"
        return "read"

    def _collect_accesses(self) -> None:
        if not self.shared:
            return
        for def_key in sorted(self.graph.defs):
            info = self.graph.defs[def_key]
            module = self.by_path.get(info.path)
            if module is None:
                continue
            in_init = info.class_key in self.shared and info.name in ("__init__", "__post_init__")
            locals_types: dict[str, str] | None = None
            sites: list[tuple[str, ast.Attribute, str]] = []
            for node in own_nodes(info.node):
                if not isinstance(node, ast.Attribute):
                    continue
                if locals_types is None:
                    locals_types = self.graph.local_types(def_key)
                owner = self.graph.expr_class(def_key, node.value, locals_types)
                if owner is None or owner not in self.shared:
                    continue
                # Initialization window: `self.x = ...` inside the shared
                # class's own __init__ happens before the object can
                # escape to a second thread.
                if (
                    in_init
                    and owner == info.class_key
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    continue
                kind = self._access_kind(module, node)
                if kind is None:
                    continue
                sites.append((self._attr_key(owner, node.attr), node, kind))
            if not sites:
                continue
            cfg = self._cfg(info.node)
            values = solve(cfg, ConcurrencyLockset())
            is_async = isinstance(info.node, ast.AsyncFunctionDef)
            for attr_key, node, kind in sites:
                held = lockset_at(cfg, values, module, node) | with_lock_tokens(module, node)
                self.accesses.setdefault(attr_key, []).append(
                    AccessSite(
                        attr_key=attr_key,
                        def_key=def_key,
                        path=info.path,
                        line=getattr(node, "lineno", info.line),
                        kind=kind,
                        held=held,
                        node=node,
                        in_async=is_async,
                    )
                )
        for sites in self.accesses.values():
            sites.sort(key=lambda s: (s.path, s.line))

    # The model is built either under a RuleContext (engine runs, CFGs
    # shared with the flow rules) or standalone (direct library use).
    _context: RuleContext | None = None

    def _cfg(self, func):
        if self._context is not None:
            return self._context.cfg(func)
        from repro.analysis.flow.cfg import build_cfg

        return build_cfg(func)

    # -- queries -------------------------------------------------------

    def reason(self, attr_key: str) -> str:
        """Why the owning class of ``attr_key`` is considered shared."""
        simple = attr_key.split(".")[0]
        for key in self._classes_named(simple):
            if key in self.shared:
                return self.shared[key]
        return "shared"

    def shared_attr_keys(self) -> list[str]:
        return sorted(self.accesses)


# One model per module set, mirroring graph_for/summaries_for: rules
# running under the engine share the RuleContext store; the module-level
# cache covers direct invocation (unit tests, library callers).
_MODEL_CACHE: list[tuple[Sequence[ParsedModule], SharedStateModel | None]] = []


def model_for(
    modules: Sequence[ParsedModule], context: RuleContext | None = None
) -> SharedStateModel | None:
    """The shared-state model for ``modules``, or ``None`` when the tree
    declares no concurrency spec.  Raises
    :class:`ConcurrencyConfigError` on unbindable declarations."""
    if context is not None:
        key = ("concurrency-model", id(modules))
        if key in context.shared:
            return context.shared[key]
        model = _build(modules, context)
        context.shared[key] = model
        return model
    for cached_modules, model in _MODEL_CACHE:
        if cached_modules is modules:
            return model
    model = _build(modules, None)
    _MODEL_CACHE.append((modules, model))
    del _MODEL_CACHE[:-2]
    return model


def _build(
    modules: Sequence[ParsedModule], context: RuleContext | None
) -> SharedStateModel | None:
    decls = declared_concurrency(modules)
    if decls is None:
        return None
    graph = graph_for(modules, context)
    model = SharedStateModel.__new__(SharedStateModel)
    model._context = context
    model.__init__(modules, decls, graph)
    return model
