"""The persistence-effect model: every durability-relevant call site in
``basefs/``, ``ondisk/`` and ``blockdev/``, classified and summarized.

The model is the static half of the crash-consistency story (the crash
sweep, ``docs/FAULT_SWEEP.md``, is the dynamic half).  It answers two
questions for the consuming rules:

1. **Where are the persistence points?**  Every call site in scope that
   hits the device — ``write_block``, a device ``flush``, a blkmq
   submit, a cache writeback — becomes a :class:`PersistPoint` with a
   kind from the closed vocabulary (``journal-write`` / ``commit-record``
   / ``barrier`` / ``checkpoint`` / ``data-write``).  Kinds come from
   the declared ``WRITE_SITE_ROLES`` table (source-ordered, arity
   checked); an undeclared ``write_block`` defaults to ``checkpoint``,
   the kind FLUSH-BARRIER treats as dangerous, so mislabeling fails
   loud.  Delegation sites (a ``write_block`` method forwarding to an
   inner device's ``write_block``) are not points: the *call into* the
   device stack is the point, not the stack's plumbing.

2. **Can an unflushed commit record be overtaken?**  A forward dataflow
   per function tracks the set of ``(pending, no_barrier)`` states —
   ``pending`` is the location of a commit-record write not yet followed
   by a device flush; ``no_barrier`` records whether any barrier has
   happened since function entry.  Function summaries (normal-exit
   outcomes plus the earliest checkpoint-before-barrier site) compose
   through the PR-2 call graph to a fixpoint, so
   ``JournalWriter.append`` sealing its commit record with a flush makes
   ``JournalManager.commit``'s subsequent writeback provably safe — and
   removing that flush makes the writeback a FLUSH-BARRIER violation in
   the *caller*, with the callee named in the message.  Summaries join
   only **normal**-exit paths: an exception propagates past the call, so
   the caller's continuation never pairs with a callee path that raised.

Declarations that cannot bind to the tree raise
:class:`PersistenceConfigError` (CLI exit 2), never findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Sequence

from repro.analysis.engine import ParsedModule, RuleContext
from repro.analysis.flow.callgraph import CallGraph, DefInfo
from repro.analysis.flow.cfg import CFG, CFGNode, build_cfg
from repro.analysis.flow.dataflow import FORWARD, DataflowAnalysis, ordered_calls, solve
from repro.analysis.persistence.declared import (
    PersistenceConfigError,
    PersistenceDecls,
    declared_persistence,
)
from repro.analysis.rules.shadow_reach import graph_for

#: Module path components that are in persistence scope.
SCOPE_PARTS = frozenset({"basefs", "ondisk", "blockdev"})

#: Receiver final-name hints that make a bare ``flush()`` a device
#: barrier (``self.device.flush()``, ``dev.flush()``, ...) rather than a
#: file/stream flush.
_DEVICE_RECEIVERS = frozenset({"device", "dev", "disk", "blkdev", "inner", "_inner", "blkmq"})

#: Method names the primitive classifier owns; a def with one of these
#: names forwarding to the same-named method is delegation, not a point.
_PRIMITIVE_METHODS = frozenset({
    "write_block", "flush", "submit_write", "submit_flush", "writeback", "writeback_some",
})


def in_scope(path: str) -> bool:
    return bool(SCOPE_PARTS & set(PurePosixPath(path).parts))


def _method_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _receiver_final(call: ast.Call) -> str | None:
    """Final name component of the call's receiver (``self.device.flush``
    -> ``device``), or ``None`` for plain-name calls."""
    if not isinstance(call.func, ast.Attribute):
        return None
    value = call.func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


def event_name(call: ast.Call) -> str | None:
    """``receiver.method`` key for the DURABILITY_PROTOCOL events map
    (``self.writer.append(...)`` -> ``"writer.append"``)."""
    method = _method_name(call)
    if method is None:
        return None
    receiver = _receiver_final(call)
    return f"{receiver}.{method}" if receiver is not None else method


@dataclass(frozen=True)
class PersistPoint:
    """One classified durability-relevant call site."""

    kind: str
    path: str
    line: int
    func_key: str


@dataclass(frozen=True)
class FlushViolation:
    """A checkpoint/data write that can overtake an unflushed commit
    record on some path."""

    func_key: str
    path: str
    line: int  # anchor: the offending site (or the call into it)
    origin: tuple[str, int]  # the unflushed commit-record write
    site: tuple[str, int]  # the overtaking in-place write
    via: str | None  # callee qualname when the write is inside a callee


@dataclass(frozen=True)
class DefSummary:
    """Persistence effect of one function, for callers.

    ``outcomes`` — one ``(pending, barrier_done)`` pair per normal-exit
    path: ``pending`` is the commit-record write left unflushed at
    return (or ``None``), ``barrier_done`` whether the path executed a
    device flush.  ``cpb_site`` — the earliest checkpoint/data write
    that executes before *any* barrier since function entry (directly or
    transitively), i.e. the write a caller's pending commit record would
    race; ``None`` when every in-place write is behind a barrier.
    """

    outcomes: frozenset  # of (tuple[str, int] | None, bool)
    cpb_site: tuple[str, int] | None = None


#: Identity summary for unanalyzed callees: returns normally, no writes,
#: no barrier — composition leaves the caller's state untouched.
_NEUTRAL = DefSummary(outcomes=frozenset({(None, False)}))


def normal_exit_preds(cfg: CFG, compound_fallback: bool = False) -> list[int]:
    """EXIT predecessors that represent *normal* completion.

    Every statement node carries an exceptional edge to EXIT, so "is a
    pred of EXIT" alone means almost nothing.  The precise anchors are
    statement preds whose *sole* successor is EXIT (a ``return`` or the
    final statement falling off the end, but not a ``raise``) plus the
    entry node of an empty body.  Branch/loop/with preds are ambiguous —
    their EXIT edge may be the normal fall-off of a trailing compound
    statement *or* a mid-function exceptional edge — so they are
    excluded, **except** when ``compound_fallback`` is set and no
    precise anchor exists at all: a function whose body *ends* in a
    compound statement still returns, and summary composition must not
    treat it as never returning.
    """
    precise, compound = [], []
    for index in sorted(cfg.nodes[cfg.exit].pred):
        node = cfg.nodes[index]
        if node.kind == "entry":
            precise.append(index)
        elif node.kind == "stmt":
            if node.succ == {cfg.exit} and not isinstance(node.stmt, ast.Raise):
                precise.append(index)
        else:
            compound.append(index)
    if precise or not compound_fallback:
        return precise
    return compound


class _PendingRecordAnalysis(DataflowAnalysis):
    """May-analysis over ``(pending commit record, no barrier yet)``
    state sets; the transfer is delegated to the model so the reporting
    pass can rerun it with collection enabled."""

    direction = FORWARD

    def __init__(self, model: "PersistenceModel", plan: dict):
        self._model = model
        self._plan = plan

    def boundary(self) -> frozenset:
        return frozenset({(None, True)})

    def initial(self) -> frozenset:
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def transfer(self, node: CFGNode, value: frozenset) -> frozenset:
        return self._model._step(self._plan, node, value, collect=None)


class PersistenceModel:
    """Classified points, composed summaries and violations for one
    analyzed tree."""

    def __init__(self, modules: Sequence[ParsedModule], decls: PersistenceDecls,
                 context: RuleContext | None = None):
        self.decls = decls
        self._context = context
        self.graph: CallGraph = graph_for(modules, context)
        #: in-scope defs, keyed like the call graph
        self.scope: dict[str, DefInfo] = {
            key: info for key, info in self.graph.defs.items() if in_scope(info.path)
        }
        #: def key -> {id(call): ("primitive", kind, (path, line)) | ("call", [keys])}
        self._plans: dict[str, dict] = {}
        self.points: list[PersistPoint] = []
        self.summaries: dict[str, DefSummary] = {}
        self.violations: list[FlushViolation] = []

        self._bind_declarations()
        self._build_plans()
        self._solve_summaries()
        self._collect_violations()

    # -- binding -------------------------------------------------------

    def _bound_defs(self, name: str) -> list[DefInfo]:
        """In-scope defs a declaration key binds to: exact qualname
        matches when any exist, else bare-name matches."""
        exact = [i for i in self.scope.values() if i.qualname == name]
        if exact:
            return sorted(exact, key=lambda i: i.key)
        return sorted(
            (i for i in self.scope.values() if i.name == name), key=lambda i: i.key
        )

    def _bind_declarations(self) -> None:
        decls = self.decls
        for table, keys in (
            ("DURABILITY_PROTOCOL", decls.protocols),
            ("WRITE_SITE_ROLES", decls.site_roles),
        ):
            for key in keys:
                if not self._bound_defs(key):
                    raise PersistenceConfigError(
                        decls.module.path, decls.line_of(key),
                        f"{table}[{key!r}] names no function in "
                        "basefs/ondisk/blockdev",
                    )

    # -- classification ------------------------------------------------

    def _roles_for(self, info: DefInfo) -> tuple[str, ...] | None:
        roles = self.decls.site_roles.get(info.qualname)
        if roles is None:
            roles = self.decls.site_roles.get(info.name)
        return roles

    def _classify_primitive(self, info: DefInfo, call: ast.Call) -> str | None:
        method = _method_name(call)
        if method is None or method not in _PRIMITIVE_METHODS:
            return None
        if method == info.name:
            return None  # delegation: a wrapper forwarding to its inner device
        if method == "write_block":
            return "checkpoint"  # positional role applied by _build_plan
        if method == "flush":
            receiver = _receiver_final(call)
            if receiver is not None and receiver in _DEVICE_RECEIVERS:
                return "barrier"
            return None
        if method == "submit_write":
            return "data-write"
        if method == "submit_flush":
            return "barrier"
        # writeback / writeback_some on a cache-named receiver: an
        # in-place home write driven from outside the cache class.
        receiver = _receiver_final(call)
        if receiver is not None and "cache" in receiver:
            return "checkpoint"
        return None

    def _build_plans(self) -> None:
        graph = self.graph
        for key in sorted(self.scope):
            info = self.scope[key]
            plan: dict = {}
            callees_by_call = {
                id(call): [k for k in callees if k in self.scope]
                for call, callees in graph.call_edges(key)
            }
            calls = sorted(
                graph._own_calls(info.node),
                key=lambda c: (getattr(c, "lineno", 0), getattr(c, "col_offset", 0)),
            )
            write_sites = []
            for call in calls:
                kind = self._classify_primitive(info, call)
                if kind is not None:
                    loc = (info.path, getattr(call, "lineno", info.line))
                    plan[id(call)] = ("primitive", kind, loc)
                    if _method_name(call) == "write_block":
                        write_sites.append(call)
                elif callees_by_call.get(id(call)):
                    plan[id(call)] = ("call", callees_by_call[id(call)])
            roles = self._roles_for(info)
            if roles is not None:
                if len(roles) != len(write_sites):
                    line = self.decls.lines.get(
                        info.qualname, self.decls.lines.get(info.name, 1)
                    )
                    raise PersistenceConfigError(
                        self.decls.module.path,
                        line,
                        f"WRITE_SITE_ROLES for {info.qualname!r} declares "
                        f"{len(roles)} write_block sites, the function has "
                        f"{len(write_sites)}",
                    )
                for call, role in zip(write_sites, roles):
                    _, _, loc = plan[id(call)]
                    plan[id(call)] = ("primitive", role, loc)
            self._plans[key] = plan
            for action in plan.values():
                if action[0] == "primitive":
                    self.points.append(
                        PersistPoint(kind=action[1], path=action[2][0],
                                     line=action[2][1], func_key=key)
                    )
        self.points.sort(key=lambda p: (p.path, p.line, p.kind))

    # -- interprocedural summaries -------------------------------------

    def _cfg(self, func):
        if self._context is not None:
            return self._context.cfg(func)
        return build_cfg(func)

    def _step(self, plan: dict, node: CFGNode, states: frozenset,
              collect: dict | None) -> frozenset:
        """Transfer one CFG node; with ``collect`` set, also record
        FLUSH-BARRIER violations and checkpoint-before-barrier sites."""
        for call in ordered_calls(node.payload):
            action = plan.get(id(call))
            if action is None:
                continue
            if action[0] == "primitive":
                _, kind, loc = action
                if kind == "commit-record":
                    states = frozenset({(loc, nb) for _, nb in states})
                elif kind == "barrier":
                    states = frozenset({(None, False)}) if states else states
                elif kind in ("checkpoint", "data-write"):
                    if collect is not None:
                        for origin, nb in sorted(states, key=repr):
                            if origin is not None:
                                collect["violations"].append(
                                    (origin, loc, loc, None)
                                )
                        if any(nb for _, nb in states):
                            collect["cpb"].append(loc)
                # journal-write: redundant by design, no state change
            else:
                summaries = [self.summaries.get(k, _NEUTRAL) for k in action[1]]
                if collect is not None:
                    call_loc = (collect["path"], getattr(call, "lineno", 0))
                    for callee_key, summary in zip(action[1], summaries):
                        if summary.cpb_site is None:
                            continue
                        for origin, nb in sorted(states, key=repr):
                            if origin is not None:
                                collect["violations"].append(
                                    (origin, call_loc, summary.cpb_site, callee_key)
                                )
                        if any(nb for _, nb in states):
                            collect["cpb"].append(summary.cpb_site)
                new_states = set()
                for origin, nb in states:
                    for summary in summaries:
                        for pending, barrier_done in summary.outcomes:
                            new_origin = (
                                pending if pending is not None
                                else (None if barrier_done else origin)
                            )
                            new_states.add((new_origin, nb and not barrier_done))
                states = frozenset(new_states)
        return states

    def _summarize(self, key: str) -> DefSummary:
        info = self.scope[key]
        plan = self._plans[key]
        cfg = self._cfg(info.node)
        values = solve(cfg, _PendingRecordAnalysis(self, plan))
        outcomes = set()
        for pred in normal_exit_preds(cfg, compound_fallback=True):
            for origin, nb in values[pred].after:
                outcomes.add((origin, not nb))
        collect = {"violations": [], "cpb": [], "path": info.path}
        for node in cfg.nodes:
            self._step(plan, node, values[node.index].before, collect)
        cpb = min(collect["cpb"]) if collect["cpb"] else None
        return DefSummary(outcomes=frozenset(outcomes), cpb_site=cpb)

    def _solve_summaries(self) -> None:
        callers: dict[str, set[str]] = {key: set() for key in self.scope}
        for key, plan in self._plans.items():
            for action in plan.values():
                if action[0] == "call":
                    for callee in action[1]:
                        callers[callee].add(key)
        worklist = sorted(self.scope)
        queued = set(worklist)
        while worklist:
            key = worklist.pop(0)
            queued.discard(key)
            summary = self._summarize(key)
            if self.summaries.get(key) != summary:
                self.summaries[key] = summary
                for caller in sorted(callers.get(key, ())):
                    if caller not in queued:
                        worklist.append(caller)
                        queued.add(caller)

    def _collect_violations(self) -> None:
        seen = set()
        for key in sorted(self.scope):
            info = self.scope[key]
            plan = self._plans[key]
            cfg = self._cfg(info.node)
            values = solve(cfg, _PendingRecordAnalysis(self, plan))
            collect = {"violations": [], "cpb": [], "path": info.path}
            for node in cfg.nodes:
                self._step(plan, node, values[node.index].before, collect)
            for origin, anchor, site, via in collect["violations"]:
                marker = (key, origin, anchor, site, via)
                if marker in seen:
                    continue
                seen.add(marker)
                self.violations.append(FlushViolation(
                    func_key=key, path=info.path, line=anchor[1],
                    origin=origin, site=site, via=via,
                ))
        self.violations.sort(key=lambda v: (v.path, v.line, v.site, v.origin))

    # -- queries -------------------------------------------------------

    def plan_for(self, key: str) -> dict:
        """The classified call plan of one in-scope def (PERSIST-ORDER
        consumes the primitive kinds)."""
        return self._plans.get(key, {})

    def qualname(self, key: str) -> str:
        info = self.graph.defs.get(key)
        return info.qualname if info is not None else key


# One model per module set, mirroring graph_for/model_for in the other
# families: rules running under the engine share the RuleContext store;
# the module-level cache covers direct invocation.
_MODEL_CACHE: list = []


def model_for(
    modules: Sequence[ParsedModule], context: RuleContext | None = None
) -> PersistenceModel | None:
    """The persistence model for ``modules``, or ``None`` when the tree
    declares no persistence spec.  Raises
    :class:`PersistenceConfigError` on unbindable declarations."""
    if context is not None:
        key = ("persistence-model", id(modules))
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
) -> PersistenceModel | None:
    decls = declared_persistence(modules)
    if decls is None:
        return None
    return PersistenceModel(modules, decls, context)
