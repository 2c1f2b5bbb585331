"""A small worklist dataflow solver over :mod:`repro.analysis.flow.cfg`.

Analyses subclass :class:`DataflowAnalysis` and declare a direction, a
boundary value (at ENTRY for forward problems, EXIT for backward ones),
an optimistic initial value for every other node, a lattice join, and a
transfer function.  :func:`solve` iterates to a fixpoint and returns,
per node, the value *before* and *after* its transfer — "before" meaning
at the node's input edge in the chosen direction (predecessors joined
for forward, successors joined for backward).

Two conveniences cover the common shapes:

* :class:`GenKillAnalysis` — classic bit-vector style problems where
  ``transfer(v) = (v - kill(node)) | gen(node)`` over frozensets;
* :class:`LocksetAnalysis` — the may-held lockset domain LOCK-ORDER
  uses: forward, join-by-union, gen at ``*.locks.acquire*`` sites and
  kill at ``release``/``release_all``, with lock identity being the
  unparsed acquire argument (``parent.ino``, ``child.ino``, ...).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Generic, Hashable, TypeVar

from repro.analysis.flow.cfg import CFG, CFGNode

T = TypeVar("T", bound=Hashable)

FORWARD = "forward"
BACKWARD = "backward"


class DataflowAnalysis(Generic[T]):
    """One dataflow problem: direction, lattice, transfer."""

    direction: str = FORWARD

    def boundary(self) -> T:
        """Value at the boundary node (ENTRY forward / EXIT backward)."""
        raise NotImplementedError

    def initial(self) -> T:
        """Optimistic starting value for every non-boundary node."""
        raise NotImplementedError

    def join(self, a: T, b: T) -> T:
        raise NotImplementedError

    def transfer(self, node: CFGNode, value: T) -> T:
        raise NotImplementedError


@dataclass
class NodeValues(Generic[T]):
    """Fixpoint values for one node, in analysis direction."""

    before: T  # joined over input edges, pre-transfer
    after: T  # post-transfer


def solve(cfg: CFG, analysis: DataflowAnalysis[T]) -> dict[int, NodeValues[T]]:
    """Run ``analysis`` over ``cfg`` to a fixpoint (worklist iteration)."""
    forward = analysis.direction == FORWARD
    boundary_node = cfg.entry if forward else cfg.exit

    def inputs(node: CFGNode) -> set[int]:
        return node.pred if forward else node.succ

    after: dict[int, T] = {}
    for node in cfg.nodes:
        if node.index == boundary_node:
            after[node.index] = analysis.transfer(node, analysis.boundary())
        else:
            after[node.index] = analysis.initial()

    before: dict[int, T] = {boundary_node: analysis.boundary()}
    worklist = [node.index for node in cfg.nodes if node.index != boundary_node]
    while worklist:
        index = worklist.pop(0)
        node = cfg.nodes[index]
        sources = inputs(node)
        if sources:
            value = after[next(iter(sources))]
            for src in list(sources)[1:]:
                value = analysis.join(value, after[src])
        else:
            # Unreachable from the boundary; keep the optimistic value.
            value = analysis.initial()
        before[index] = value
        new_after = analysis.transfer(node, value)
        if new_after != after[index]:
            after[index] = new_after
            for dependent in (node.succ if forward else node.pred):
                if dependent not in worklist:
                    worklist.append(dependent)
    return {
        node.index: NodeValues(before=before.get(node.index, analysis.initial()), after=after[node.index])
        for node in cfg.nodes
    }


class GenKillAnalysis(DataflowAnalysis[frozenset]):
    """Set-based problems: ``transfer(v) = (v - kill) | gen`` per node.

    Subclasses implement :meth:`gen` and :meth:`kill`; ``may`` selects
    union-join (may-analysis, empty boundary) versus intersection-join
    (must-analysis, where :meth:`universe` seeds the optimistic value).
    """

    may: bool = True

    def gen(self, node: CFGNode) -> frozenset:
        return frozenset()

    def kill(self, node: CFGNode) -> frozenset:
        return frozenset()

    def universe(self) -> frozenset:
        """Top for must-analyses (ignored when ``may``)."""
        return frozenset()

    def boundary(self) -> frozenset:
        return frozenset()

    def initial(self) -> frozenset:
        return frozenset() if self.may else self.universe()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b if self.may else a & b

    def transfer(self, node: CFGNode, value: frozenset) -> frozenset:
        return (value - self.kill(node)) | self.gen(node)


# ---------------------------------------------------------------------------
# the lockset domain

ACQUIRE_METHODS = {"acquire", "acquire_pair"}
RELEASE_METHODS = {"release", "release_all"}


def lock_receiver(node: ast.expr) -> bool:
    """The codebase's LockManager naming convention: the receiver's final
    name contains ``lock`` (``self.locks``, ``fs.locks``, a local
    ``lock_mgr``); ``self.acquire`` inside LockManager itself does not
    match and is exempt by construction."""
    if isinstance(node, ast.Name):
        return "lock" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "lock" in node.attr.lower()
    return False


def lock_call(node: ast.AST, methods: set[str]) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in methods
        and lock_receiver(node.func.value)
    )


def ordered_calls(payload: tuple[ast.AST, ...]) -> list[ast.Call]:
    """Every call in a node's payload, in source order."""
    calls = [
        inner
        for part in payload
        for inner in ast.walk(part)
        if isinstance(inner, ast.Call)
    ]
    calls.sort(key=lambda c: (getattr(c, "lineno", 0), getattr(c, "col_offset", 0)))
    return calls


def acquire_tokens(call: ast.Call) -> frozenset[str]:
    """Lock identities taken by one acquire call: the unparsed argument
    expressions (``acquire_pair`` takes both)."""
    if not call.args:
        return frozenset()
    if call.func.attr == "acquire_pair":  # type: ignore[union-attr]
        return frozenset(ast.unparse(arg) for arg in call.args[:2])
    return frozenset({ast.unparse(call.args[0])})


def apply_lock_call(held: frozenset[str], call: ast.Call) -> frozenset[str]:
    """One acquire/release applied to a may-held lockset."""
    if lock_call(call, ACQUIRE_METHODS):
        return held | acquire_tokens(call)
    if lock_call(call, RELEASE_METHODS):
        if call.func.attr == "release_all":  # type: ignore[union-attr]
            return frozenset()
        if call.args:
            return held - {ast.unparse(call.args[0])}
    return held


class LocksetAnalysis(DataflowAnalysis[frozenset]):
    """Forward may-held lockset: which lock tokens *can* be held at each
    program point.  Join is union — a lock held on any path into a node
    counts, which is the conservative direction for ordering checks."""

    direction = FORWARD

    def boundary(self) -> frozenset:
        return frozenset()

    def initial(self) -> frozenset:
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def transfer(self, node: CFGNode, value: frozenset) -> frozenset:
        for call in ordered_calls(node.payload):
            value = apply_lock_call(value, call)
        return value


class ReleaseOnAllPathsAnalysis(DataflowAnalysis[bool]):
    """Backward must-analysis: "does every path from here to EXIT pass a
    release call?"  The CFG's exceptional edges make this the honest
    version of LOCK-RELEASE: a release after the try block does not
    cover the unwinding path, a release in the ``finally`` does."""

    direction = BACKWARD

    def boundary(self) -> bool:
        return False  # at EXIT, no release lies ahead

    def initial(self) -> bool:
        return True

    def join(self, a: bool, b: bool) -> bool:
        return a and b

    def transfer(self, node: CFGNode, value: bool) -> bool:
        if any(lock_call(call, RELEASE_METHODS) for call in ordered_calls(node.payload)):
            return True
        return value
