"""raeflow: the flow-sensitive layer under raelint.

Three building blocks, composed by the flow rules in
:mod:`repro.analysis.rules`:

* :mod:`repro.analysis.flow.cfg` — intraprocedural CFGs with
  first-class exceptional edges;
* :mod:`repro.analysis.flow.dataflow` — a generic worklist solver plus
  the lockset / release-on-all-paths domains;
* :mod:`repro.analysis.flow.callgraph` — a best-effort project call
  graph with transitive-reachability queries.
"""

from repro.analysis.flow.callgraph import CallGraph, DefInfo, render_chain
from repro.analysis.flow.cfg import CFG, CFGNode, build_cfg, function_defs
from repro.analysis.flow.dataflow import (
    BACKWARD,
    FORWARD,
    DataflowAnalysis,
    GenKillAnalysis,
    LocksetAnalysis,
    NodeValues,
    ReleaseOnAllPathsAnalysis,
    solve,
)

__all__ = [
    "BACKWARD",
    "CFG",
    "CFGNode",
    "CallGraph",
    "DataflowAnalysis",
    "DefInfo",
    "FORWARD",
    "GenKillAnalysis",
    "LocksetAnalysis",
    "NodeValues",
    "ReleaseOnAllPathsAnalysis",
    "build_cfg",
    "function_defs",
    "render_chain",
    "solve",
]
