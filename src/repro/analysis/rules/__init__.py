"""The raelint rule set.

Each rule enforces one structural invariant the paper states; see
docs/STATIC_ANALYSIS.md for the rule-by-rule rationale.
"""

from __future__ import annotations

from repro.analysis.engine import Rule
from repro.analysis.rules.api_parity import ApiParityRule
from repro.analysis.rules.effect_contract import EffectContractRule
from repro.analysis.rules.flush_barrier import FlushBarrierRule
from repro.analysis.rules.errno_discipline import ErrnoDisciplineRule
from repro.analysis.rules.errno_parity import ErrnoParityRule
from repro.analysis.rules.hook_registry import HookRegistryRule
from repro.analysis.rules.lock_order import LockOrderRule
from repro.analysis.rules.lock_release import LockReleaseRule
from repro.analysis.rules.oplog_coverage import OplogCoverageRule
from repro.analysis.rules.persist_order import PersistOrderRule
from repro.analysis.rules.replay_determinism import ReplayDeterminismRule
from repro.analysis.rules.shadow_purity import ShadowPurityRule
from repro.analysis.rules.shadow_reach import ShadowReachRule
from repro.analysis.rules.state_protocol import StateProtocolRule

RULE_CLASSES: tuple[type[Rule], ...] = (
    ShadowPurityRule,
    ShadowReachRule,
    OplogCoverageRule,
    LockReleaseRule,
    LockOrderRule,
    ReplayDeterminismRule,
    ErrnoDisciplineRule,
    HookRegistryRule,
    ErrnoParityRule,
    EffectContractRule,
    ApiParityRule,
    StateProtocolRule,
    FlushBarrierRule,
    PersistOrderRule,
)


def rule_families() -> dict[str, tuple[str, ...]]:
    """family -> rule ids, in registration order (``--select`` accepts a
    family name as shorthand for all of its rules)."""
    families: dict[str, list[str]] = {}
    for cls in RULE_CLASSES:
        families.setdefault(cls.family, []).append(cls.rule_id)
    return {family: tuple(ids) for family, ids in families.items()}


def default_rules() -> list[Rule]:
    """Fresh instances of the full rule set."""
    return [cls() for cls in RULE_CLASSES]


__all__ = [
    "RULE_CLASSES",
    "default_rules",
    "rule_families",
    "ShadowPurityRule",
    "ShadowReachRule",
    "OplogCoverageRule",
    "LockReleaseRule",
    "LockOrderRule",
    "ReplayDeterminismRule",
    "ErrnoDisciplineRule",
    "HookRegistryRule",
    "ErrnoParityRule",
    "EffectContractRule",
    "ApiParityRule",
    "StateProtocolRule",
    "FlushBarrierRule",
    "PersistOrderRule",
]
