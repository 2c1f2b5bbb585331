"""Bounded-exhaustive refinement checking of the shadow against the spec.

This is the verification budget a Python reproduction can actually
spend: instead of Verus proofs, every operation sequence up to a depth
bound, drawn from a small operation alphabet over a small namespace, is
executed on a fresh shadow filesystem and on the spec model, comparing
every outcome (with ino bijection) and the final logical state.  Small-
scope exhaustiveness plus the hypothesis property suite in
``tests/properties/`` is the classic lightweight-formal-methods recipe
(the paper's own citation [8] for validating S3's storage node).

The shadow under test mounts a freshly mkfs'ed in-memory image each
sequence, so sequences are independent and failures minimal by
construction (a divergence at depth k is reported with its exact
k-operation prefix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.api import FilesystemAPI, FsOp, OpenFlags, op
from repro.errors import FsError
from repro.ondisk.mkfs import formatted_device
from repro.shadowfs.checks import CheckLevel
from repro.shadowfs.filesystem import ShadowFilesystem
from repro.spec.equivalence import capture_state, outcomes_equivalent, states_equivalent
from repro.spec.model import SpecFilesystem


def default_alphabet() -> list[FsOp]:
    """A small alphabet that reaches every subsystem: namespace ops,
    symlinks, hard links, data IO, fd state."""
    return [
        op("mkdir", path="/d"),
        op("open", path="/f", flags=int(OpenFlags.CREAT)),
        op("write", fd=3, data=b"abc"),
        op("lseek", fd=3, offset=0, whence=0),
        op("read", fd=3, length=2),
        op("close", fd=3),
        op("unlink", path="/f"),
        op("rename", src="/f", dst="/d/g"),
        op("symlink", target="/d", path="/s"),
        op("stat", path="/s/g"),
        op("rmdir", path="/d"),
        op("truncate", path="/f", size=1),
    ]


@dataclass
class Divergence:
    prefix: list[str]
    problem: str

    def __str__(self) -> str:
        return f"after [{'; '.join(self.prefix)}]: {self.problem}"


@dataclass
class VerifierResult:
    sequences_checked: int = 0
    ops_executed: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def fresh_shadow(block_count: int = 1024, check_level: CheckLevel = CheckLevel.FULL) -> ShadowFilesystem:
    """A shadow over a freshly formatted in-memory image (built once per
    geometry and shared by reference, so the exhaustive verifier pays
    neither mkfs nor an image copy per sequence)."""
    # Fixture construction, not verification: mkfs formats a private
    # in-memory image *before* the shadow under test exists.  The spec
    # oracle itself never touches a device during checking.
    device = formatted_device(block_count)  # raelint: disable=SHADOW-REACH
    return ShadowFilesystem(device, check_level=check_level)


def check_refinement(
    ops: Sequence[FsOp],
    shadow_factory: Callable[[], FilesystemAPI] = fresh_shadow,
    compare_final_state: bool = True,
) -> list[str]:
    """Run one sequence on spec and shadow; return divergence strings.

    ``fsync`` is skipped on both sides (the shadow does not implement
    it, and it is a durability no-op in the model).
    """
    spec = SpecFilesystem()
    shadow = shadow_factory()
    problems: list[str] = []
    ino_map: dict[int, int] = {}
    for index, operation in enumerate(ops):
        if operation.name == "fsync":
            continue
        spec_result = operation.apply(spec, opseq=index + 1)
        shadow_result = operation.apply(shadow, opseq=index + 1)
        if not outcomes_equivalent(spec_result, shadow_result, ino_map):
            problems.append(
                f"op {index} {operation.describe()}: spec {spec_result} vs shadow {shadow_result}"
            )
    if compare_final_state and not problems:
        report = states_equivalent(capture_state(spec), capture_state(shadow))
        problems.extend(report.problems)
    return problems


class BoundedVerifier:
    """Exhaustive DFS over the alphabet up to ``max_depth``."""

    def __init__(
        self,
        alphabet: Iterable[FsOp] | None = None,
        max_depth: int = 3,
        shadow_factory: Callable[[], FilesystemAPI] = fresh_shadow,
    ):
        self.alphabet = list(alphabet) if alphabet is not None else default_alphabet()
        self.max_depth = max_depth
        self.shadow_factory = shadow_factory

    def run(self) -> VerifierResult:
        result = VerifierResult()
        self._extend([], result)
        return result

    def _extend(self, prefix: list[FsOp], result: VerifierResult) -> None:
        if len(prefix) >= self.max_depth:
            return
        for operation in self.alphabet:
            sequence = prefix + [operation]
            result.sequences_checked += 1
            result.ops_executed += len(sequence)
            try:
                problems = check_refinement(sequence, self.shadow_factory)
            except FsError as exc:  # must not happen: apply() captures errnos
                problems = [f"FsError escaped apply(): {exc}"]
            if problems:
                result.divergences.append(
                    Divergence(prefix=[o.describe() for o in sequence], problem=problems[0])
                )
                continue  # do not extend a diverging prefix
            self._extend(sequence, result)
