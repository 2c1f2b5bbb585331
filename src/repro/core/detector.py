"""Error detection.

"All errors that can be detected are handled by the shadow" (§2.1); this
module decides what counts as detected.  Anything escaping a base
filesystem operation that is not a legitimate :class:`FsError` is a
runtime error:

* :class:`KernelBug` — a BUG()-style crash (deterministic or not);
* :class:`KernelWarning` — a WARN_ON hit.  The paper's Table 1 tracks
  WARN as its own consequence class; :class:`WarnPolicy` decides whether
  a WARN engages recovery (``RECOVER``) or is merely counted
  (``IGNORE`` — in which case the *injector* is configured not to raise,
  since a WARN_ON in a real kernel does not abort the operation);
* :class:`InvariantViolation` — validate-on-sync or another runtime
  check caught corrupted state before it could persist (the fault-model
  assumption of §3.1);
* :class:`DeviceError` — an IO failure, transient or not;
* anything else — an unexpected software fault (in kernel terms, an
  oops from a code path nobody annotated).

The detector never *handles* anything; it classifies and counts, and the
supervisor acts.
"""

from __future__ import annotations

import enum
import traceback
from collections import deque
from dataclasses import dataclass, field

from repro.errors import DeviceError, FsError, InvariantViolation, KernelBug, KernelWarning


class WarnPolicy(enum.Enum):
    RECOVER = "recover"
    IGNORE = "ignore"


class ErrorKind(enum.Enum):
    BUG = "bug"
    WARN = "warn"
    INVARIANT = "invariant"
    DEVICE = "device"
    UNEXPECTED = "unexpected"


@dataclass
class DetectedError:
    kind: ErrorKind
    exception: BaseException
    seq: int | None = None
    op_name: str | None = None

    @property
    def corr_id(self) -> int | None:
        """The op-log sequence number of the operation that was in
        flight when the error escaped — the correlation id every
        downstream artifact (events, spans, forensic bundle) carries."""
        return self.seq

    def describe(self) -> str:
        where = f" during op #{self.seq} ({self.op_name})" if self.seq is not None else ""
        return f"{self.kind.value}{where}: {self.exception}"

    def as_dict(self) -> dict:
        """JSON-able record for the forensic bundle's ``trigger``."""
        return {
            "corr_id": self.corr_id,
            "kind": self.kind.value,
            "op": self.op_name,
            "exception": type(self.exception).__name__,
            "message": str(self.exception),
        }

    def clear_frames(self) -> None:
        """Drop the locals of the finished frames in the exception's
        traceback, and in those of its cause and context.  The exception,
        its message and its file:line traceback stay; what the frames'
        locals held (the base that raised, its caches and bitmaps) goes.
        Frames still executing are left as they are."""
        pending = [self.exception]
        seen = set()
        while pending:
            exc = pending.pop()
            if exc is None or id(exc) in seen:
                continue
            seen.add(id(exc))
            traceback.clear_frames(exc.__traceback__)
            pending += (exc.__cause__, exc.__context__)


@dataclass
class DetectorStats:
    detections: dict[str, int] = field(default_factory=dict)

    def count(self, kind: ErrorKind) -> None:
        self.detections[kind.value] = self.detections.get(kind.value, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.detections.values())


#: Default bound on the detection history ring; cumulative counts live in
#: :class:`DetectorStats` and are never dropped.
DEFAULT_HISTORY_LIMIT = 256


class Detector:
    def __init__(self, warn_policy: WarnPolicy = WarnPolicy.RECOVER, history_limit: int = DEFAULT_HISTORY_LIMIT):
        if history_limit <= 0:
            raise ValueError(f"history_limit must be positive, got {history_limit}")
        self.warn_policy = warn_policy
        self.stats = DetectorStats()
        # Bounded: a supervisor lives for millions of ops, and each
        # DetectedError keeps its exception and traceback alive.  Once
        # handled (see release) the traceback's frames hold no locals, so
        # an entry costs its exception and file:line chain, not the
        # filesystem instance that raised it.
        self.history: deque[DetectedError] = deque(maxlen=history_limit)
        self.history_limit = history_limit

    def classify(self, exc: BaseException, seq: int | None = None, op_name: str | None = None) -> DetectedError:
        """Classify an escaped exception.  ``FsError`` is a caller bug —
        those are outcomes, not runtime errors — and is rejected loudly."""
        if isinstance(exc, FsError):
            raise AssertionError("FsError reached the detector; it should have been an outcome") from exc
        if isinstance(exc, KernelBug):
            kind = ErrorKind.BUG
        elif isinstance(exc, KernelWarning):
            kind = ErrorKind.WARN
        elif isinstance(exc, InvariantViolation):
            kind = ErrorKind.INVARIANT
        elif isinstance(exc, DeviceError):
            kind = ErrorKind.DEVICE
        else:
            kind = ErrorKind.UNEXPECTED
        detected = DetectedError(kind=kind, exception=exc, seq=seq, op_name=op_name)
        self.stats.count(kind)
        self.history.append(detected)
        return detected

    def release(self, detected: DetectedError) -> None:
        """The supervisor has handled ``detected`` — a recovery that
        succeeded or an ignored WARN — and every detection made while it
        did (a nested recovery's): clear their frames.  Called where the
        handling started, once every frame it ran has finished."""
        for entry in reversed(self.history):
            entry.clear_frames()
            if entry is detected:
                break

    def should_recover(self, detected: DetectedError) -> bool:
        """WARNs obey the policy; everything else always recovers."""
        if detected.kind is ErrorKind.WARN:
            return self.warn_policy is WarnPolicy.RECOVER
        return True
