"""The crash-point sweep engine.

The work-list comes from the device.  For every (scenario, profile,
crash kind), one unarmed run records the writes and flushes the
scenario issues on its swept device (:class:`~repro.sweep.device.SweepDevice`);
that run is also the scenario's reference run.  Every point of the
trace worth crashing at (:func:`~repro.sweep.device.crash_points`)
becomes one case: re-run the scenario, crash right after that call,
recover, and classify the outcome:

* ``recovered-clean``  — recovery + fsck + spec equivalence all pass;
* ``repaired``         — fsck found damage that ``repair_image`` fixed;
* ``diverged``         — recovered state differs from the reference
  run (or an offline invariant broke);
* ``recovery-failed``  — recovery/fsck/repair could not produce a
  mountable, consistent image;
* ``unreached``        — the recorded call never came when armed: the
  scenario is not deterministic, which is a failure like the others.

Every case is deterministic under the single sweep seed: the workload
sub-seed is derived by hashing the (profile) identity, so a failing
case replays byte-identically from its bundle's recorded parameters.
Failing ``workload`` cases are delta-minimized
(:mod:`repro.sweep.minimize`) and shipped as forensic bundles.

Scenarios:

* ``workload`` — a generated workload with a commit cadence, a tail
  mutation and an unmount.  Fail-stop runs it supervised (RAE) and
  judges by spec equivalence against the reference run plus fsck;
  power-loss runs the bare :class:`BaseFilesystem` and judges by
  remount + fsck (a real power cut loses the supervisor's op log, so
  the journal's crash consistency is the whole contract).
* ``mount``/``journal-recover`` — crash while recovering a dirty
  image; verdict: a second mount converges to the reference state
  (replay is idempotent, so this holds for both crash kinds).
* ``mkfs`` — torn format; verdict: re-format yields a clean fs.
* ``inode-repair``/``fault-injection``/``cache-sync`` — offline
  tooling crashes; verdict: retry is idempotent and fsck stays clean.
"""

from __future__ import annotations

import traceback
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.api import FsOp, OpenFlags
from repro.basefs.filesystem import BaseFilesystem
from repro.basefs.journal_mgr import JournalManager
from repro.blockdev.cache import BufferCache
from repro.blockdev.device import DeviceImage, MemoryBlockDevice
from repro.blockdev.faults import DeviceFaultPlan, FaultyBlockDevice
from repro.core.supervisor import RAEConfig, RAEFilesystem
from repro.errors import KernelBug, RecoveryFailure
from repro.fsck.checker import Fsck
from repro.fsck.repairs import repair_image
from repro.obs import CrossCheckCapture, build_bundle
from repro.ondisk.image import read_inode, write_inode
from repro.ondisk.mkfs import mkfs
from repro.ondisk.superblock import Superblock
from repro.spec.equivalence import FsState, capture_state, states_equivalent
from repro.sweep.device import (
    CRASH_KINDS,
    FAIL_STOP,
    POWER_LOSS,
    CrashPoint,
    SweepDevice,
    crash_points,
)
from repro.sweep.minimize import ddmin
from repro.sweep.suites import ScratchImage
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.profiles import (
    Profile,
    fileserver_profile,
    metadata_profile,
    varmail_profile,
    webserver_profile,
)

OUTCOME_CLEAN = "recovered-clean"
OUTCOME_REPAIRED = "repaired"
OUTCOME_DIVERGED = "diverged"
OUTCOME_FAILED = "recovery-failed"
OUTCOME_UNREACHED = "unreached"

PROFILES: dict[str, object] = {
    "fileserver": fileserver_profile,
    "varmail": varmail_profile,
    "webserver": webserver_profile,
    "metadata": metadata_profile,
}

#: Commit-cadence file: fsyncing it is the supervised run's stand-in
#: for the bare run's direct fs.commit() calls.
_SYNC_FILE = "/.sweep-sync"

#: Scenarios whose input is a generated workload stream, swept once per
#: profile (the others run offline against a prebuilt image; one
#: profile is enough).
_WORKLOAD_OPS = frozenset({"workload", "mount", "journal-recover"})


class SweepError(Exception):
    """A scenario's unarmed run failed: there is no trace to sweep."""


@dataclass
class SweepConfig:
    seed: int = 0
    profiles: tuple[str, ...] = ("fileserver", "varmail")
    nops: int = 20
    block_count: int = 1024
    #: Small enough that a multi-commit workload wraps the journal (the
    #: reset/reinit writes happen), large enough for one cadence window.
    journal_blocks: int = 16
    #: Commit every N workload ops — bounds transaction size below the
    #: small journal and puts a durability point mid-stream.
    commit_every: int = 6
    crash_kinds: tuple[str, ...] = CRASH_KINDS
    ops: tuple[str, ...] | None = None    # filter: only these scenarios
    #: Smoke cap, applied after filters: an evenly spaced slice of every
    #: (scenario, crash kind) group.
    max_cases: int | None = None
    minimize: bool = True
    minimize_max_tests: int = 64


@dataclass(frozen=True)
class SweepCase:
    """One (scenario, profile, crash kind, trace point) run, fully
    parameterized."""

    op: str
    crash_kind: str
    profile: str
    point: CrashPoint | None  # None: the unarmed recording run
    nops: int
    workload_seed: int
    block_count: int
    journal_blocks: int

    def ident(self) -> str:
        where = self.point.describe() if self.point is not None else "unarmed"
        return (
            f"{self.op} @ {where} [{self.crash_kind}]"
            + (f" profile={self.profile}" if self.op in _WORKLOAD_OPS else "")
        )

    def params(self) -> dict:
        """Everything needed to replay this exact run (bundle payload)."""
        return {
            "op": self.op,
            "crash_kind": self.crash_kind,
            "profile": self.profile,
            "call": self.point.call,
            "block": self.point.block,
            "occurrence": self.point.occurrence,
            "nops": self.nops,
            "workload_seed": self.workload_seed,
            "block_count": self.block_count,
            "journal_blocks": self.journal_blocks,
        }


@dataclass
class SweepRunResult:
    case: SweepCase
    outcome: str
    fired: bool
    detail: str = ""
    bundle: dict | None = None
    minimized_ops: list[FsOp] | None = None
    image: DeviceImage | None = None  # final durable image (reproducibility checks)


@dataclass
class SweepReport:
    results: list[SweepRunResult] = field(default_factory=list)
    reproducers: list[dict] = field(default_factory=list)
    #: digests of the distinct final durable images the cases left
    #: (report-only: a case whose image another left is still run)
    image_digests: set[str] = field(default_factory=set)

    @property
    def failures(self) -> list[SweepRunResult]:
        return [result for result in self.results if result.outcome != OUTCOME_CLEAN]

    @property
    def clean(self) -> bool:
        return not self.failures

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for result in self.results:
            counts[result.outcome] = counts.get(result.outcome, 0) + 1
        return counts


@dataclass
class _Stage:
    """One scenario instance, set up and ready to be swept.

    ``dev`` wraps the device the crash lands on; building the stage did
    whatever must not be crashed (a supervised mount).  ``work`` is what
    the crash interrupts.  ``settle(crashed)`` finishes after it — a
    retry, a re-format — and returns an ``(outcome, detail)`` when that
    already decides the case.  ``compare`` says whether the remounted
    state must equal the reference run's.
    """

    dev: SweepDevice
    work: Callable[[], None]
    settle: Callable[[bool], tuple[str, str] | None] = lambda crashed: None
    compare: bool = True
    bundle: Callable[[], dict | None] = lambda: None


def _sub_seed(sweep_seed: int, *parts) -> int:
    """A deterministic 31-bit sub-seed.  crc32 of the identity — never
    Python's ``hash()``, which is salted per process."""
    key = ":".join(str(part) for part in parts)
    return zlib.crc32(f"{sweep_seed}:{key}".encode()) & 0x7FFFFFFF


def _spread(cases: list[SweepCase], cap: int) -> list[SweepCase]:
    """At most ``cap`` cases, shared out evenly over the (scenario,
    crash kind) groups and evenly spaced along each group's trace."""
    groups: dict[tuple[str, str], list[SweepCase]] = {}
    for case in cases:
        groups.setdefault((case.op, case.crash_kind), []).append(case)
    share = dict.fromkeys(groups, 0)
    while cap > 0 and any(share[key] < len(group) for key, group in groups.items()):
        for key, group in groups.items():
            if cap > 0 and share[key] < len(group):
                share[key] += 1
                cap -= 1
    return [
        group[index * len(group) // share[key]]
        for key, group in groups.items()
        for index in range(share[key])
    ]


def _tail_mutation(fs) -> None:
    """Dirty the sync file just before unmount.  Without this, the last
    cadence sync may leave nothing to commit and unmount's final commit
    takes the empty-transaction early return, issuing no journal IO."""
    fd = fs.open(_SYNC_FILE, OpenFlags.CREAT)
    fs.write(fd, b"sweep tail mutation")
    fs.close(fd)


def _sync_point(fs, commit) -> None:
    """One commit-cadence step: touch the sync file, make it durable,
    release the fd (transient, so it never collides with the workload's
    generated fd numbering).  ``commit`` is the base filesystem's direct
    commit for bare runs; None means fsync through the target's own
    API — the supervised path.
    """
    fd = fs.open(_SYNC_FILE, OpenFlags.CREAT)
    if commit is not None:
        commit()
    else:
        fs.fsync(fd)
    fs.close(fd)


class SweepEngine:
    def __init__(self, config: SweepConfig | None = None):
        self.config = config or SweepConfig()
        self._scratch = ScratchImage(self.config.block_count, self.config.journal_blocks)
        self._image_cache: dict[tuple, DeviceImage] = {}
        #: unarmed case -> (trace, reference state)
        self._recordings: dict[SweepCase, tuple[list[CrashPoint], FsState | None]] = {}

    # ------------------------------------------------------------------
    # enumeration

    def scenarios(self) -> list[str]:
        wanted = self.config.ops
        if wanted is None:
            return list(SCENARIOS)
        unknown = sorted(set(wanted) - set(SCENARIOS))
        if unknown:
            raise ValueError(f"unknown sweep scenario(s) {unknown}; known: {list(SCENARIOS)}")
        return [op for op in SCENARIOS if op in wanted]

    def build_cases(self) -> list[SweepCase]:
        """Record each (scenario, crash kind, profile) trace and turn
        every point worth crashing at into a case."""
        config = self.config
        cases: list[SweepCase] = []
        for op in self.scenarios():
            profiles = config.profiles if op in _WORKLOAD_OPS else config.profiles[:1]
            for crash_kind in config.crash_kinds:
                for profile in profiles:
                    unarmed = SweepCase(
                        op=op,
                        crash_kind=crash_kind,
                        profile=profile,
                        point=None,
                        nops=config.nops,
                        workload_seed=_sub_seed(config.seed, profile, "workload"),
                        block_count=config.block_count,
                        journal_blocks=config.journal_blocks,
                    )
                    trace, _ = self._recording(unarmed)
                    cases.extend(
                        replace(unarmed, point=point)
                        for point in crash_points(trace, crash_kind)
                    )
        if config.max_cases is not None:
            cases = _spread(cases, config.max_cases)
        return cases

    def trace_of(self, case: SweepCase) -> list[CrashPoint]:
        """The recorded write/flush trace ``case`` crashes into."""
        return self._recording(replace(case, point=None))[0]

    @staticmethod
    def case_from_params(params: dict) -> SweepCase:
        """Rebuild a case from a reproducer bundle's recorded parameters
        — the replay side of sweep reproducibility."""
        return SweepCase(
            op=params["op"],
            crash_kind=params["crash_kind"],
            profile=params["profile"],
            point=CrashPoint(params["call"], int(params["block"]), int(params["occurrence"])),
            nops=int(params["nops"]),
            workload_seed=int(params["workload_seed"]),
            block_count=int(params["block_count"]),
            journal_blocks=int(params["journal_blocks"]),
        )

    # ------------------------------------------------------------------
    # shared scenario plumbing

    def _profile(self, name: str) -> Profile:
        try:
            factory = PROFILES[name]
        except KeyError:
            raise ValueError(f"unknown workload profile {name!r}") from None
        return factory()

    def _workload_ops(self, case: SweepCase) -> list[FsOp]:
        return WorkloadGenerator(self._profile(case.profile), seed=case.workload_seed).ops(case.nops)

    def _device_from(self, image: DeviceImage) -> MemoryBlockDevice:
        mem = MemoryBlockDevice(block_count=self.config.block_count, track_durability=True)
        mem.restore(image)
        return mem

    def _apply_all(self, fs, ops: list[FsOp], sync=None) -> None:
        """Run the stream; errno outcomes are normal workload behaviour
        (the generator's model can drift from the real tree).  ``sync``
        is called every ``commit_every`` ops — commit cadence keeps each
        transaction inside the deliberately small sweep journal."""
        cadence = self.config.commit_every
        for index, op in enumerate(ops):
            op.apply(fs)
            if sync is not None and cadence and (index + 1) % cadence == 0:
                sync()

    def _clean_image(self, case: SweepCase) -> DeviceImage:
        """A cleanly unmounted image populated by the case's workload —
        the starting point for the offline-tool scenarios."""
        key = ("clean", case.profile, case.workload_seed, case.nops)
        if key not in self._image_cache:
            mem = self._scratch.setup()
            fs = BaseFilesystem(mem)
            self._apply_all(fs, self._workload_ops(case), sync=fs.commit)
            fs.unmount()
            self._image_cache[key] = mem.snapshot()
        return self._image_cache[key]

    def _dirty_image(self, case: SweepCase) -> DeviceImage:
        """An image abandoned mid-run — superblock DIRTY, journal holding
        a sealed transaction — for the mount/journal-recover scenarios."""
        key = ("dirty", case.profile, case.workload_seed, case.nops)
        if key not in self._image_cache:
            mem = self._scratch.setup()
            fs = BaseFilesystem(mem)
            ops = self._workload_ops(case)
            split = max(1, len(ops) * 2 // 3)
            self._apply_all(fs, ops[:split], sync=fs.commit)
            fs.commit()
            self._apply_all(fs, ops[split:])
            # No unmount: the volatile image *is* the crashed disk state.
            self._image_cache[key] = mem.snapshot()
        return self._image_cache[key]

    def _remount_verdict(
        self, mem: MemoryBlockDevice, reference: FsState | None
    ) -> tuple[str, str]:
        """Remount, fsck, optionally compare against the reference state.

        A first fsck/mount failure goes through ``repair_image`` once
        (outcome ``repaired`` at best); a second failure is final.
        """
        repaired = False
        for attempt in range(2):
            try:
                fs = BaseFilesystem(mem)
                state = capture_state(fs)
                fs.unmount()
            except Exception as exc:  # raelint: disable=ERRNO-DISCIPLINE — verdict boundary: any remount fault is a sweep finding, not a contract errno
                if attempt == 1:
                    return OUTCOME_FAILED, f"remount failed after repair: {exc!r}"
                try:
                    repair_image(mem)
                except Exception as repair_exc:  # raelint: disable=ERRNO-DISCIPLINE — verdict boundary: repair tool crash is the finding itself
                    return OUTCOME_FAILED, f"repair_image failed: {repair_exc!r}"
                repaired = True
                continue
            break
        report = Fsck(mem).run()
        if not report.clean:
            if repaired:
                return OUTCOME_FAILED, f"fsck dirty after repair: {report.findings[:3]}"
            actions = repair_image(mem)
            report = Fsck(mem).run()
            if not report.clean:
                return OUTCOME_FAILED, f"fsck dirty after repair: {report.findings[:3]}"
            repaired = True
            detailed = f"repaired: {actions[:3]}"
        else:
            detailed = ""
        if reference is not None:
            eq = states_equivalent(state, reference)
            if not eq.equivalent:
                return OUTCOME_DIVERGED, str(eq)
        return (OUTCOME_REPAIRED if repaired else OUTCOME_CLEAN), detailed

    @staticmethod
    def _execute(stage: _Stage) -> tuple[bool, str]:
        """Run the stage's work; (whether a crash cut it short, the
        recovery failure text if recovery gave up)."""
        try:
            stage.work()
        except KernelBug:
            return True, ""  # the sweep's own crash, not caught by a supervisor
        except RecoveryFailure as failure:
            return True, f"{failure.phase or 'unknown'}: {failure}"
        except Exception as exc:  # raelint: disable=ERRNO-DISCIPLINE — verdict boundary: anything else escaping the scenario is a sweep finding
            origin = traceback.extract_tb(exc.__traceback__)[-1]
            return True, f"escaped the scenario: {exc!r} from {origin.name}:{origin.lineno}"
        finally:
            stage.dev.disarm()
        return False, ""

    def _recording(
        self, unarmed: SweepCase, ops: list[FsOp] | None = None
    ) -> tuple[list[CrashPoint], FsState | None]:
        """The unarmed run: its write/flush trace and the reference
        state it leaves (None where the verdict does not compare).
        Cached per case unless ``ops`` overrides the workload."""
        if ops is None and unarmed in self._recordings:
            return self._recordings[unarmed]
        stage = self._stage(unarmed, ops)
        stage.dev.record()
        trace = stage.dev.trace
        crashed, failure = self._execute(stage)
        if crashed:
            raise SweepError(f"unarmed run {unarmed.ident()} did not complete: {failure}")
        stage.settle(False)
        reference = capture_state(BaseFilesystem(stage.dev.inner)) if stage.compare else None
        if ops is None:
            self._recordings[unarmed] = (trace, reference)
        return trace, reference

    def _result(self, case: SweepCase, outcome: str, fired: bool, detail: str = "",
                bundle: dict | None = None, image: DeviceImage | None = None) -> SweepRunResult:
        return SweepRunResult(
            case=case, outcome=outcome, fired=fired, detail=detail, bundle=bundle, image=image,
        )

    # ------------------------------------------------------------------
    # running one case

    def _stage(self, case: SweepCase, ops: list[FsOp] | None) -> _Stage:
        return SCENARIOS[case.op](self, case, ops)

    def run_case(self, case: SweepCase, ops: list[FsOp] | None = None) -> SweepRunResult:
        """Crash ``case`` at its point and classify the recovery.
        ``ops`` overrides the generated workload (the minimizer's
        candidates); a candidate whose run never makes the recorded
        call comes back ``unreached``."""
        _, reference = self._recording(replace(case, point=None), ops)
        stage = self._stage(case, ops)
        mem = stage.dev.inner
        stage.dev.arm(case.point, case.crash_kind)
        crashed, failure = self._execute(stage)
        fired = stage.dev.fired
        if failure:
            return self._result(
                case, OUTCOME_FAILED, fired, detail=failure,
                bundle=stage.bundle(), image=mem.snapshot(),
            )
        if not fired:
            return self._result(
                case, OUTCOME_UNREACHED, False,
                detail=f"{case.point.describe()} never happened",
            )
        settled = stage.settle(crashed)
        if settled is not None:
            return self._result(case, *settled, fired=True)
        outcome, detail = self._remount_verdict(mem, reference)
        return self._result(case, outcome, True, detail=detail, image=mem.snapshot())

    # ------------------------------------------------------------------
    # scenarios

    def _workload(self, case: SweepCase, ops: list[FsOp] | None) -> _Stage:
        ops = ops if ops is not None else self._workload_ops(case)
        dev = SweepDevice(self._scratch.setup())
        if case.crash_kind == POWER_LOSS:
            fs = BaseFilesystem(dev)

            def bare() -> None:
                self._apply_all(fs, ops, sync=fs.commit)
                _tail_mutation(fs)
                fs.unmount()

            return _Stage(dev, bare, compare=False)
        rae = RAEFilesystem(dev, config=RAEConfig(metrics=False, flight=False))

        def supervised() -> None:
            # The sync file's fsync drives commits through the
            # supervisor's detection path (the only commit entry the
            # public RAE API exposes).
            self._apply_all(rae, ops, sync=lambda: _sync_point(rae, None))
            _tail_mutation(rae)
            rae.unmount()

        return _Stage(dev, supervised, bundle=lambda: rae.last_bundle)

    def _mount(self, case: SweepCase, ops: list[FsOp] | None) -> _Stage:
        dev = SweepDevice(self._device_from(self._dirty_image(case)))
        # Mount creates no new state — replay of the (durable) dirty
        # image is idempotent — so the reference holds for both kinds.
        return _Stage(dev, lambda: BaseFilesystem(dev).unmount())

    def _journal_recover(self, case: SweepCase, ops: list[FsOp] | None) -> _Stage:
        mem = self._device_from(self._dirty_image(case))
        layout = Superblock.unpack(mem.read_block(0), verify=False).layout()
        dev = SweepDevice(mem)
        return _Stage(dev, lambda: JournalManager.recover(dev, layout))

    def _mkfs(self, case: SweepCase, ops: list[FsOp] | None) -> _Stage:
        mem = MemoryBlockDevice(block_count=case.block_count, track_durability=True)

        def reformat(crashed: bool) -> None:
            # A torn format has nothing to recover *from*; the contract
            # is that re-running mkfs fully supersedes the partial image.
            if crashed:
                mkfs(mem, journal_blocks=case.journal_blocks)

        dev = SweepDevice(mem)
        return _Stage(dev, lambda: mkfs(dev, journal_blocks=case.journal_blocks), reformat)

    def _inode_repair(self, case: SweepCase, ops: list[FsOp] | None) -> _Stage:
        mem = self._device_from(self._clean_image(case))
        sb = Superblock.unpack(mem.read_block(0), verify=False)
        layout = sb.layout()
        inode = read_inode(mem, layout, sb.root_ino)

        def retry(crashed: bool) -> None:
            # The repair tool's contract is idempotency: re-running the
            # interrupted write must land the full inode.
            if crashed:
                write_inode(mem, layout, sb.root_ino, inode)

        dev = SweepDevice(mem)
        return _Stage(dev, lambda: write_inode(dev, layout, sb.root_ino, inode), retry)

    def _fault_injection(self, case: SweepCase, ops: list[FsOp] | None) -> _Stage:
        mem = self._device_from(self._clean_image(case))
        dev = SweepDevice(mem)
        # The swept write is the sticky-flip write-through: damage being
        # persisted to an *unallocated* scratch block, so the crash —
        # not the planned corruption — is what the verdict judges.
        scratch = mem.block_count - 1
        plan = DeviceFaultPlan()
        plan.add_flip(block=scratch, offset=0, xor_byte=0xFF, times=1, sticky=True)
        faulty = FaultyBlockDevice(dev, plan)
        return _Stage(dev, lambda: faulty.read_block(scratch))

    def _cache_sync(self, case: SweepCase, ops: list[FsOp] | None) -> _Stage:
        mem = self._device_from(self._clean_image(case))
        dev = SweepDevice(mem)
        cache = BufferCache(dev, capacity=16)
        # Dirty a few unallocated tail blocks: sync's durability contract
        # without perturbing the filesystem's logical state.
        payloads = {
            mem.block_count - 2 - index: bytes([index + 1]) * mem.block_size
            for index in range(4)
        }
        for block, payload in payloads.items():
            cache.write(block, payload)

        def resync(crashed: bool) -> tuple[str, str] | None:
            if not crashed or case.crash_kind != FAIL_STOP:
                return None
            # Fail-stop keeps the machine (and the cache) alive: a retry
            # must land every block that was dirty at crash time.
            cache.sync()
            for block, payload in payloads.items():
                if mem.read_block(block) != payload:
                    return OUTCOME_DIVERGED, f"block {block} not durable after re-sync"
            return None

        return _Stage(dev, cache.sync, resync)

    # ------------------------------------------------------------------
    # minimization + reproducers

    def _minimize(self, case: SweepCase, failing: SweepRunResult) -> SweepRunResult:
        """Shrink the failing workload while the crash stays at the same
        (call, block, occurrence); returns the result annotated with the
        minimized sequence and a reproducer bundle."""
        ops = self._workload_ops(case)
        target = failing.outcome

        def still_fails(candidate: list[FsOp]) -> bool:
            return self.run_case(case, ops=candidate).outcome == target

        minimized, tests = ddmin(ops, still_fails, max_tests=self.config.minimize_max_tests)
        failing.minimized_ops = minimized
        failing.bundle = self._reproducer_bundle(case, failing, minimized, tests)
        return failing

    def _reproducer_bundle(
        self,
        case: SweepCase,
        result: SweepRunResult,
        minimized: list[FsOp] | None,
        minimize_tests: int = 0,
    ) -> dict:
        """A forensic bundle for a failing sweep case.  When the
        supervised run produced its own recovery bundle, extend it; the
        ``sweep`` section always records the exact replay parameters."""
        base = result.bundle
        if base is None:
            base = build_bundle(
                outcome="failure",
                trigger={
                    "kind": "sweep-crash",
                    "op": case.op,
                    "point": case.point.describe(),
                    "crash_kind": case.crash_kind,
                },
                window={
                    "entries": len(minimized) if minimized is not None else case.nops,
                    "inflight": None,
                },
                flight=None,
                phases={"total": 0.0},
                replay=None,
                crosschecks=CrossCheckCapture().as_dict(),
                events=[],
                failure={"phase": "sweep", "message": result.detail},
            )
        bundle = dict(base)
        bundle["sweep"] = {
            "params": case.params(),
            "outcome": result.outcome,
            "detail": result.detail,
            "minimized_ops": [op.describe() for op in minimized] if minimized is not None else None,
            "minimize_tests": minimize_tests,
        }
        return bundle

    # ------------------------------------------------------------------
    # the full sweep

    def run(self, cases: list[SweepCase] | None = None) -> SweepReport:
        if cases is None:
            cases = self.build_cases()
        report = SweepReport()
        for case in cases:
            result = self.run_case(case)
            if result.outcome != OUTCOME_CLEAN:
                if self.config.minimize and result.fired and case.op == "workload":
                    result = self._minimize(case, result)
                else:
                    result.bundle = self._reproducer_bundle(case, result, None)
                report.reproducers.append(result.bundle)
            if result.image is not None:
                report.image_digests.add(result.image.digest())
            result.image = None  # aggregate reports don't carry images
            report.results.append(result)
        return report


SCENARIOS: dict[str, Callable[[SweepEngine, SweepCase, list[FsOp] | None], _Stage]] = {
    "workload": SweepEngine._workload,
    "mount": SweepEngine._mount,
    "journal-recover": SweepEngine._journal_recover,
    "mkfs": SweepEngine._mkfs,
    "inode-repair": SweepEngine._inode_repair,
    "fault-injection": SweepEngine._fault_injection,
    "cache-sync": SweepEngine._cache_sync,
}
