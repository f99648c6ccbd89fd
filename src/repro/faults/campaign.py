"""Exhaustive per-step fault campaigns over a full enclave lifecycle.

For every step of the lifecycle (init → map → finalise → enter → svc →
stop → remove), the campaign:

1. runs a **discovery** pass of the step, counting its machine-visible
   monitor operations and digesting the quiescent state at every
   transaction boundary;
2. for each operation index ``n``, runs a **trial** with a plan that
   crashes the monitor at exactly the n-th operation, then invokes
   ``KomodoMonitor.recover()`` and checks:

   * the full audit (spec invariants + machine-level walk) is clean;
   * the secure-state digest equals one of the discovery snapshots —
     i.e. recovery landed in *exactly* the pre-call or the completed
     state (or, for execution calls, a quiescent boundary between
     their bookkeeping windows), never in between;
   * the OS retry path (``OSKernel.retry_after_crash`` /
     ``recover_execution``) then finishes the interrupted step and the
     whole remaining lifecycle, ending with every secure page free.

The campaign's enclave program performs no user-mode stores, so the
quiescent digests classify states exactly; randomness comes only from
the seeded ``HardwareRNG``, keeping every trial bit-deterministic.

``run_differential`` runs the same campaign under each requested
execution engine (any subset of fast/reference/turbo) and compares
their per-step operation counts, digests, and cycle counters —
injected aborts must not let the decode cache, micro-TLB, or compiled
block cache desynchronise from flat memory.

Discovery and every trial fork from one pre-step ``CampaignSnapshot``
through the shared driver loop (``repro.faults.driver``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.arm.assembler import Assembler
from repro.arm.pagetable import l1_index
from repro.faults.audit import audit_monitor, secure_state_digest
from repro.faults.driver import Campaign, Record, Report, Step
from repro.faults.injector import FaultInjected, FaultPlan, inject
from repro.faults.parallel import compare_steps, differential
from repro.faults.snapshot import CampaignSnapshot
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import SMC, SVC, Mapping, PageType
from repro.osmodel.kernel import OSKernel

#: Fixed secure-page assignment for the lifecycle enclave.
AS_PAGE, L1_PAGE, L2_PAGE, CODE_PAGE, THREAD_PAGE = 0, 1, 2, 3, 4
CODE_VA = 0x0001_0000
EXIT_VALUE = 0x600D
#: Teardown order: threads and data first, the addrspace last.
REMOVE_ORDER = (THREAD_PAGE, CODE_PAGE, L2_PAGE, L1_PAGE, AS_PAGE)

_EXECUTE = "execute"


@dataclass(frozen=True)
class _Step:
    """One lifecycle step: a plain SMC, or the composite execute step."""

    name: str
    callno: Optional[int]  # None for the composite execute step
    args: Tuple[int, ...] = ()


@dataclass
class TrialRecord(Record):
    """One injected-fault trial.

    ``ordinal`` is the trial's index in the *serial* trial sequence
    (before any shard filtering), so a sharded campaign's records merge
    back into exactly the serial report (``repro.faults.parallel``).
    """

    ordinal: int
    abort_at: int
    violations: List[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"op {self.abort_at}"


@dataclass
class StepReport(Step):
    """Per-step results, with violations in explicit buckets.

    ``pre_violations`` come from the discovery pass, each trial's
    violations live on its :class:`TrialRecord`, and ``post_violations``
    come from the clean-run audit — the flattened ``violations``
    property reproduces the historical (serial-order) list exactly.
    """

    RECORDS = "trial_records"

    name: str
    fault_points: int = 0
    pre_violations: List[str] = field(default_factory=list)
    trial_records: List[TrialRecord] = field(default_factory=list)
    post_violations: List[str] = field(default_factory=list)
    post_digest: str = ""
    post_cycles: int = 0

    @property
    def violations(self) -> List[str]:
        return super().violations + self.post_violations


@dataclass
class CampaignReport(Report):
    engine: str
    seed: int
    steps: List[StepReport] = field(default_factory=list)

    @property
    def total_fault_points(self) -> int:
        return sum(step.fault_points for step in self.steps)


def _program_words() -> List[int]:
    """The campaign enclave: one non-exit SVC, then Exit(0x600D).

    Deliberately store-free — user-mode stores are architecturally
    immediate, so a program that wrote memory would create states
    between transaction boundaries and break exact classification.
    """
    asm = Assembler()
    asm.svc(SVC.GET_RANDOM)
    asm.movw("r0", EXIT_VALUE)
    asm.svc(SVC.EXIT)
    return asm.assemble()


def _lifecycle(staged: int) -> List[_Step]:
    """The lifecycle's steps; ``staged`` is the program's staging page."""
    code_mapping = Mapping(
        va=CODE_VA, readable=True, writable=False, executable=True
    ).encode()
    steps = [
        _Step("init_addrspace", SMC.INIT_ADDRSPACE, (AS_PAGE, L1_PAGE)),
        _Step("init_l2ptable", SMC.INIT_L2PTABLE, (AS_PAGE, L2_PAGE, l1_index(CODE_VA))),
        _Step("map_secure", SMC.MAP_SECURE, (AS_PAGE, CODE_PAGE, code_mapping, staged)),
        _Step("init_thread", SMC.INIT_THREAD, (AS_PAGE, THREAD_PAGE, CODE_VA)),
        _Step("finalise", SMC.FINALISE, (AS_PAGE,)),
        _Step(_EXECUTE, None),
        _Step("stop", SMC.STOP, (AS_PAGE,)),
    ]
    steps.extend(
        _Step(f"remove_{['thread','code','l2','l1','as'][i]}", SMC.REMOVE, (p,))
        for i, p in enumerate(REMOVE_ORDER)
    )
    return steps


class LifecycleCampaign(Campaign):
    """Run the exhaustive per-step fault campaign.

    Takes the :class:`~repro.faults.driver.Campaign` parameters
    (``seed`` drives the monitor's hardware RNG; ``stride`` injects at
    every ``stride``-th operation index), plus:

    inject_steps:
        restrict injection to steps whose name equals or starts with
        one of these tokens (e.g. ``["remove"]`` covers every Remove);
        all steps still *run* so the lifecycle advances.  None injects
        everywhere; a token matching no step is a ``ValueError``.
    """

    def __init__(
        self,
        seed: int = 0xC0FFEE,
        engine: Optional[str] = None,
        secure_pages: int = 16,
        inject_steps: Optional[Iterable[str]] = None,
        stride: int = 1,
        trial_timeout: Optional[float] = None,
        shard: Optional[Tuple[int, int]] = None,
    ) -> None:
        super().__init__(seed, engine, secure_pages, stride, trial_timeout, shard)
        self.inject_steps = None if inject_steps is None else tuple(inject_steps)
        names = [step.name for step in _lifecycle(0)]
        tokens = self.inject_steps or ()
        unknown = [t for t in tokens if not any(n.startswith(t) for n in names)]
        if unknown:
            raise ValueError(f"unknown lifecycle steps {unknown}; expected {names}")

    # -- machinery -------------------------------------------------------

    def _injects(self, step: _Step) -> bool:
        return self.inject_steps is None or any(
            step.name.startswith(token) for token in self.inject_steps
        )

    @staticmethod
    def _run_step(monitor: KomodoMonitor, step: _Step) -> None:
        """Run one step to completion, asserting the expected result."""
        if step.callno is not None:
            err, _ = monitor.smc(step.callno, *step.args)
            if err is not KomErr.SUCCESS:
                raise RuntimeError(f"lifecycle step {step.name} failed: {err!r}")
            return
        # Composite execute: enter with an interrupt scheduled so the
        # save/resume path runs, then resume across interrupts.
        monitor.schedule_interrupt(1)
        err, value = monitor.smc(SMC.ENTER, THREAD_PAGE, 0, 0, 0)
        while err is KomErr.INTERRUPTED:
            err, value = monitor.smc(SMC.RESUME, THREAD_PAGE)
        if err is not KomErr.SUCCESS or value != EXIT_VALUE:
            raise RuntimeError(f"enclave run returned ({err!r}, {value:#x})")

    def _finish_after_crash(
        self,
        monitor: KomodoMonitor,
        steps: List[_Step],
        crashed_index: int,
    ) -> List[str]:
        """OS retry path: complete the interrupted step, then the rest."""
        problems: List[str] = []
        kernel = OSKernel(monitor)
        step = steps[crashed_index]
        if step.callno is not None:
            err, _ = kernel.retry_after_crash(step.callno, *step.args)
            if err is not KomErr.SUCCESS:
                problems.append(f"{step.name}: retry after crash failed: {err!r}")
                return problems
        else:
            err, value = kernel.recover_execution(THREAD_PAGE)
            if err is not KomErr.SUCCESS or value != EXIT_VALUE:
                problems.append(
                    f"{step.name}: recovery run returned ({err!r}, {value:#x})"
                )
                return problems
        for later in steps[crashed_index + 1 :]:
            try:
                self._run_step(monitor, later)
            except RuntimeError as exc:
                problems.append(f"after {step.name} crash: {exc}")
                return problems
        problems.extend(
            f"after {step.name} crash, final audit: {violation}"
            for violation in audit_monitor(monitor)
        )
        pagedb = monitor.pagedb
        not_free = [
            pageno
            for pageno in range(pagedb.npages)
            if pagedb.page_type(pageno) is not PageType.FREE
        ]
        if not_free:
            problems.append(
                f"after {step.name} crash, pages not freed by teardown: {not_free}"
            )
        return problems

    # -- the campaign ----------------------------------------------------

    def run(self) -> CampaignReport:
        report = CampaignReport(engine=self.engine or "default", seed=self.seed)
        self.monitor = monitor = self._boot()
        # Stage the enclave program in insecure RAM (the OS's staging
        # page); every trial rewind keeps it.
        staged = monitor.state.memmap.insecure.base
        monitor.state.memory.write_words(staged, _program_words())
        self.steps = _lifecycle(staged)
        for index, step in enumerate(self.steps):
            step_report = StepReport(name=step.name)
            report.steps.append(step_report)
            if self._injects(step):
                self._sweep(CampaignSnapshot(monitor), step.name, (index, step_report))
            # Advance the base machine through the step.
            self._run_step(monitor, step)
            clean = audit_monitor(monitor)
            step_report.post_violations.extend(
                f"{step.name}: clean-run audit: {violation}" for violation in clean
            )
            step_report.post_digest = secure_state_digest(monitor.state)
            step_report.post_cycles = monitor.state.cycles
        return report

    def _golden(self, at: Tuple[int, StepReport]):
        """Discovery: count the step's operations and digest every
        quiescent boundary a recovery may legally land on."""
        index, step_report = at
        probe = self.monitor
        boundaries = {secure_state_digest(probe.state)}
        plan = FaultPlan(
            on_boundary=lambda state: boundaries.add(secure_state_digest(state))
        )
        with inject(probe.state, plan):
            self._run_step(probe, self.steps[index])
        boundaries.add(secure_state_digest(probe.state))
        step_report.fault_points = plan.count
        return range(1, plan.count + 1, self.stride), boundaries

    def _golden_timed_out(self, at: Tuple[int, StepReport], violation: str) -> None:
        at[1].pre_violations.append(violation)

    def _record(self, at: Tuple[int, StepReport], ordinal: int, abort_at: int):
        record = TrialRecord(ordinal=ordinal, abort_at=abort_at)
        at[1].trial_records.append(record)
        return record

    def _trial(self, at, boundaries, abort_at: int, record: TrialRecord) -> None:
        """Crash the step at operation ``abort_at``, recover, classify."""
        index = at[0]
        step = self.steps[index]
        trial = self.monitor
        violations = record.violations
        trial_plan = FaultPlan(abort_at=abort_at)
        crashed = False
        try:
            with inject(trial.state, trial_plan):
                self._run_step(trial, step)
        except FaultInjected:
            crashed = True
        if not crashed:
            violations.append(
                f"{step.name}: injection at op {abort_at} did not fire"
            )
            return
        kind, detail = trial_plan.trace[-1]
        where = f"{step.name} op {abort_at} ({kind} {detail:#x})"
        trial.recover()
        violations.extend(
            f"{where}: audit: {violation}" for violation in audit_monitor(trial)
        )
        if secure_state_digest(trial.state) not in boundaries:
            violations.append(
                f"{where}: recovered state is neither pre-call nor completed"
            )
        violations.extend(self._finish_after_crash(trial, self.steps, index))


def run_differential(
    *, engines: Tuple[str, ...] = ("fast", "reference"), **kwargs
) -> Tuple:
    """``(*reports, mismatches)``: the campaign (``kwargs``) under each
    engine, compared pairwise."""
    campaigns = [LifecycleCampaign(engine=engine, **kwargs) for engine in engines]
    return differential(campaigns, compare_reports)


def compare_reports(
    engines: Sequence[str], reports: Sequence[CampaignReport]
) -> List[str]:
    """All engines must agree on every step's operation count, post-step
    digest and cycle counter: an injected abort that left the decode
    cache, micro-TLB or block cache inconsistent with flat memory would
    show up here."""
    return compare_steps(
        engines,
        reports,
        (
            ("fault_points", "fault points", True),
            ("post_digest", "post-step state digests", False),
            ("post_cycles", "cycle counters", True),
        ),
    )
