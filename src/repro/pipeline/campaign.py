"""The pipeline chaos campaign: crash-anywhere sweeps over composite
multi-enclave workloads.

A campaign builds one pipeline on a fresh monitor, captures a
``CampaignSnapshot`` (monitor + kernel + multicore scheduler, so every
trial forks bit-identically), runs the fault-free *golden* trial, then
sweeps stage-kill points: for each machine-visible monitor operation of
the golden run, one trial crashes the machine at exactly that operation
and lets the saga layer recover.

The gate is the robustness contract of ``repro.pipeline``:

* every trial **terminates** — a scheduler ``max_steps`` overrun is a
  hang and a hard violation;
* a trial either completes **bit-exact** against the golden logical
  digest (replies, per-stage committed slots, checksum legs) or raises
  a **typed retryable** ``PipelineError``;
* either way the cross-enclave invariants hold: no torn transaction
  state, no counter value issued twice, and a clean monitor audit.

``RepeatingFaultPlan`` extends the single-shot ``FaultPlan`` with
periodic re-arming — the tool for driving a stage's respawn budget to
exhaustion and checking that the saga surfaces ``StageRetryExhausted``
rather than looping forever.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.arm.bits import words_to_bytes
from repro.arm.machine import FaultInjected, MachineState
from repro.crypto.sha256 import sha256
from repro.faults.audit import audit_monitor
from repro.faults.driver import Campaign, Record
from repro.faults.injector import FaultPlan, inject
from repro.faults.snapshot import CampaignSnapshot
from repro.multicore.scheduler import MultiCoreMachine
from repro.osmodel.kernel import OSKernel
from repro.osmodel.saga import PipelineOutcome, run_pipeline
from repro.pipeline import stages as st
from repro.pipeline.errors import PipelineError
from repro.pipeline.pipelines import (
    PIPELINE_KINDS,
    AttestSignSealPipeline,
    CounterNotaryPipeline,
    Pipeline,
    build_pipeline,
)
from repro.util.watchdog import TrialTimeout

DEFAULT_SECURE_PAGES = 48
DEFAULT_SEED = 0x51BE
DEFAULT_REQUESTS = 2
DEFAULT_MAX_STEPS = 300_000


class RepeatingFaultPlan(FaultPlan):
    """A fault plan that re-arms: crash at ``abort_at``, then every
    ``period`` further operations, up to ``max_fires`` times.

    A single-shot crash is always recoverable by one respawn; driving a
    retry budget to exhaustion needs the *recovery itself* to keep
    crashing, which is exactly what periodic re-arming models (a machine
    whose watchdog keeps firing).  ``max_fires`` defaults to a finite
    bound because an unbounded small-period plan also fires during every
    recovery attempt — a machine that never boots, which the scheduler
    reports as its recovery-retry limit rather than a pipeline verdict.
    """

    def __init__(
        self,
        abort_at: int,
        period: int,
        max_fires: Optional[int] = 16,
        kinds: Optional[Set[str]] = None,
    ) -> None:
        super().__init__(abort_at=abort_at, kinds=kinds)
        if period < 1:
            raise ValueError("period must be at least 1")
        self.period = period
        self.max_fires = max_fires
        self.fires = 0

    def visit(self, state: MachineState, kind: str, detail: int) -> None:
        if self.kinds is not None and kind not in self.kinds:
            return
        self.count += 1
        self.trace.append((kind, detail))
        if kind == "txn-boundary" and self.on_boundary is not None:
            self.on_boundary(state)
        if self.max_fires is not None and self.fires >= self.max_fires:
            return
        if self.count >= self.abort_at:
            self.fires += 1
            self.fired = True
            self.abort_at = self.count + self.period
            raise FaultInjected(self.count, kind, detail)


def default_requests(kind: str, count: int = DEFAULT_REQUESTS) -> List[List[int]]:
    """Deterministic request payloads (document digests) per pipeline."""
    words = PIPELINE_KINDS[kind].request_words
    mix = lambda i: (0x9E3779B9 * (i + 1) + 0x85EBCA6B) & 0xFFFFFFFF  # noqa: E731
    return [
        [mix(index * words + j) for j in range(words)] for index in range(count)
    ]


@dataclass
class TrialResult(Record):
    """One kill point's verdict."""

    kill_point: int  # 0 = golden (fault-free) trial
    outcome: str  # "bit-exact" | a typed error code | "hang" | "violation"
    op: Optional[Tuple[str, int]] = None  # (kind, detail) crashed at
    detail: str = ""
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def label(self) -> str:
        return f"kill@{self.kill_point}"

    @property
    def shard_key(self) -> Optional[int]:
        """Every shard runs the golden trial, so it has no key."""
        return self.kill_point or None

    def timed_out(self) -> None:
        self.outcome = "timeout"


@dataclass
class PipelineReport:
    """Everything one pipeline's sweep produced."""

    #: The field shards contribute to (``repro.faults.parallel``).
    RECORDS = "trials"

    pipeline: str
    engine: str
    ops: int = 0
    golden_digest: str = ""
    trials: List[TrialResult] = field(default_factory=list)

    @property
    def kill_points(self) -> int:
        return sum(1 for trial in self.trials if trial.kill_point > 0)

    @property
    def bit_exact(self) -> int:
        return sum(1 for t in self.trials if t.outcome == "bit-exact")

    @property
    def retryable(self) -> int:
        return sum(
            1
            for t in self.trials
            if t.outcome not in ("bit-exact", "hang", "violation", "timeout")
        )

    @property
    def violations(self) -> List[str]:
        return [f"{t.label}: {v}" for t in self.trials for v in t.violations]

    @property
    def ok(self) -> bool:
        return not self.violations


def outcome_digest(
    pipeline: Pipeline, outcome: PipelineOutcome
) -> str:
    """The logical digest a successful trial is compared on: replies,
    checksum legs, and each stage's *committed* (active-slot) state.

    Raw page digests would be wrong here — the inactive shadow slot and
    the insecure channel pages legitimately differ between a trial that
    crashed mid-commit and one that did not.
    """
    words: List[int] = []
    for frame in outcome.replies:
        words += [frame.txid, frame.opcode, len(frame.payload), *frame.payload]
    for value in outcome.checksums:
        words.append(value & 0xFFFFFFFF)
    for stage in pipeline.stages:
        slot = stage.active_slot()
        words += [len(slot), *slot]
    return sha256(words_to_bytes([w & 0xFFFFFFFF for w in words])).hex()


def _reply_values(pipeline: Pipeline, outcome: PipelineOutcome) -> List[int]:
    """Counter values carried by successful counter-notary replies.
    Other pipelines carry opaque blobs, not counter values."""
    if not isinstance(pipeline, CounterNotaryPipeline):
        return []
    values = []
    for frame in outcome.replies:
        if frame.payload and frame.payload[0] == st.ST_OK and len(frame.payload) > 1:
            values.append(frame.payload[1])
    return values


class PipelineCampaign(Campaign):
    """Sweep stage-kill points across one pipeline's golden run.

    Takes the :class:`~repro.faults.driver.Campaign` parameters; the
    trial points are the golden run's monitor operations (every
    ``stride``-th, and always the last).
    """

    def __init__(
        self,
        kind: str,
        *,
        engine: str = "turbo",
        seed: int = DEFAULT_SEED,
        secure_pages: int = DEFAULT_SECURE_PAGES,
        stride: int = 1,
        requests: Optional[Sequence[Sequence[int]]] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        with_checksum: Optional[bool] = None,
        trial_timeout: Optional[float] = None,
        shard: Optional[Tuple[int, int]] = None,
    ):
        super().__init__(seed, engine, secure_pages, stride, trial_timeout, shard)
        if kind not in PIPELINE_KINDS:
            raise ValueError(
                f"unknown pipeline {kind!r}; expected one of {sorted(PIPELINE_KINDS)}"
            )
        self.kind = kind
        self.max_steps = max_steps
        self.requests = [list(r) for r in (requests or default_requests(kind))]
        self.monitor = self._boot()
        self.kernel = OSKernel(self.monitor)
        self.pipeline = build_pipeline(kind, self.kernel)
        # The machine-code CRC leg makes the campaign engine-sensitive
        # (the tri-engine differential's anchor); it rides on the relay
        # pipeline by default.
        if with_checksum is None:
            with_checksum = isinstance(self.pipeline, AttestSignSealPipeline)
        self.checksum = None
        if with_checksum:
            from repro.apps.checksum import ChecksumService

            self.checksum = ChecksumService(self.kernel)
        self.machine = MultiCoreMachine(self.monitor, seed=seed)
        # Captured at the quiescent point right after the build: every
        # trial (golden included) rewinds to exactly here.
        self.snapshot = CampaignSnapshot(
            self.monitor, self.kernel, scheduler=self.machine
        )

    # -- one trial ---------------------------------------------------------

    def _run_once(self, plan: Optional[FaultPlan]) -> PipelineOutcome:
        """Rewind to the snapshot and run the pipeline under ``plan``."""
        self.snapshot.restore()
        return self._run(plan)

    def _run(self, plan: Optional[FaultPlan]) -> PipelineOutcome:
        with nullcontext() if plan is None else inject(self.monitor.state, plan):
            return run_pipeline(
                self.pipeline,
                self.machine,
                self.requests,
                checksum=self.checksum,
                max_steps=self.max_steps,
            )

    def _check_state(self, golden_values: List[int]) -> List[str]:
        problems = list(self.pipeline.check_invariants())
        problems += [f"audit: {p}" for p in audit_monitor(self.monitor)]
        if len(set(golden_values)) != len(golden_values):
            problems.append(f"counter value reused: {golden_values}")
        return problems

    def _trial(self, report, golden_digest: str, kill_point: int, result) -> None:
        plan = FaultPlan(abort_at=kill_point)
        try:
            outcome = self._run(plan)
        except TrialTimeout:
            raise
        except PipelineError as error:
            result.outcome = error.code
            result.detail = str(error)
            if not error.retryable:
                result.violations.append(
                    f"non-retryable pipeline error: {error.code}: {error}"
                )
        except RuntimeError as error:
            result.outcome = "hang"
            result.detail = str(error)
            result.violations.append(f"hang (scheduler backstop): {error}")
        except Exception as error:  # noqa: BLE001 - the gate wants a verdict
            result.outcome = "violation"
            result.detail = f"{type(error).__name__}: {error}"
            result.violations.append(
                f"untyped escape: {type(error).__name__}: {error}"
            )
        else:
            digest = outcome_digest(self.pipeline, outcome)
            if digest != golden_digest:
                result.violations.append(
                    f"digest mismatch: {digest[:16]} != golden {golden_digest[:16]}"
                )
            result.violations.extend(
                self._check_state(_reply_values(self.pipeline, outcome))
            )
        if plan.fired:
            result.op = plan.trace[kill_point - 1]
        else:
            # The crash never fired: the trial degenerates to a golden
            # re-run; record it so sweeps stay honest.
            result.detail = result.detail or "fault never fired"

    # -- the sweep ---------------------------------------------------------

    def run(self) -> PipelineReport:
        report = PipelineReport(pipeline=self.kind, engine=self.engine)
        self._sweep(self.snapshot, self.kind, report)
        return report

    def _golden(self, report: PipelineReport):
        """Golden + discovery in one pass: count every machine-visible
        monitor op of the fault-free run, which every shard runs (the
        merge asserts its trial agrees)."""
        discovery = FaultPlan()
        golden = self._run(discovery)
        report.ops = discovery.count
        report.golden_digest = outcome_digest(self.pipeline, golden)
        golden_trial = TrialResult(kill_point=0, outcome="bit-exact")
        golden_trial.violations.extend(
            self._check_state(_reply_values(self.pipeline, golden))
        )
        report.trials.append(golden_trial)
        kill_points = list(range(1, report.ops + 1, self.stride))
        if kill_points and kill_points[-1] != report.ops:
            kill_points.append(report.ops)
        return kill_points, report.golden_digest

    def _golden_timed_out(self, report: PipelineReport, violation: str) -> None:
        report.trials.append(
            TrialResult(kill_point=0, outcome="timeout", violations=[violation])
        )

    def _record(self, report: PipelineReport, ordinal: int, kill_point: int):
        result = TrialResult(kill_point=kill_point, outcome="bit-exact")
        report.trials.append(result)
        return result


def run_campaign(
    kind: str,
    *,
    engine: str = "turbo",
    seed: int = DEFAULT_SEED,
    stride: int = 1,
    requests: Optional[Sequence[Sequence[int]]] = None,
    secure_pages: int = DEFAULT_SECURE_PAGES,
    shard: Optional[Tuple[int, int]] = None,
) -> PipelineReport:
    return PipelineCampaign(
        kind,
        engine=engine,
        seed=seed,
        stride=stride,
        requests=requests,
        secure_pages=secure_pages,
        shard=shard,
    ).run()


def tri_engine_digests(
    kind: str,
    engines: Sequence[str] = ("reference", "fast", "turbo"),
    *,
    seed: int = DEFAULT_SEED,
    requests: Optional[Sequence[Sequence[int]]] = None,
) -> Dict[str, str]:
    """Golden logical digests per engine.  The pipeline result must be
    engine-invariant; a split is an engine bug, not a pipeline bug."""
    digests: Dict[str, str] = {}
    for engine in engines:
        campaign = PipelineCampaign(
            kind, engine=engine, seed=seed, requests=requests
        )
        outcome = campaign._run_once(FaultPlan())
        digests[engine] = outcome_digest(campaign.pipeline, outcome)
    return digests
