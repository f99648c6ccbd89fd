"""Saga coordination for composite multi-enclave pipelines.

The OS schedules each pipeline stage on its own core: an untrusted
*pump* script polls the stage enclave (one ``Enter`` per poll round)
and respawns it after injected crashes with seeded exponential backoff
(``repro.util.backoff``).  A *coordinator* script on another core
drives whole transactions through the pipeline's ingress/egress
channels, retransmitting requests, detecting replies, and — when asked
— compensating a transaction mid-flight by sending an abort that the
stages translate into the two-enclave commit's rollback.

Everything here is untrusted OS code: it can crash, stall, or be
replaced by an adversary without violating any stage invariant.  What
the saga layer adds is *liveness with a verdict*: every run terminates
either with replies for every request or with one of the typed errors
in ``repro.pipeline.errors`` — the contract the pipeline chaos campaign
gates on.

Scripts communicate through :class:`SagaState`, plain shared state
visible to all cores of one ``MultiCoreMachine`` — the model's stand-in
for the OS's own bookkeeping, which needs no monitor involvement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.monitor.errors import KomErr
from repro.monitor.layout import SMC
from repro.pipeline import stages as st
from repro.pipeline.errors import (
    PipelineError,
    SagaStalled,
    StageRetryExhausted,
    TransactionAborted,
)
from repro.pipeline.txchannel import TxFrame
from repro.util.backoff import BackoffPolicy

#: Request retransmission schedule, in poll-round units.  When it is
#: exhausted the coordinator keeps listening (replies are retransmitted
#: by the egress stage) until the round budget declares a stall.
RETRY_POLICY = BackoffPolicy(base_delay=2, attempts=16, cap=32)

#: Stage respawn schedule after a crash, in poll-round units.
RESPAWN_POLICY = BackoffPolicy(base_delay=1, attempts=16, cap=8)

#: Crashes a stage pump (or the checksum leg) survives before the saga
#: gives up with ``StageRetryExhausted``.
CRASH_BUDGET = 8
DEFAULT_ROUND_BUDGET = 600


@dataclass
class SagaState:
    """Shared OS-side bookkeeping for one pipeline run."""

    done: bool = False
    error: Optional[PipelineError] = None
    replies: List[TxFrame] = field(default_factory=list)
    checksums: List[int] = field(default_factory=list)
    rounds: int = 0
    stage_crashes: Dict[str, int] = field(default_factory=dict)

    def fail(self, error: PipelineError) -> None:
        if self.error is None:
            self.error = error
        self.done = True

    def finish(self) -> None:
        self.done = True


# ---------------------------------------------------------------------------
# Stage pumps
# ---------------------------------------------------------------------------


def stage_pump(
    saga: SagaState,
    stage,
    *,
    start_after_rounds: int = 0,
):
    """A core-script factory that keeps one stage enclave polled,
    respawning it on ``RESPAWN_POLICY`` after each of up to
    ``CRASH_BUDGET`` crashes.

    ``start_after_rounds`` delays the pump's first poll — modelling a
    starved or slowly-scheduled stage, which the compensation tests use
    to hold a transaction open long enough to abort it.
    """
    thread = stage.handle.thread
    name = stage.name

    def factory(core_id: int):
        return _pump_script(saga, name, thread, core_id, start_after_rounds)

    return factory


def _pump_script(saga, name, thread, core_id, start_after):
    backoff = RESPAWN_POLICY.session(seed=core_id * 7919 + 1)
    crashes = 0

    def _crashed():
        nonlocal crashes
        crashes += 1
        saga.stage_crashes[name] = crashes
        if crashes > CRASH_BUDGET:
            error = StageRetryExhausted(
                f"stage {name} failed {crashes} times (budget {CRASH_BUDGET})"
            )
            saga.fail(error)
            raise error
        return backoff.next_delay() or 1

    for _ in range(start_after):
        if saga.done:
            return
        yield ("yield",)
    while not saga.done:
        result = yield ("smc", SMC.ENTER, thread, st.OP_POLL, 0, 0)
        while not saga.done:
            if result is None:
                # Crash mid-poll: the monitor recovered, the stage's
                # generator is gone.  Back off, then respawn — the poll
                # round is idempotent by construction.
                for _ in range(_crashed()):
                    if saga.done:
                        return
                    yield ("yield",)
                result = yield ("smc", SMC.ENTER, thread, st.OP_POLL, 0, 0)
                continue
            err, _value = result
            if err in (KomErr.INTERRUPTED, KomErr.ALREADY_ENTERED):
                result = yield ("smc", SMC.RESUME, thread)
                continue
            if err is KomErr.NOT_ENTERED:
                result = yield ("smc", SMC.ENTER, thread, st.OP_POLL, 0, 0)
                continue
            if err is KomErr.SUCCESS:
                break
            # Any other monitor verdict (FAULT, STOPPED, ...) burns a
            # respawn attempt so a wedged stage ends in a typed error
            # rather than an endless poll loop.
            for _ in range(_crashed()):
                if saga.done:
                    return
                yield ("yield",)
            result = yield ("smc", SMC.ENTER, thread, st.OP_POLL, 0, 0)
        yield ("yield",)


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------


def coordinator(
    saga: SagaState,
    pipeline,
    requests: Sequence[Sequence[int]],
    *,
    round_budget: int = DEFAULT_ROUND_BUDGET,
    abort_after_rounds: Optional[Dict[int, int]] = None,
    checksum=None,
):
    """A core-script factory driving transactions 1..N through the
    pipeline, retransmitting each request on ``RETRY_POLICY``.
    ``abort_after_rounds`` maps a txid to the round count
    after which the coordinator compensates (sends an abort) instead of
    waiting for completion.  ``checksum`` (a ``ChecksumService``) adds a
    machine-code CRC leg over each successful reply — the pipeline's
    tri-engine differential anchor.
    """
    aborts = dict(abort_after_rounds or {})

    def factory(core_id: int):
        return _coordinator_script(
            saga, pipeline, requests, round_budget, aborts, checksum
        )

    return factory


def _coordinator_script(saga, pipeline, requests, round_budget, aborts, checksum):
    try:
        for index, payload in enumerate(requests):
            txid = index + 1
            reply = yield from _drive_transaction(
                saga,
                pipeline,
                txid,
                list(payload),
                round_budget,
                aborts.get(txid),
            )
            saga.replies.append(reply)
            if (
                checksum is not None
                and reply.payload
                and reply.payload[0] == st.ST_OK
            ):
                value = yield from _checksum_leg(checksum, list(reply.payload[1:]))
                saga.checksums.append(value)
        yield from _await_quiescence(saga, pipeline, round_budget)
        saga.finish()
    except PipelineError as error:
        saga.fail(error)
        raise


def _drive_transaction(saga, pipeline, txid, payload, round_budget, abort_after):
    backoff = RETRY_POLICY.session(seed=txid)
    rounds = 0
    due = 0  # round at which the next retransmission is owed
    aborting = False
    while True:
        rounds += 1
        saga.rounds += 1
        if rounds > round_budget:
            raise SagaStalled(
                f"txn {txid} incomplete after {round_budget} rounds"
            )
        for frame in pipeline.egress.drain():
            if frame.opcode != st.MSG_REPLY or frame.txid != txid:
                continue  # stale reply retransmission for an older txn
            status = frame.payload[0] if frame.payload else st.ST_ABORTED
            if status == st.ST_ABORTED and not aborting:
                # The pipeline rolled the transaction back without the
                # coordinator asking — surfaced as a typed, retryable
                # verdict rather than silently dropped work.
                raise TransactionAborted(f"txn {txid} aborted by the pipeline")
            return frame
        if abort_after is not None and rounds >= abort_after and not aborting:
            aborting = True
            backoff = RETRY_POLICY.session(seed=txid ^ 0xAB0B7)
            due = rounds  # compensate immediately
        if rounds >= due:
            pipeline.ingress.send(
                txid,
                st.MSG_ABORT if aborting else st.MSG_REQ,
                [] if aborting else payload,
            )
            delay = backoff.next_delay()
            # An exhausted schedule stops retransmitting but keeps
            # listening: the egress stage republishes replies, and the
            # round budget still bounds the wait.
            due = rounds + delay if delay is not None else round_budget + 1
        yield ("yield",)


def _await_quiescence(saga, pipeline, round_budget):
    """Keep the pumps running until no stage-to-stage link holds a frame.

    The egress reply alone does not mean the stages have settled.  A
    crash can stop a stage before it handles a frame already waiting on
    its link, such as the downstream ack that moves it from forwarding
    to done; were the pumps stopped at the reply, that frame would never
    be handled and the stage's committed slot would stay stale.  After
    the last reply, that forwarding-to-done move is the only state left
    to settle, and a stage consumes the ack and commits the move in one
    stretch of its poll, with no preemption point or monitor call in
    between; so once the links are idle, every ack has taken effect.  A
    fault-free run is already idle when its last reply arrives and pays
    no extra round.
    """
    for _ in range(round_budget):
        if pipeline.links_idle():
            return
        saga.rounds += 1
        yield ("yield",)
    raise SagaStalled(f"stage links not quiescent after {round_budget} rounds")


def _checksum_leg(checksum, words):
    """Run the machine-code CRC enclave over reply words, with the same
    crash-respawn discipline as a stage pump."""
    checksum.handle.buffer().write_words(checksum.kernel, words)
    thread = checksum.handle.thread
    crashes = 0
    result = yield ("smc", SMC.ENTER, thread, len(words), 0, 0)
    while True:
        if result is None:
            crashes += 1
            if crashes > CRASH_BUDGET:
                raise StageRetryExhausted(
                    f"checksum leg failed {crashes} times"
                )
            result = yield ("smc", SMC.ENTER, thread, len(words), 0, 0)
            continue
        err, value = result
        if err in (KomErr.INTERRUPTED, KomErr.ALREADY_ENTERED):
            result = yield ("smc", SMC.RESUME, thread)
            continue
        if err is KomErr.NOT_ENTERED:
            result = yield ("smc", SMC.ENTER, thread, len(words), 0, 0)
            continue
        if err is KomErr.SUCCESS:
            return value
        crashes += 1
        if crashes > CRASH_BUDGET:
            raise StageRetryExhausted(f"checksum leg rejected: {err!r}")
        result = yield ("smc", SMC.ENTER, thread, len(words), 0, 0)


# ---------------------------------------------------------------------------
# Whole-pipeline orchestration
# ---------------------------------------------------------------------------


@dataclass
class PipelineOutcome:
    """What one pipeline run produced (when it did not raise)."""

    replies: List[TxFrame]
    checksums: List[int]
    rounds: int
    stage_crashes: Dict[str, int]


def run_pipeline(
    pipeline,
    machine,
    requests: Sequence[Sequence[int]],
    *,
    abort_after_rounds: Optional[Dict[int, int]] = None,
    start_after_rounds: Optional[Dict[str, int]] = None,
    checksum=None,
    round_budget: int = DEFAULT_ROUND_BUDGET,
    max_steps: int = 100_000,
) -> PipelineOutcome:
    """Wire a coordinator plus one pump per stage into ``machine`` and
    run to completion.  Raises the coordinator's or a pump's typed
    ``PipelineError``; an interleaving that never terminates hits the
    scheduler's ``max_steps`` backstop (``RuntimeError`` — a hang, which
    the chaos gate treats as a hard violation).
    """
    saga = SagaState()
    delays = dict(start_after_rounds or {})
    machine.add_core(
        coordinator(
            saga,
            pipeline,
            requests,
            round_budget=round_budget,
            abort_after_rounds=abort_after_rounds,
            checksum=checksum,
        )
    )
    for stage in pipeline.stages:
        machine.add_core(
            stage_pump(
                saga,
                stage,
                start_after_rounds=delays.get(stage.name, 0),
            )
        )
    machine.run(max_steps=max_steps)
    if saga.error is not None:
        raise saga.error
    return PipelineOutcome(
        replies=list(saga.replies),
        checksums=list(saga.checksums),
        rounds=saga.rounds,
        stage_crashes=dict(saga.stage_crashes),
    )
