"""A pre-booted enclave machine, snapshot-restored per request.

Booting a monitor, building three enclaves, and generating the notary's
RSA key is far too slow to do per request.  An :class:`EnclaveTemplate`
does it once: it boots a monitor + OS kernel, builds the *vault* native
enclave (attest / seal / unseal / spin), a :class:`NotaryEnclave`
(initialised, key generated), the :class:`ChecksumService` (real
ARM code — the engine-sensitive service), and the two-enclave
counter-notary pipeline (``repro.pipeline``), then captures one
:class:`CampaignSnapshot`.  Serving a request is then: restore the
snapshot, stage the payload, run the enclave under a step budget, read
the result — a pure function of the request, bit-identical on every
engine and on every worker forked from the same spec.

The step budget is the per-request *deterministic* deadline: execution
is sliced with ``monitor.schedule_interrupt`` and a request that
exhausts its budget fails with :class:`DeadlineExceeded` — the machine
analogue of a serving timeout, reproducible in tests because it counts
retired steps, not wall-clock.

Templates are not thread-safe (one monitor, mutated in place); an
internal lock serialises ``execute`` / ``expected`` / ``count_ops`` /
``audit`` so the service's degraded path and a test driver cannot
interleave restores.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.apps import notary as notary_app
from repro.apps.checksum import ChecksumService
from repro.apps.notary import NotaryEnclave
from repro.apps.sealed_storage import SealError, seal, unseal
from repro.cloud.api import (
    MAX_PAYLOAD_WORDS,
    BadRequest,
    CloudError,
    CloudRequest,
    CloudResponse,
    DeadlineExceeded,
)
from repro.crypto.rng import HardwareRNG
from repro.faults.audit import audit_monitor, secure_state_digest
from repro.faults.injector import FaultPlan
from repro.faults.snapshot import CampaignSnapshot
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.osmodel.kernel import OSKernel
from repro.pipeline import stages as pipeline_stages
from repro.pipeline.pipelines import build_pipeline
from repro.sdk.builder import SHARED_VA, EnclaveBuilder
from repro.sdk.native import NativeEnclaveProgram

# Vault operations (arg1 of Enter).
OP_ATTEST = 1
OP_SEAL = 2
OP_UNSEAL = 3
OP_SPIN = 4

# Vault shared-page layout (word offsets): request words in the low
# half, response words in the high half of the one shared page.
_V_IN = 0
_V_OUT = 512

# Vault result sentinels (word values no success path returns).
_V_BAD_SHAPE = 0xFFFF_FFFE
_V_SEAL_FAIL = 0xFFFF_FFFD

#: Steps retired per scheduling slice while burning a budget.
_SLICE = 4096

#: Poll rounds before a pipeline request is declared stalled.  The
#: fault-free two-enclave commit completes in a handful of rounds; the
#: bound only exists so a (deterministically) wedged pipeline fails
#: typed instead of spinning.
_PIPELINE_ROUNDS = 64

#: LRU bound on memoised golden responses (``EnclaveTemplate.expected``).
#: An evicted golden is recomputed on its next use, from the same
#: snapshot, so eviction never changes an answer.
GOLDEN_CAP = 1024


def _vault_body(ctx, op: int, arg2: int, arg3: int):
    """The vault enclave: attest, seal, unseal-roundtrip, spin."""
    base = SHARED_VA
    if op == OP_ATTEST:
        data = ctx.read_words(base + _V_IN * 4, 8)
        yield
        mac = ctx.attest(data)
        ctx.write_words(base + _V_OUT * 4, mac)
        return len(mac)
    if op == OP_SEAL:
        if arg2 < 1 or arg2 > MAX_PAYLOAD_WORDS:
            return _V_BAD_SHAPE
        payload = ctx.read_words(base + _V_IN * 4, arg2)
        yield
        blob = seal(ctx, payload)
        ctx.write_words(base + _V_OUT * 4, blob)
        return len(blob)
    if op == OP_UNSEAL:
        # Self-contained roundtrip: seal the payload, then prove a later
        # incarnation of the same identity can recover it.
        if arg2 < 1 or arg2 > MAX_PAYLOAD_WORDS:
            return _V_BAD_SHAPE
        payload = ctx.read_words(base + _V_IN * 4, arg2)
        yield
        blob = seal(ctx, payload)
        yield
        try:
            recovered = unseal(ctx, blob)
        except SealError:
            return _V_SEAL_FAIL
        if recovered != payload:
            return _V_SEAL_FAIL
        ctx.write_words(base + _V_OUT * 4, recovered)
        return len(recovered)
    if op == OP_SPIN:
        for _ in range(arg2):
            ctx.charge(32)
            yield  # one preemption point per iteration: budget-visible
        return arg2 & 0xFFFF_FFFF
    return _V_BAD_SHAPE


class EnclaveTemplate:
    """One booted monitor+OS with the three service enclaves, plus the
    quiescent snapshot every request starts from."""

    def __init__(
        self,
        engine: str = "turbo",
        secure_pages: int = 48,
        seed: int = 0xC10D,
        step_budget: int = 2_000_000,
    ):
        self.engine = engine
        self.secure_pages = secure_pages
        self.seed = seed
        self.step_budget = step_budget
        self.monitor = KomodoMonitor(
            rng=HardwareRNG(seed), secure_pages=secure_pages, cpu_engine=engine
        )
        self.kernel = OSKernel(self.monitor)
        self._vault = (
            EnclaveBuilder(self.kernel)
            .add_shared_buffer(va=SHARED_VA, writable=True)
            .set_native_program(NativeEnclaveProgram("cloud-vault", _vault_body))
            .build()
        )
        self._notary = NotaryEnclave(self.kernel, max_doc_bytes=MAX_PAYLOAD_WORDS * 4)
        self._notary.init()  # RSA keygen happens once, here
        self._checksum = ChecksumService(self.kernel)
        self._pipeline = build_pipeline("counter-notary", self.kernel)
        self.snapshot = CampaignSnapshot(self.monitor, self.kernel)
        #: Digest of the quiescent secure state every request starts
        #: from; two workers forked from the same spec must agree.
        self.template_digest = secure_state_digest(self.monitor.state)
        self._expected: Dict[str, CloudResponse] = {}
        self._lock = threading.Lock()

    # -- spawning ---------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: Dict) -> "EnclaveTemplate":
        return cls(**spec)

    # -- execution --------------------------------------------------------

    def execute(
        self,
        request: CloudRequest,
        fault_plan: Optional[FaultPlan] = None,
    ) -> CloudResponse:
        """Serve one request from a fresh restore of the snapshot.

        Raises the typed :class:`CloudError` subclasses on failure; the
        worker loop converts those into error responses.  ``fault_plan``
        attaches a fault/kill plan for the duration of the enclave run
        (the chaos campaign's hook).
        """
        with self._lock:
            return self._execute_locked(request, fault_plan)

    def _execute_locked(
        self, request: CloudRequest, fault_plan: Optional[FaultPlan]
    ) -> CloudResponse:
        request.validate()
        self.snapshot.restore()
        state = self.monitor.state
        if fault_plan is not None:
            if state.fault_plan is not None:
                raise RuntimeError("a fault plan is already attached")
            state.fault_plan = fault_plan
        try:
            words = self._dispatch(request)
        finally:
            state.fault_plan = None
        return CloudResponse(
            kind=request.kind, key=request.key, ok=True, words=tuple(words)
        )

    def expected(self, request: CloudRequest) -> CloudResponse:
        """The golden response — computed in-process and memoised, the
        ``GOLDEN_CAP`` most recently used keys at most."""
        with self._lock:
            goldens = self._expected
            response = goldens.pop(request.key, None)
            if response is None:
                response = self._execute_locked(request, None)
                if len(goldens) >= GOLDEN_CAP:
                    del goldens[next(iter(goldens))]
            goldens[request.key] = response
            return response

    def count_ops(self, request: CloudRequest) -> int:
        """Discovery pass: machine-visible monitor operations one
        execution of ``request`` performs (the chaos kill-point space)."""
        with self._lock:
            plan = FaultPlan()
            self._execute_locked(request, plan)
            return plan.count

    def audit(self) -> List[str]:
        """Restore to quiescence and run the full post-crash audit."""
        with self._lock:
            self.snapshot.restore()
            return audit_monitor(self.monitor)

    def rewind_digest(self) -> str:
        """Secure-state digest after a restore; must equal
        :attr:`template_digest` forever (no cross-request leakage)."""
        with self._lock:
            self.snapshot.restore()
            return secure_state_digest(self.monitor.state)

    # -- internals --------------------------------------------------------

    def _dispatch(self, request: CloudRequest) -> List[int]:
        kind = request.kind
        payload = list(request.payload)
        if kind == "attest":
            count = self._vault_call(OP_ATTEST, payload, 0)
            return self._vault_out(count)
        if kind == "seal":
            count = self._vault_call(OP_SEAL, payload, len(payload))
            return self._vault_out(count)
        if kind == "unseal":
            count = self._vault_call(OP_UNSEAL, payload, len(payload))
            return self._vault_out(count)
        if kind == "spin":
            value = self._vault_call(OP_SPIN, [], payload[0])
            return [value]
        if kind == "sign":
            return self._sign(payload)
        if kind == "pipeline":
            return self._pipeline_call(payload)
        if kind == "checksum":
            self._checksum.handle.buffer().write_words(self.kernel, payload)
            thread = self._checksum.handle.thread
            err, value = self._run_budgeted(thread, len(payload), 0, 0)
            self._check_err("checksum", err)
            return [value]
        raise BadRequest(f"unknown request kind {kind!r}")  # pragma: no cover

    def _vault_call(self, op: int, payload: List[int], arg2: int) -> int:
        if payload:
            self._vault.buffer().write_words(self.kernel, payload, offset=_V_IN)
        err, value = self._run_budgeted(self._vault.thread, op, arg2, 0)
        self._check_err("vault", err)
        if value == _V_BAD_SHAPE:
            raise BadRequest("vault rejected the request shape")
        if value == _V_SEAL_FAIL:
            raise CloudError("vault seal/unseal roundtrip failed")
        return value

    def _vault_out(self, count: int) -> List[int]:
        return self._vault.buffer().read_words(self.kernel, count, offset=_V_OUT)

    def _pipeline_call(self, payload: List[int]) -> List[int]:
        """Drive one transaction through the counter-notary pipeline.

        The host plays the saga coordinator inline: retransmit the
        request on the ingress edge, poll both stages, drain the egress
        edge — exactly the at-least-once discipline of
        ``repro.osmodel.saga``, collapsed to one serial core.  Returns
        the reply payload: [status, counter value] ++ 8 receipt words.
        """
        pipe = self._pipeline
        txid = 1  # every request starts from the pristine snapshot
        threads = [pipe.stage(name).handle.thread for name in ("notary", "counter")]
        for _ in range(_PIPELINE_ROUNDS):
            pipe.ingress.send(txid, pipeline_stages.MSG_REQ, payload)
            for thread in threads:
                err, _ = self._run_budgeted(thread, pipeline_stages.OP_POLL, 0, 0)
                self._check_err("pipeline", err)
            for frame in pipe.egress.drain():
                if frame.opcode == pipeline_stages.MSG_REPLY and frame.txid == txid:
                    return list(frame.payload)
        raise DeadlineExceeded(
            f"pipeline transaction did not commit within {_PIPELINE_ROUNDS} rounds"
        )

    def _sign(self, payload: List[int]) -> List[int]:
        handle = self._notary.handle
        handle.buffers[1].write_words(self.kernel, payload)
        err, counter = self._run_budgeted(
            handle.thread, notary_app.OP_NOTARIZE, len(payload) * 4, 0
        )
        self._check_err("notary", err)
        if counter >= 0xFFFF_FFF0:
            raise BadRequest(f"notary rejected the document ({counter:#x})")
        control = handle.buffer(0)
        signature = control.read_words(
            self.kernel, notary_app._RSA_WORDS, offset=notary_app._CTL_SIG
        )
        return [counter] + signature

    def _run_budgeted(
        self, thread: int, a1: int, a2: int, a3: int
    ) -> Tuple[KomErr, int]:
        """Enter a thread and resume across interrupts, retiring at most
        ``step_budget`` steps (instructions, or native preemption points)."""
        remaining = self.step_budget
        chunk = min(remaining, _SLICE)
        self.monitor.schedule_interrupt(chunk)
        err, value = self.kernel.enter(thread, a1, a2, a3)
        while err is KomErr.INTERRUPTED:
            remaining -= chunk
            if remaining <= 0:
                raise DeadlineExceeded(
                    f"request exceeded its step budget of {self.step_budget}"
                )
            chunk = min(remaining, _SLICE)
            self.monitor.schedule_interrupt(chunk)
            err, value = self.kernel.resume(thread)
        return (err, value)

    @staticmethod
    def _check_err(who: str, err: KomErr) -> None:
        if err is not KomErr.SUCCESS:
            raise CloudError(f"{who} enclave failed: {err!r}")
