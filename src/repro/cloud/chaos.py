"""The chaos campaign: kill workers mid-request, demand exactness.

For every request kind the campaign first runs a *discovery* pass on an
in-process template (``count_ops``) to learn how many machine-visible
monitor operations one execution performs, then sweeps kill points over
that space: ``0`` (killed on dequeue, before any work), every
``kill_stride``-th operation inside the enclave run, and ``-1`` (killed
after the work, before the reply — a completed-but-unacknowledged
request, the classic at-most-once hazard).  Each kill point gets its
own request (distinct idempotency key) submitted against a live
:class:`CloudService`, interleaved with plain background requests.

The gate is absolute:

* every submitted request **terminates** within the global timeout —
  a pending future at the deadline is a hang, and a violation;
* every successful response is **bit-exact** against the pure
  in-process golden (``EnclaveTemplate.expected``) — engine, worker,
  retry path and degraded path must all agree;
* every failure carries a **typed retryable** error code — anything
  else (an untyped error, a non-retryable code out of nowhere) is a
  violation;
* every injected kill **fired**: observed worker crashes must cover
  the kill points, or the chaos plumbing itself has rotted;
* afterwards, every surviving worker and the parent template **audit
  clean** and rewind to the template digest — no partial state, no
  cross-request leakage, no quiet corruption.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.api import REQUEST_KINDS, CloudRequest, CloudResponse
from repro.cloud.service import CloudService
from repro.cloud.worker import get_template

#: Nonce base for background (non-chaos) requests, so their keys never
#: collide with the chaos sweep's.
_BACKGROUND_NONCE = 1 << 20


def base_payload(kind: str, seed: int) -> Tuple[int, ...]:
    """A deterministic, kind-appropriate payload."""
    mix = lambda i: (seed * 0x9E3779B9 + i * 0x85EBCA6B + 1) & 0xFFFFFFFF
    if kind == "attest":
        return tuple(mix(i) for i in range(8))
    if kind == "seal":
        return tuple(mix(i) for i in range(6))
    if kind == "unseal":
        return tuple(mix(i) for i in range(5))
    if kind == "sign":
        return tuple(mix(i) for i in range(12))
    if kind == "checksum":
        return tuple(mix(i) for i in range(8))
    if kind == "spin":
        return (48,)
    if kind == "pipeline":
        return tuple(mix(i) for i in range(4))
    raise ValueError(f"unknown kind {kind!r}")


@dataclass
class ChaosReport:
    """Everything the gate (and the CLI table) needs."""

    engine: str
    workers: int
    kill_stride: int
    seed: int
    ops_per_kind: Dict[str, int] = field(default_factory=dict)
    kill_points: Dict[str, int] = field(default_factory=dict)
    submitted: int = 0
    completed: int = 0
    ok: int = 0
    retryable_failures: int = 0
    hangs: int = 0
    crashes: int = 0
    respawns: int = 0
    retries: int = 0
    degraded: int = 0
    worker_audits: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations and self.hangs == 0

    def to_dict(self) -> Dict:
        return {
            "engine": self.engine,
            "workers": self.workers,
            "kill_stride": self.kill_stride,
            "seed": self.seed,
            "ops_per_kind": dict(self.ops_per_kind),
            "kill_points": dict(self.kill_points),
            "submitted": self.submitted,
            "completed": self.completed,
            "ok": self.ok,
            "retryable_failures": self.retryable_failures,
            "hangs": self.hangs,
            "crashes": self.crashes,
            "respawns": self.respawns,
            "retries": self.retries,
            "degraded": self.degraded,
            "worker_audits": self.worker_audits,
            "violations": list(self.violations),
            "passed": self.passed,
        }


class ChaosCampaign:
    """Sweep worker kills across every request kind's operation space."""

    def __init__(
        self,
        kinds: Optional[Sequence[str]] = None,
        workers: int = 2,
        engine: str = "turbo",
        kill_stride: int = 7,
        seed: int = 0xCA05,
        request_timeout: Optional[float] = None,
        max_attempts: int = 4,
        global_timeout: float = 180.0,
        background: int = 4,
    ):
        if kill_stride < 1:
            raise ValueError("kill_stride must be >= 1")
        self.kinds = tuple(kinds) if kinds else REQUEST_KINDS
        unknown = [k for k in self.kinds if k not in REQUEST_KINDS]
        if unknown:
            raise ValueError(f"unknown request kind(s) {unknown}")
        self.workers = workers
        self.engine = engine
        self.kill_stride = kill_stride
        self.seed = seed
        self.request_timeout = request_timeout
        self.max_attempts = max_attempts
        self.global_timeout = global_timeout
        self.background = background

    def _request(self, kind: str, nonce: int) -> CloudRequest:
        return CloudRequest(
            kind=kind, payload=base_payload(kind, self.seed), nonce=nonce
        )

    def run(self) -> ChaosReport:
        return asyncio.run(self._run())

    async def _run(self) -> ChaosReport:
        report = ChaosReport(
            engine=self.engine,
            workers=self.workers,
            kill_stride=self.kill_stride,
            seed=self.seed,
        )
        service = CloudService(
            workers=self.workers,
            engine=self.engine,
            request_timeout=self.request_timeout,
            max_attempts=self.max_attempts,
            # The chaos gate exercises the *pool* path: an injected kill
            # storm would otherwise trip the breaker and hide the retry
            # machinery behind degraded serving.
            breaker_threshold=1_000_000,
        )
        # Discovery + goldens on the parent's template for the service's
        # own spec, BEFORE the service starts — afterwards only the
        # degraded executor may touch this template.
        template = get_template(service.spec)
        plan: List[Tuple[CloudRequest, Optional[int]]] = []
        nonce = 0
        for kind in self.kinds:
            ops = template.count_ops(self._request(kind, 0))
            report.ops_per_kind[kind] = ops
            points = [0, *range(1, ops + 1, self.kill_stride), -1]
            report.kill_points[kind] = len(points)
            for point in points:
                plan.append((self._request(kind, nonce), point))
                nonce += 1
        for i in range(self.background):
            kind = self.kinds[i % len(self.kinds)]
            plan.append((self._request(kind, _BACKGROUND_NONCE + i), None))
        goldens = {req.key: template.expected(req) for req, _ in plan}

        await service.start()
        try:
            tasks = {
                asyncio.ensure_future(
                    service.submit(req, chaos_kill_at=point)
                ): req
                for req, point in plan
            }
            report.submitted = len(tasks)
            done, pending = await asyncio.wait(
                tasks, timeout=self.global_timeout
            )
            report.hangs = len(pending)
            for task in pending:
                req = tasks[task]
                report.violations.append(
                    f"HANG: {req.kind} nonce={req.nonce} never terminated "
                    f"within {self.global_timeout}s"
                )
                task.cancel()
            for task in done:
                req = tasks[task]
                report.completed += 1
                self._classify(report, req, task.result(), goldens[req.key])

            kills_injected = sum(
                1 for _, point in plan if point is not None
            )
            stats = service.stats()
            report.crashes = stats["crashes"]
            report.respawns = stats["respawns"]
            report.retries = stats["retries"]
            report.degraded = stats["degraded"]
            if report.crashes < kills_injected - report.hangs:
                report.violations.append(
                    f"chaos plumbing: injected {kills_injected} kills but "
                    f"observed only {report.crashes} worker crashes"
                )
            if not pending:
                audits = await service.audit_workers()
                report.worker_audits = len(audits)
                for worker_id, (violations, digest) in audits.items():
                    for violation in violations:
                        report.violations.append(
                            f"worker {worker_id} audit: {violation}"
                        )
                    if digest != template.template_digest:
                        report.violations.append(
                            f"worker {worker_id}: post-campaign secure state "
                            "does not rewind to the template digest"
                        )
        finally:
            await service.close()

        for violation in template.audit():
            report.violations.append(f"parent template audit: {violation}")
        if template.rewind_digest() != template.template_digest:
            report.violations.append(
                "parent template: secure state does not rewind to the "
                "template digest"
            )
        return report

    @staticmethod
    def _classify(
        report: ChaosReport,
        request: CloudRequest,
        response: CloudResponse,
        golden: CloudResponse,
    ) -> None:
        if response.ok:
            if response.digest() == golden.digest():
                report.ok += 1
            else:
                report.violations.append(
                    f"MISMATCH: {request.kind} nonce={request.nonce} "
                    f"(worker {response.worker}, attempts {response.attempts}, "
                    f"degraded={response.degraded}) diverged from the golden"
                )
        elif response.retryable:
            report.retryable_failures += 1
        else:
            report.violations.append(
                f"UNTYPED/UNRETRYABLE failure: {request.kind} "
                f"nonce={request.nonce} -> {response.error_code}: "
                f"{response.error}"
            )
