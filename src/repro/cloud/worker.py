"""The worker-process main loop.

A worker is one OS process holding one :class:`EnclaveTemplate` and a
duplex pipe to the supervisor.  The protocol is deliberately tiny —
every message is a tuple whose first element is its type:

supervisor -> worker
    ``("req", wire, chaos_kill_at)``  serve a request;
    ``("audit",)`` restore + audit; ``("stop",)`` exit.

worker -> supervisor
    ``("res", wire)`` a response;
    ``("audit_ok", worker_id, violations, digest)`` an audit result.

A worker blocks in ``recv`` between requests and sends nothing while
idle: the supervisor learns of its death from the process sentinel.

Workers are forked, so :func:`get_template` keeps a per-process cache
keyed by spec: the supervising parent prewarms the template *before*
forking and every child inherits the booted machine copy-on-write —
respawning a crashed worker costs a fork, not an RSA keygen.

Chaos hook: ``chaos_kill_at`` arms a :class:`KillPlan`, which die-rolls
nothing — it deterministically ``os._exit(137)``s the worker at the
N-th machine-visible monitor operation of the request (0 = on dequeue,
before any work; -1 = after the work, before the reply is sent — the
worst case, a completed-but-unacknowledged request).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.cloud.api import CloudError, CloudRequest, CloudResponse
from repro.cloud.template import EnclaveTemplate
from repro.faults.injector import FaultPlan

#: Exit status a chaos-killed worker dies with (mirrors SIGKILL's 128+9).
KILL_STATUS = 137

_template_cache: Dict[Tuple, EnclaveTemplate] = {}


def _spec_key(spec: Dict) -> Tuple:
    return tuple(sorted(spec.items()))


def get_template(spec: Dict) -> EnclaveTemplate:
    """The per-process template for ``spec`` (built once, cached)."""
    key = _spec_key(spec)
    template = _template_cache.get(key)
    if template is None:
        template = EnclaveTemplate.from_spec(spec)
        _template_cache[key] = template
    return template


class KillPlan(FaultPlan):
    """Die (hard) at the ``kill_at``-th machine-visible operation."""

    def __init__(self, kill_at: int):
        super().__init__()
        self.kill_at = kill_at

    def visit(self, state, kind, detail):
        super().visit(state, kind, detail)
        if self.count == self.kill_at:
            os._exit(KILL_STATUS)


def serve_request(
    template: EnclaveTemplate,
    request: CloudRequest,
    chaos_kill_at: Optional[int] = None,
) -> CloudResponse:
    """Serve one request, honouring the chaos kill point if armed."""
    if chaos_kill_at == 0:
        os._exit(KILL_STATUS)  # killed on dequeue, before any work
    plan = None
    if chaos_kill_at is not None and chaos_kill_at > 0:
        plan = KillPlan(chaos_kill_at)
    try:
        response = template.execute(request, fault_plan=plan)
    except CloudError as exc:
        return CloudResponse.failure(request, exc)
    if chaos_kill_at == -1:
        os._exit(KILL_STATUS)  # killed after the work, before the reply
    return response


def worker_main(worker_id: int, spec: Dict, conn) -> None:
    """Entry point of a worker process; never returns normally except
    on ``("stop",)`` or a closed pipe."""
    template = get_template(spec)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # supervisor is gone; die quietly
        if message[0] == "stop":
            break
        if message[0] == "audit":
            violations = template.audit()
            digest = template.rewind_digest()
            conn.send(("audit_ok", worker_id, violations, digest))
            continue
        if message[0] == "req":
            _, wire, chaos_kill_at = message
            request = CloudRequest.from_wire(wire)
            response = serve_request(template, request, chaos_kill_at)
            conn.send(("res", response.to_wire()))
            continue
        # Unknown message: fail loudly (a protocol bug, not a crash).
        raise RuntimeError(f"worker {worker_id}: unknown message {message[0]!r}")
    conn.close()
