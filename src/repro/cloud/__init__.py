"""Resilient multi-tenant enclave serving (the "enclave cloud").

A cloud operator runs many tenants' enclave requests on a pool of
machines, some of which crash mid-request.  Komodo's crash-recovery
story (PR 3: the commit journal, ``monitor.recover()``, the driver's
retry discipline) makes that survivable *within* one machine; this
package scales it out: a supervised pool of worker processes, each
holding a pre-booted monitor+OS template, serves attest / seal /
unseal / sign / checksum requests while a supervisor detects crashed
workers, respawns them, and re-dispatches in-flight requests with
seeded backoff — degrading to a slow single-worker path rather than
failing when the pool is unhealthy.

Layering:

* :mod:`repro.cloud.api` — wire types, idempotency keys, typed errors;
* :mod:`repro.cloud.template` — one pre-booted enclave machine,
  snapshot-restored per request (the "template");
* :mod:`repro.cloud.worker` — the worker-process main loop;
* :mod:`repro.cloud.supervisor` — worker handles + circuit breaker;
* :mod:`repro.cloud.service` — the asyncio front end tying it together;
* :mod:`repro.cloud.chaos` — the kill-workers-mid-request campaign.

CLI: ``python -m repro.tools.cloudcamp`` (chaos gate).  Serving
throughput and latency are measured by the repo benchmark,
``python -m bench`` (workloads ``serve-light`` and ``serve-heavy``).
"""

from repro.cloud.api import (
    REQUEST_KINDS,
    BadRequest,
    CloudError,
    CloudRequest,
    CloudResponse,
    DeadlineExceeded,
    PoolClosed,
    RequestTimeout,
    WorkerCrashed,
)
from repro.cloud.service import CloudService
from repro.cloud.template import EnclaveTemplate

__all__ = [
    "REQUEST_KINDS",
    "BadRequest",
    "CloudError",
    "CloudRequest",
    "CloudResponse",
    "CloudService",
    "DeadlineExceeded",
    "EnclaveTemplate",
    "PoolClosed",
    "RequestTimeout",
    "WorkerCrashed",
]
