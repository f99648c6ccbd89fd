"""The enclave cloud's front end: asyncio supervision of forked workers.

One :class:`CloudService` owns a pool of worker processes (each a
forked copy of a prewarmed :class:`EnclaveTemplate`) and runs all of
its bookkeeping on one asyncio event loop.  The loop's selector
watches every worker's pipe *and its process sentinel*, so a worker
dying mid-request — or while idle — is detected even if it never
writes another byte.

Resilience mechanics:

* **idempotency** — requests are identified by ``CloudRequest.key``;
  a second submit of the same key awaits the first execution's future,
  and a crash-retried request is re-*dispatched*, never re-*resolved*,
  so a seal/sign executes at most once from the client's view *within
  the dedup window*: the service remembers the ``DEDUP_WINDOW`` most
  recently completed keys (and every pending one), so a duplicate of
  an older key executes again and gets a fresh response;
* **crash retry** — a dead worker's in-flight requests (up to
  ``PIPELINE_DEPTH`` of them) are each re-dispatched after a seeded
  exponential backoff (``repro.util.backoff`` delays ×
  ``BACKOFF_UNIT_S`` seconds), with the chaos kill point stripped so an
  injected kill fires exactly once; after ``max_attempts`` dispatches
  a request resolves with a typed retryable ``worker_crashed`` error;
* **pipelined dispatch** — up to ``PIPELINE_DEPTH`` requests ride each
  worker's pipe at once, so the worker picks up its next request the
  instant it finishes one instead of idling through the supervisor's
  full receive/resolve/dispatch round trip (the serialization that made
  multi-worker req/s flat-to-negative);
* **respawn** — every death forks a replacement from the prewarmed
  template (copy-on-write: no re-boot, no re-keygen);
* **timeouts** — ``request_timeout`` (wall-clock) hard-kills a wedged
  worker, funnelling into the same retry path; the *deterministic*
  per-request deadline is the step budget inside the worker;
* **degradation** — a :class:`CircuitBreaker` over pool dispatches;
  when open, requests run on the parent's own template in a one-thread
  executor: slow, serialised, but bit-identical — correctness is never
  traded for availability.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.cloud.api import (
    BadRequest,
    CloudError,
    CloudRequest,
    CloudResponse,
    PoolClosed,
    RequestTimeout,
    WorkerCrashed,
)
from repro.cloud.supervisor import CircuitBreaker, WorkerHandle
from repro.cloud.worker import get_template, serve_request, worker_main
from repro.util.backoff import Backoff, BackoffPolicy

#: Fork is the only start method that inherits the prewarmed template;
#: it exists on every POSIX platform this repo targets.
_MP_CONTEXT = "fork"

#: Requests pipelined on one worker's pipe at once.
PIPELINE_DEPTH = 2

#: Seconds per unit of the seeded retry backoff.
BACKOFF_UNIT_S = 0.002

#: Completed request keys remembered for deduplication (pending ones
#: are never forgotten).
DEDUP_WINDOW = 4096


@dataclass
class _Entry:
    """One in-flight (or completed) request and its serving state."""

    request: CloudRequest
    future: "asyncio.Future[CloudResponse]"
    backoff: Backoff
    chaos_kill_at: Optional[int] = None
    attempts: int = 0
    worker_id: Optional[int] = None
    timer: Optional[object] = None  # asyncio.TimerHandle
    timed_out: bool = False
    started: float = field(default_factory=time.monotonic)


class CloudService:
    """Supervised multi-tenant enclave serving over a worker pool."""

    def __init__(
        self,
        workers: int = 2,
        engine: str = "turbo",
        seed: int = 0xC10D,
        secure_pages: int = 48,
        step_budget: int = 2_000_000,
        request_timeout: Optional[float] = None,
        max_attempts: int = 3,
        breaker_threshold: int = 4,
        breaker_cooldown: float = 0.25,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.pool_size = workers
        self.spec = {
            "engine": engine,
            "seed": seed,
            "secure_pages": secure_pages,
            "step_budget": step_budget,
        }
        self.request_timeout = request_timeout
        self.max_attempts = max_attempts
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold, cooldown=breaker_cooldown
        )
        self._ctx = multiprocessing.get_context(_MP_CONTEXT)
        self._workers: Dict[int, WorkerHandle] = {}
        self._next_worker_id = 0
        self._entries: Dict[str, _Entry] = {}
        #: Keys of completed entries, oldest first (the dedup window).
        self._completed: Deque[str] = deque()
        self._queue: Deque[str] = deque()
        #: Worker ids with spare pipeline capacity (each at most once).
        self._idle: Deque[int] = deque()
        self._audit_futures: Dict[int, "asyncio.Future"] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._degraded_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="cloud-degraded"
        )
        self._closing = False
        self._started = False
        self.counters = {
            "submitted": 0,
            "completed": 0,
            "crashes": 0,
            "respawns": 0,
            "retries": 0,
            "degraded": 0,
            "timeouts": 0,
        }

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> "CloudService":
        """Prewarm the template and fork the pool."""
        if self._started:
            raise RuntimeError("service already started")
        self._loop = asyncio.get_running_loop()
        # Template build (RSA keygen included) is CPU-heavy; do it off
        # the loop.  Workers forked afterwards inherit it via the
        # worker-module cache, so each fork is cheap.
        await self._loop.run_in_executor(None, get_template, self.spec)
        for _ in range(self.pool_size):
            self._spawn_worker()
        self._started = True
        return self

    async def close(self) -> None:
        """Stop the pool; pending requests resolve with ``pool_closed``."""
        if self._closing:
            return
        self._closing = True
        for entry in self._entries.values():
            if entry.timer is not None:
                entry.timer.cancel()
            if not entry.future.done():
                entry.future.set_result(
                    CloudResponse.failure(
                        entry.request, PoolClosed("service closed"),
                        attempts=entry.attempts,
                    )
                )
        handles = list(self._workers.values())
        self._workers.clear()
        for handle in handles:
            self._unwatch(handle)
            try:
                handle.conn.send(("stop",))
            except OSError:
                pass
        for handle in handles:
            handle.process.join(timeout=1.0)
            if handle.process.is_alive():
                handle.kill()
                handle.process.join(timeout=1.0)
            handle.close()
        self._degraded_pool.shutdown(wait=True)

    # -- the public request path -----------------------------------------

    async def submit(
        self,
        request: CloudRequest,
        chaos_kill_at: Optional[int] = None,
    ) -> CloudResponse:
        """Serve a request; always returns a terminal CloudResponse.

        Duplicate submits of the same idempotency key share one
        execution.  ``chaos_kill_at`` is the chaos campaign's hook (see
        ``repro.cloud.worker.KillPlan``); it applies to the *first*
        dispatch only — the retry path strips it.
        """
        if not self._started:
            raise RuntimeError("service not started")
        if self._closing:
            return CloudResponse.failure(request, PoolClosed("service closed"))
        try:
            request.validate()
        except BadRequest as exc:
            return CloudResponse.failure(request, exc)
        key = request.key
        entry = self._entries.get(key)
        if entry is None:
            policy = BackoffPolicy(
                base_delay=4, attempts=max(self.max_attempts, 2), cap=64
            )
            entry = _Entry(
                request=request,
                future=self._loop.create_future(),
                backoff=policy.session(seed=int(key[:8], 16)),
                chaos_kill_at=chaos_kill_at,
            )
            self._entries[key] = entry
            self.counters["submitted"] += 1
            self._dispatch(entry)
        return await asyncio.shield(entry.future)

    async def audit_workers(
        self, timeout: float = 30.0
    ) -> Dict[int, Tuple[List[str], str]]:
        """Ask every *idle* worker to restore + audit its secure state.

        Returns ``{worker_id: (violations, rewind_digest)}``.
        """
        futures: Dict[int, "asyncio.Future"] = {}
        for handle in [h for h in self._workers.values() if h.idle]:
            try:
                handle.conn.send(("audit",))
            except OSError:
                continue  # died since the snapshot; skip it
            future = self._loop.create_future()
            self._audit_futures[handle.worker_id] = future
            futures[handle.worker_id] = future
        results: Dict[int, Tuple[List[str], str]] = {}
        for worker_id, future in futures.items():
            results[worker_id] = await asyncio.wait_for(future, timeout)
        return results

    def stats(self) -> Dict:
        alive = sum(1 for h in self._workers.values() if h.alive)
        return {
            **self.counters,
            "workers_alive": alive,
            "queue_depth": len(self._queue),
            "breaker": self.breaker.state,
            "breaker_opens": self.breaker.opens,
        }

    # -- worker management and event handlers (all on the loop) ----------

    def _spawn_worker(self) -> WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, self.spec, child_conn),
            daemon=True,
            name=f"cloud-worker-{worker_id}",
        )
        process.start()
        child_conn.close()
        handle = WorkerHandle(
            worker_id=worker_id, process=process, conn=parent_conn
        )
        self._workers[worker_id] = handle
        self._loop.add_reader(parent_conn.fileno(), self._on_readable, worker_id)
        self._loop.add_reader(process.sentinel, self._on_worker_death, worker_id)
        self._idle.append(worker_id)
        return handle

    def _unwatch(self, handle: WorkerHandle) -> None:
        # Before the conn closes: forked siblings hold copies of this
        # pipe, so epoll would keep reporting the closed fd number.
        self._loop.remove_reader(handle.conn.fileno())
        self._loop.remove_reader(handle.process.sentinel)

    def _on_readable(self, worker_id: int) -> None:
        handle = self._workers.get(worker_id)
        if handle is None:
            return
        try:
            while handle.conn.poll(0):
                self._on_message(handle, handle.conn.recv())
        except (EOFError, OSError):
            self._on_worker_death(worker_id)

    def _on_message(self, handle: WorkerHandle, message: Tuple) -> None:
        worker_id = handle.worker_id
        kind = message[0]
        if kind == "res":
            response = CloudResponse.from_wire(message[1])
            try:
                handle.inflight.remove(response.key)
            except ValueError:
                pass  # already failed over to another worker
            self._mark_available(worker_id, handle)
            self.breaker.record_success()
            self._resolve(response.key, response, worker_id)
            self._drain_queue()
        elif kind == "audit_ok":
            future = self._audit_futures.pop(worker_id, None)
            if future is not None and not future.done():
                future.set_result((message[2], message[3]))

    def _on_worker_death(self, worker_id: int) -> None:
        handle = self._workers.pop(worker_id, None)
        if handle is None:
            return
        self._unwatch(handle)
        handle.kill()
        handle.close()
        try:
            self._idle.remove(worker_id)
        except ValueError:
            pass
        if self._closing:
            return
        self.counters["crashes"] += 1
        self.counters["respawns"] += 1
        self._spawn_worker()
        # Every pipelined request on the dead worker is lost at once.
        # The worker serves its pipe in FIFO order, so only the head of
        # ``inflight`` was actually executing — the rest sat unread in
        # the pipe.  The breaker records one failure per death, not per
        # request: it measures worker health, not request fan-out.
        lost = list(handle.inflight)
        handle.inflight.clear()
        recorded = False
        for position, key in enumerate(lost):
            entry = self._entries.get(key)
            if entry is None or entry.future.done():
                continue
            if not recorded:
                self.breaker.record_failure()
                recorded = True
            if entry.timer is not None:
                entry.timer.cancel()
                entry.timer = None
            entry.worker_id = None
            if position == 0:
                # The injected kill has fired; a retry must run the
                # request for real (at-most-once chaos, at-most-once
                # client view).
                entry.chaos_kill_at = None
            elif not entry.timed_out:
                # Never started: it neither consumed its chaos kill
                # point nor burned a real execution attempt.  Requeue
                # it as-is, without backoff.
                entry.attempts -= 1
                self._loop.call_soon(self._dispatch, entry)
                continue
            if entry.attempts >= self.max_attempts:
                error: CloudError = (
                    RequestTimeout(
                        f"request killed after {self.request_timeout}s on "
                        f"{entry.attempts} worker(s)"
                    )
                    if entry.timed_out
                    else WorkerCrashed(
                        f"all {entry.attempts} dispatch attempts died with "
                        "their worker"
                    )
                )
                self._resolve(
                    key,
                    CloudResponse.failure(
                        entry.request, error, attempts=entry.attempts
                    ),
                    worker_id=-1,
                )
                continue
            self.counters["retries"] += 1
            delay_units = entry.backoff.next_delay()
            delay = (delay_units or 0) * BACKOFF_UNIT_S
            self._loop.call_later(delay, self._dispatch, entry)

    def _on_request_timeout(self, key: str, worker_id: int) -> None:
        entry = self._entries.get(key)
        handle = self._workers.get(worker_id)
        if (
            entry is None
            or entry.future.done()
            or handle is None
            or key not in handle.inflight
        ):
            return
        self.counters["timeouts"] += 1
        entry.timed_out = True
        # Hard-kill the wedged worker; the sentinel fires and the death
        # path decides between redispatch and a typed timeout failure.
        handle.kill()

    # -- dispatch ---------------------------------------------------------

    def _dispatch(self, entry: _Entry) -> None:
        if self._closing or entry.future.done():
            return
        key = entry.request.key
        if not self.breaker.allow():
            self._dispatch_degraded(entry)
            return
        if not self._idle:
            if key not in self._queue:
                self._queue.append(key)
            return
        worker_id = self._idle.popleft()
        handle = self._workers.get(worker_id)
        if handle is None or not handle.alive:
            # Raced with a death the loop hasn't processed yet.
            self._loop.call_soon(self._dispatch, entry)
            return
        entry.attempts += 1
        entry.worker_id = worker_id
        handle.inflight.append(key)
        try:
            handle.conn.send(("req", entry.request.to_wire(), entry.chaos_kill_at))
        except OSError:
            try:
                handle.inflight.remove(key)
            except ValueError:
                pass
            self._loop.call_soon(self._dispatch, entry)
            return
        self._mark_available(worker_id, handle)
        if self.request_timeout is not None:
            entry.timer = self._loop.call_later(
                self.request_timeout, self._on_request_timeout, key, worker_id
            )

    def _mark_available(self, worker_id: int, handle: WorkerHandle) -> None:
        """Put the worker back in the capacity ring if it can take more."""
        if (
            handle.alive
            and handle.has_capacity(PIPELINE_DEPTH)
            and worker_id not in self._idle
        ):
            self._idle.append(worker_id)

    def _dispatch_degraded(self, entry: _Entry) -> None:
        """Breaker-open path: correct, slow, in-process, serialised."""
        entry.attempts += 1
        self.counters["degraded"] += 1
        request = entry.request

        def run() -> CloudResponse:
            template = get_template(self.spec)
            # Deliberately no chaos_kill_at: the degraded path runs in
            # the supervisor's own process, where an injected kill
            # would take down the whole service — the opposite of
            # graceful degradation.
            return serve_request(template, request)

        future = self._loop.run_in_executor(self._degraded_pool, run)

        def done(fut) -> None:
            if entry.future.done():
                return
            try:
                response = fut.result()
            except CloudError as exc:
                response = CloudResponse.failure(request, exc)
            self._resolve(
                request.key,
                dataclasses.replace(response, degraded=True),
                worker_id=-1,
            )

        future.add_done_callback(
            lambda fut: self._loop.call_soon_threadsafe(done, fut)
        )

    def _drain_queue(self) -> None:
        while self._queue and self._idle:
            key = self._queue.popleft()
            entry = self._entries.get(key)
            if entry is not None and not entry.future.done():
                self._dispatch(entry)

    def _resolve(self, key: str, response: CloudResponse, worker_id: int) -> None:
        entry = self._entries.get(key)
        if entry is None or entry.future.done():
            return
        if entry.timer is not None:
            entry.timer.cancel()
            entry.timer = None
        self.counters["completed"] += 1
        entry.future.set_result(
            dataclasses.replace(
                response,
                worker=worker_id,
                attempts=max(entry.attempts, response.attempts),
                elapsed=time.monotonic() - entry.started,
            )
        )
        completed = self._completed
        completed.append(key)
        if len(completed) > DEDUP_WINDOW:
            del self._entries[completed.popleft()]
