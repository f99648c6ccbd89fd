"""Supervision primitives: worker handles and the circuit breaker.

The service (``repro.cloud.service``) composes these: a
:class:`WorkerHandle` per forked worker, whose pipe and process
sentinel the service's event loop watches, and one
:class:`CircuitBreaker` guarding the pool — when workers are dying
faster than the respawn path can prove them healthy, the breaker opens
and the service sheds load onto its degraded-but-correct in-process
path instead of queueing requests behind a crash loop.

The breaker is the classic three-state machine:

* CLOSED — healthy; failures are counted, ``failure_threshold``
  consecutive ones open it;
* OPEN — all pool traffic is refused for ``cooldown`` seconds;
* HALF_OPEN — after the cooldown, exactly one probe request is let
  through; success closes the breaker, failure re-opens it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Optional

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure breaker with a cooldown and a half-open probe."""

    def __init__(
        self,
        failure_threshold: int = 4,
        cooldown: float = 0.25,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probe_in_flight = False
        self.opens = 0  # lifetime count, for stats

    @property
    def state(self) -> str:
        self._tick()
        return self._state

    def _tick(self) -> None:
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self.cooldown
        ):
            self._state = HALF_OPEN
            self._probe_in_flight = False

    def allow(self) -> bool:
        """May a request use the pool right now?

        In HALF_OPEN, only the first caller gets a True (the probe);
        the rest stay shed until the probe reports back.
        """
        self._tick()
        if self._state == CLOSED:
            return True
        if self._state == HALF_OPEN and not self._probe_in_flight:
            self._probe_in_flight = True
            return True
        return False

    def record_success(self) -> None:
        self._tick()
        self._consecutive_failures = 0
        self._state = CLOSED
        self._probe_in_flight = False

    def record_failure(self) -> None:
        self._tick()
        self._consecutive_failures += 1
        if self._state == HALF_OPEN or (
            self._state == CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._state = OPEN
            self._opened_at = self._clock()
            self._probe_in_flight = False
            self.opens += 1


@dataclass
class WorkerHandle:
    """The supervisor's view of one worker process."""

    worker_id: int
    process: Any  # multiprocessing.Process
    conn: Any  # multiprocessing.connection.Connection
    #: Idempotency keys of dispatched-but-unanswered requests, oldest
    #: first.  The service pipelines up to ``PIPELINE_DEPTH`` requests
    #: per worker: while the worker serves one, the next already sits
    #: in its pipe, so the worker never idles through the supervisor's
    #: response round trip.  The worker answers in FIFO order, but a
    #: death loses *all* of these at once — the retry path must walk
    #: the whole deque.
    inflight: Deque[str] = field(default_factory=deque)

    @property
    def idle(self) -> bool:
        return not self.inflight

    def has_capacity(self, depth: int) -> bool:
        """May the service pipeline another request to this worker?"""
        return len(self.inflight) < depth

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """Hard-kill the worker (wedged or being reaped)."""
        if self.process.is_alive():
            self.process.kill()

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
