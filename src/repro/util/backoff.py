"""Seeded exponential backoff with jitter, extracted from the OS kernel.

The policy originated as the inline retry loop in
``OSKernel.retry_with_backoff`` (PR 4): a deterministic, seeded,
exponentially growing delay with linear-congruential jitter.  The cloud
supervision layer (``repro.cloud``) needs the same policy for request
re-dispatch after a worker crash, so the arithmetic lives here and both
consumers share it.  The delay *unit* is consumer-defined: the kernel
charges simulated cycles, the cloud supervisor sleeps milliseconds.

The jitter sequence is pinned — ``tests/util/test_backoff.py`` asserts
the exact delays the kernel charged before the extraction — so the
kernel's cycle accounting stays bit-identical across the refactor:

* mix the seed once: ``word = (seed ^ 0x9E3779B9) & 0xFFFFFFFF``
* per retry: ``word = (word * 1664525 + 1013904223) & 0xFFFFFFFF``
  (Numerical Recipes LCG constants)
* delay for retry *k* (1-based): ``base_delay * 2**(k-1) + word % base_delay``

A :class:`Backoff` session is the in-flight state of one retry loop,
held in that loop's locals: small and inert (plain ints).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

_SEED_MIX = 0x9E3779B9
_LCG_MUL = 1664525
_LCG_ADD = 1013904223
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class BackoffPolicy:
    """A bounded exponential-backoff schedule.

    ``base_delay``
        First retry waits ``base_delay..2*base_delay-1`` units; each
        later retry doubles the deterministic part, keeping the jitter
        term in ``0..base_delay-1``.
    ``attempts``
        Total issue budget (first try included): at most
        ``attempts - 1`` retries are granted.
    ``cap``
        Optional ceiling on the deterministic (exponential) part of a
        delay; jitter still rides on top, so delays stay distinct.
    ``deadline``
        Optional absolute time (in the consumer's units) past which no
        further retry is granted: a delay that would *end* after the
        deadline is refused.  Requires callers to pass ``now`` to
        :meth:`Backoff.next_delay`.
    """

    base_delay: int = 64
    attempts: int = 4
    cap: Optional[int] = None
    deadline: Optional[int] = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")
        if self.base_delay < 1:
            raise ValueError("base_delay must be at least 1")
        if self.cap is not None and self.cap < self.base_delay:
            raise ValueError("cap must be >= base_delay")

    def session(self, seed: int = 0) -> "Backoff":
        """Start one retry loop's worth of in-flight backoff state."""
        return Backoff(self, seed)

    def delays(self, seed: int = 0) -> List[int]:
        """The full delay schedule for ``seed`` (for tests and tuning)."""
        session = self.session(seed)
        out: List[int] = []
        while True:
            delay = session.next_delay()
            if delay is None:
                return out
            out.append(delay)


class Backoff:
    """One in-flight retry session: LCG word + retries granted so far."""

    __slots__ = ("policy", "seed", "word", "retries")

    def __init__(self, policy: BackoffPolicy, seed: int = 0):
        self.policy = policy
        self.seed = seed
        self.word = (seed ^ _SEED_MIX) & _MASK32
        self.retries = 0

    @property
    def exhausted(self) -> bool:
        return self.retries >= self.policy.attempts - 1

    def next_delay(self, now: Optional[int] = None) -> Optional[int]:
        """Grant the next retry's delay, or ``None`` to give up.

        ``None`` means either the attempt budget is spent or (when the
        policy has a ``deadline`` and the caller supplied ``now``) the
        delay would overrun it.  Advancing the LCG only on granted
        retries keeps the sequence identical to the original kernel
        loop, which stepped the word once per actual wait.
        """
        policy = self.policy
        if self.exhausted:
            return None
        word = (self.word * _LCG_MUL + _LCG_ADD) & _MASK32
        retry = self.retries + 1
        spin = policy.base_delay * (1 << (retry - 1))
        if policy.cap is not None and spin > policy.cap:
            spin = policy.cap
        delay = spin + word % policy.base_delay
        if policy.deadline is not None and now is not None:
            if now + delay > policy.deadline:
                return None
        self.word = word
        self.retries = retry
        return delay
