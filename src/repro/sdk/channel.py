"""Message channels over shared insecure memory.

The paper's design maps insecure pages into enclaves "to facilitate
untrusted communication channels with the OS or between enclaves"
(section 4).  This module provides the channel abstraction both sides
use: a single-producer single-consumer ring buffer of word-granularity
messages living in one shared insecure page.

The medium is untrusted by definition — the OS can corrupt or replay
anything — so the channel offers *functionality*, not security: callers
wanting integrity/confidentiality layer sealing or attestation on top
(see ``repro.apps.sealed_storage`` and the attested-channel example).

Layout of the channel page (words):

    0: head   (next slot the consumer will read)
    1: tail   (next slot the producer will write)
    2..: slots; each message is [length, payload...]

Both the host side (direct memory access through the kernel) and the
enclave side (access through the enclave's page tables via a
NativeContext) are provided, sharing the protocol logic.

The cursors move one word at a time; a message moves in runs.  ``send``
writes ``[length] + payload`` as at most two runs (split where the ring
wraps) and then the tail cursor, and ``receive`` reads the length word,
validates it, and reads the payload as at most two runs.  A host run is
one checked burst through the kernel; an enclave run is
``NativeContext.read_words``/``write_words``, which charge the same
cycles as a word-by-word loop.  Page bytes, results and errors are
those of the word-by-word protocol.
"""

from __future__ import annotations

from typing import List, Optional, Protocol

from repro.arm.bits import WORDSIZE
from repro.arm.memory import WORDS_PER_PAGE

_HEAD = 0
_TAIL = 1
_DATA = 2
_CAPACITY = WORDS_PER_PAGE - _DATA


class ChannelError(Exception):
    """Raised on malformed channel state (the medium is untrusted)."""


class WordAccess(Protocol):
    """Word and word-run read/write at a word offset into the page —
    implemented by both endpoints.  A run never leaves the page."""

    def read(self, index: int) -> int: ...

    def write(self, index: int, value: int) -> None: ...

    def read_run(self, index: int, count: int) -> List[int]: ...

    def write_run(self, index: int, words: List[int]) -> None: ...


class HostEndpoint:
    """The OS side: direct checked access to the insecure page."""

    def __init__(self, kernel, base: int):
        self.kernel = kernel
        self.base = base

    def read(self, index: int) -> int:
        return self.kernel.read_insecure(self.base + index * WORDSIZE)

    def write(self, index: int, value: int) -> None:
        self.kernel.write_insecure(self.base + index * WORDSIZE, value)

    def read_run(self, index: int, count: int) -> List[int]:
        return self.kernel.read_insecure_words(self.base + index * WORDSIZE, count)

    def write_run(self, index: int, words: List[int]) -> None:
        self.kernel.write_insecure_words(self.base + index * WORDSIZE, words)


class EnclaveEndpoint:
    """The enclave side: access through its own page tables."""

    def __init__(self, ctx, va: int):
        self.ctx = ctx
        self.va = va

    def read(self, index: int) -> int:
        return self.ctx.read_word(self.va + index * WORDSIZE)

    def write(self, index: int, value: int) -> None:
        self.ctx.write_word(self.va + index * WORDSIZE, value)

    def read_run(self, index: int, count: int) -> List[int]:
        return self.ctx.read_words(self.va + index * WORDSIZE, count)

    def write_run(self, index: int, words: List[int]) -> None:
        self.ctx.write_words(self.va + index * WORDSIZE, words)


class Channel:
    """SPSC ring channel over one shared page.

    Every word of the page — head, tail, lengths, payload — is writable
    by a malicious counterparty at any time, so *every* value read off
    the page is treated as hostile: indices are masked into range before
    use and impossible states surface as :class:`ChannelError`, never as
    an IndexError, OverflowError, or silent out-of-page access.
    """

    def __init__(self, access: WordAccess):
        self.access = access

    def reset(self) -> None:
        self.access.write(_HEAD, 0)
        self.access.write(_TAIL, 0)

    def _used(self, head: int, tail: int) -> int:
        return (tail - head) % _CAPACITY

    def _cursor(self, index: int) -> int:
        """Load a ring cursor (head/tail), clamping hostile values.

        A counterparty can store any 32-bit word; reducing modulo the
        capacity keeps all later arithmetic and indexing inside the
        data region of the page.
        """
        return (self.access.read(index) & 0xFFFFFFFF) % _CAPACITY

    def send(self, message: List[int]) -> bool:
        """Enqueue a message; returns False when the ring is full."""
        if len(message) >= _CAPACITY - 1:
            raise ChannelError("message larger than the channel")
        head = self._cursor(_HEAD)
        tail = self._cursor(_TAIL)
        needed = len(message) + 1
        free = _CAPACITY - 1 - self._used(head, tail)
        if needed > free:
            return False
        words = [len(message)] + [word & 0xFFFFFFFF for word in message]
        split = _CAPACITY - tail  # slots before the ring wraps
        self.access.write_run(_DATA + tail, words[:split])
        if needed > split:
            self.access.write_run(_DATA, words[split:])
        self.access.write(_TAIL, (tail + needed) % _CAPACITY)
        return True

    def receive(self) -> Optional[List[int]]:
        """Dequeue one message; returns None when empty.

        Defensive about corruption: an impossible length (the OS can
        write anything) raises ChannelError rather than reading away.
        """
        head = self._cursor(_HEAD)
        tail = self._cursor(_TAIL)
        if head == tail:
            return None
        length = self.access.read(_DATA + head) & 0xFFFFFFFF
        if length >= _CAPACITY - 1:
            raise ChannelError(f"corrupt message length {length}")
        if length + 1 > self._used(head, tail):
            raise ChannelError("message extends past the tail")
        start = (head + 1) % _CAPACITY
        split = _CAPACITY - start  # slots before the ring wraps
        if length <= split:
            message = self.access.read_run(_DATA + start, length)
        else:
            message = self.access.read_run(_DATA + start, split)
            message += self.access.read_run(_DATA, length - split)
        self.access.write(_HEAD, (head + 1 + length) % _CAPACITY)
        return message

    def pending(self) -> int:
        """Words currently queued (including length headers)."""
        return self._used(self._cursor(_HEAD), self._cursor(_TAIL))
