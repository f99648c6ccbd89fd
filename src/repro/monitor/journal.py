"""Transactional commit protocol for monitor mutations (redo journal).

Komodo's proofs quantify over every reachable state, including states a
watchdog reset can expose mid-SMC.  To make every handler atomic against
such crashes, the monitor buffers its intended stores in a
``MonitorTransaction`` while the handler validates and computes, then
commits them through a redo log in monitor data memory:

1. **stage** — serialise the buffered operations into the journal region
   (``layout.JOURNAL_OFFSET``) with the committed flag clear;
2. **mark committed** — a single word store of the committed flag.  This
   is the atomic commit point: a crash strictly before it discards the
   call, a crash at or after it completes the call on recovery;
3. **apply** — replay the operations against physical memory;
4. **clear** — scrub the journal header and staged payload.

All redo entries are absolute (address + full new contents, including
whole-page images for copies), so replay is idempotent: ``recover()``
may itself be interrupted and re-run from the top.

The journal traffic is *bookkeeping the cost model already paid for*:
each buffered store charged its cycles when the handler issued it (see
``MachineState.mon_write_word``), so staging, committing, applying and
clearing charge nothing — the cycle-level behaviour of a handler is
bit-identical to the eager-write monitor the benchmarks pinned.

While a handler runs, ``MonitorTransaction`` keeps its pending state per
page beside the redo list, so that zeroing or copying a page costs one
list and a merged bulk read patches only the pending pages it covers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.arm.bits import WORDSIZE
from repro.arm.machine import FaultInjected, MachineState
from repro.arm.memory import PAGE_SIZE, WORDS_PER_PAGE, PhysicalMemory
from repro.monitor.layout import (
    JE_PAGE,
    JE_WRITE,
    JE_ZERO,
    JOURNAL_HEADER_WORDS,
    JOURNAL_MAGIC,
    JOURNAL_OFFSET,
    JOURNAL_SIZE,
)

#: Maximum payload the journal region can hold, in words.
JOURNAL_CAPACITY_WORDS = JOURNAL_SIZE // WORDSIZE - JOURNAL_HEADER_WORDS

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
_PAGE_MASK = PAGE_SIZE - 1

#: Recovery outcomes, in the order recover() tries them.
RECOVERY_CLEAN = "clean"
RECOVERY_DISCARDED = "discarded"
RECOVERY_REPLAYED = "replayed"


def journal_base(state: MachineState) -> int:
    """Physical address of the journal header."""
    return state.memmap.monitor_image.base + JOURNAL_OFFSET


# ---------------------------------------------------------------------------
# Redo-log encoding
# ---------------------------------------------------------------------------
#
# An operation is a tuple tagged with its journal opcode:
#   (JE_WRITE, address, value)
#   (JE_ZERO, page_base)
#   (JE_PAGE, dst_base, (word, ...) * 1024)   -- content read at record time


def encode_ops(ops: Sequence[tuple]) -> List[int]:
    """Serialise operations to the journal payload word stream."""
    payload: List[int] = []
    for op in ops:
        opcode = op[0]
        if opcode == JE_WRITE:
            payload.extend((JE_WRITE, op[1], op[2]))
        elif opcode == JE_ZERO:
            payload.extend((JE_ZERO, op[1]))
        elif opcode == JE_PAGE:
            payload.append(JE_PAGE)
            payload.append(op[1])
            payload.extend(op[2])
        else:  # pragma: no cover - encoder invariant
            raise ValueError(f"unknown journal opcode {opcode}")
    return payload


def decode_ops(payload: Sequence[int]) -> List[tuple]:
    """Parse a journal payload back into operations."""
    ops: List[tuple] = []
    i = 0
    n = len(payload)
    while i < n:
        opcode = payload[i]
        if opcode == JE_WRITE:
            ops.append((JE_WRITE, payload[i + 1], payload[i + 2]))
            i += 3
        elif opcode == JE_ZERO:
            ops.append((JE_ZERO, payload[i + 1]))
            i += 2
        elif opcode == JE_PAGE:
            content = tuple(payload[i + 2 : i + 2 + WORDS_PER_PAGE])
            ops.append((JE_PAGE, payload[i + 1], content))
            i += 2 + WORDS_PER_PAGE
        else:
            raise ValueError(f"corrupt journal: opcode {opcode} at word {i}")
    return ops


def apply_ops(state: MachineState, ops: Sequence[tuple]) -> None:
    """Replay redo operations against physical memory.

    Every entry is absolute, so applying is idempotent; each application
    is a machine-visible store and therefore an injection point.  TLB
    consistency is poisoned exactly as the eager store would have (the
    memory does that itself).
    """
    memory = state.memory
    for op in ops:
        opcode = op[0]
        if opcode == JE_WRITE:
            state.fault_point("apply", op[1])
            memory.write_word(op[1], op[2])
        elif opcode == JE_ZERO:
            state.fault_point("apply", op[1])
            memory.zero_page(op[1])
        elif opcode == JE_PAGE:
            state.fault_point("apply", op[1])
            memory.write_words(op[1], op[2])
        else:  # pragma: no cover - decode_ops rejects unknown opcodes
            raise ValueError(f"unknown journal opcode {opcode}")


# ---------------------------------------------------------------------------
# Journal region protocol
# ---------------------------------------------------------------------------


def stage(state: MachineState, payload: Sequence[int]) -> None:
    """Write header (committed clear) plus payload in one burst."""
    if len(payload) > JOURNAL_CAPACITY_WORDS:
        raise RuntimeError(
            f"journal overflow: {len(payload)} words > {JOURNAL_CAPACITY_WORDS}"
        )
    base = journal_base(state)
    state.fault_point("journal-stage", base)
    state.memory.write_words(
        base, [JOURNAL_MAGIC, 0, len(payload)] + list(payload)
    )


def mark_committed(state: MachineState) -> None:
    """The commit point: one word store flips the call to committed."""
    base = journal_base(state)
    state.fault_point("journal-commit", base)
    state.memory.write_word(base + WORDSIZE, 1)


def clear(state: MachineState) -> None:
    """Scrub the header and staged payload.

    Zeroing the payload too (not just the magic) keeps the journal
    region bit-identical across quiescent states, so crash audits can
    compare whole-region digests without masking stale log entries.
    """
    base = journal_base(state)
    length = 0
    if state.memory.read_word(base) == JOURNAL_MAGIC:
        length = min(
            state.memory.read_word(base + 2 * WORDSIZE), JOURNAL_CAPACITY_WORDS
        )
    state.fault_point("journal-clear", base)
    state.memory.write_words(base, [0] * (JOURNAL_HEADER_WORDS + length))


def read_header(state: MachineState) -> Tuple[int, int, int]:
    """(magic, committed, payload length) from the journal region."""
    base = journal_base(state)
    words = state.memory.read_words(base, JOURNAL_HEADER_WORDS)
    return (words[0], words[1], words[2])


def is_present(state: MachineState) -> bool:
    """True if a journal (committed or not) is staged."""
    return state.memory.read_word(journal_base(state)) == JOURNAL_MAGIC


def payload_words(state: MachineState) -> List[int]:
    """The staged payload (no header)."""
    magic, _, length = read_header(state)
    if magic != JOURNAL_MAGIC:
        return []
    base = journal_base(state) + JOURNAL_HEADER_WORDS * WORDSIZE
    return state.memory.read_words(base, length)


def recover(state: MachineState) -> str:
    """Replay-or-discard the journal found in monitor memory.

    Returns one of ``"clean"`` (no journal staged), ``"discarded"``
    (staged but the crash hit before the commit point — the interrupted
    call never happened), or ``"replayed"`` (committed — the interrupted
    call is completed by replaying its redo log).  Idempotent: a crash
    during recovery re-runs it from the top with the same outcome.
    """
    magic, committed, length = read_header(state)
    if magic != JOURNAL_MAGIC:
        return RECOVERY_CLEAN
    if committed != 1 or length > JOURNAL_CAPACITY_WORDS:
        clear(state)
        return RECOVERY_DISCARDED
    base = journal_base(state) + JOURNAL_HEADER_WORDS * WORDSIZE
    ops = decode_ops(state.memory.read_words(base, length))
    apply_ops(state, ops)
    clear(state)
    return RECOVERY_REPLAYED


# ---------------------------------------------------------------------------
# The in-flight transaction
# ---------------------------------------------------------------------------


class MonitorTransaction:
    """Buffered monitor stores awaiting the commit point.

    Attached to ``MachineState.txn`` for the duration of a handler;
    ``mon_write_word`` and friends record into it instead of storing,
    and monitor reads merge the pending state so the handler observes
    its own pending writes (read-your-writes).

    ``ops`` is the redo log in the order the handler made its stores.
    Beside it the pending state is kept per page, keyed by page number:
    a page the transaction zeroed or copied holds a full
    ``WORDS_PER_PAGE``-word image (later word stores patch it in place),
    and any other page a small dict of its sparse word stores, keyed by
    word index.  Recording a zero or a copy is therefore one list, and a
    bulk read patches only the pending pages its span covers.  Addresses
    are word aligned, as every ``PhysicalMemory`` access is.
    """

    __slots__ = ("ops", "_pages")

    def __init__(self) -> None:
        self.ops: List[tuple] = []
        #: page number -> full image (list) or sparse stores (dict),
        #: both indexed by word index within the page.
        self._pages: Dict[int, Union[List[int], Dict[int, int]]] = {}

    # -- recording (called from MachineState monitor helpers) -----------

    def _store_page(self, base: int, content: List[int]) -> None:
        if base & _PAGE_MASK:
            # Word aligned but not page aligned: the image straddles two
            # pages, so patch it in word by word.
            for i, word in enumerate(content):
                address = base + i * WORDSIZE
                self._pages.setdefault(address >> _PAGE_SHIFT, {})[
                    (address & _PAGE_MASK) >> 2
                ] = word
        else:
            self._pages[base >> _PAGE_SHIFT] = content

    def record_write(self, address: int, value: int) -> None:
        value &= 0xFFFFFFFF
        self.ops.append((JE_WRITE, address, value))
        self._pages.setdefault(address >> _PAGE_SHIFT, {})[
            (address & _PAGE_MASK) >> 2
        ] = value

    def record_zero(self, base: int) -> None:
        self.ops.append((JE_ZERO, base))
        self._store_page(base, [0] * WORDS_PER_PAGE)

    def record_copy_page(self, memory: PhysicalMemory, src: int, dst: int) -> None:
        # Snapshot the source *now* (merged with our own pending writes)
        # so replay is deterministic even if insecure memory changes
        # between the crash and recovery.
        content = self.read_words(memory, src, WORDS_PER_PAGE)
        self.ops.append((JE_PAGE, dst, tuple(content)))
        self._store_page(dst, content)

    # -- read-your-writes ------------------------------------------------

    def read(self, address: int) -> Optional[int]:
        """The buffered value at ``address``, or None if unbuffered."""
        page = self._pages.get(address >> _PAGE_SHIFT)
        if page is None:
            return None
        if type(page) is list:
            return page[(address & _PAGE_MASK) >> 2]
        return page.get((address & _PAGE_MASK) >> 2)

    def read_words(
        self, memory: PhysicalMemory, address: int, count: int
    ) -> List[int]:
        """Bulk read merging buffered stores over physical memory.

        A span inside one page this transaction zeroed or copied is read
        from the pending image alone, without touching memory.
        """
        pages = self._pages
        first = (address & _PAGE_MASK) >> 2
        page = pages.get(address >> _PAGE_SHIFT)
        if type(page) is list and first + count <= WORDS_PER_PAGE:
            return page[first : first + count]
        words = memory.read_words(address, count)
        if not pages or not count:
            return words
        end = address + count * WORDSIZE
        for pageno in range(address >> _PAGE_SHIFT, ((end - 1) >> _PAGE_SHIFT) + 1):
            page = pages.get(pageno)
            if page is None:
                continue
            # The span's overlap with this page, as word indices within
            # the page [first, last) and the position of first in words.
            start = max(address, pageno << _PAGE_SHIFT)
            first = (start & _PAGE_MASK) >> 2
            last = first + ((min(end, (pageno + 1) << _PAGE_SHIFT) - start) >> 2)
            at = (start - address) >> 2
            if type(page) is list:
                words[at : at + last - first] = page[first:last]
            else:
                for index, value in page.items():
                    if first <= index < last:
                        words[at + index - first] = value
        return words

    # -- commit ----------------------------------------------------------

    def commit(self, state: MachineState) -> None:
        """Drive the buffered operations through the journal protocol."""
        if not self.ops:
            return
        stage(state, encode_ops(self.ops))
        mark_committed(state)
        apply_ops(state, self.ops)
        clear(state)


def run_transactional(
    state: MachineState,
    fn: Callable[[], object],
    commit_if: Callable[[object], bool],
):
    """Run ``fn`` with stores buffered; commit or discard by its result.

    On ``commit_if(result)`` the buffered stores go through the journal;
    otherwise they are discarded, which gives error paths their purity
    guarantee *by construction* — a handler that bails with an error
    cannot have leaked a partial mutation.

    A ``FaultInjected`` crash propagates with the transaction still
    attached (the buffer is volatile state that dies with the machine;
    ``KomodoMonitor.recover`` models the reset).  Any other exception is
    a harness error: the buffer is dropped and the exception re-raised.

    Transactions do not nest — every handler window is flat.
    """
    if state.txn is not None:
        raise RuntimeError("monitor transactions do not nest")
    txn = MonitorTransaction()
    state.txn = txn
    try:
        result = fn()
    except FaultInjected:
        raise
    except BaseException:
        state.txn = None
        raise
    state.txn = None
    if commit_if(result):
        if txn.ops:
            # Let the integrity engine append tag updates covering the
            # buffered stores, so data and tags commit atomically.
            from repro.monitor import integrity

            integrity.record_tag_ops(state, txn)
        txn.commit(state)
    # A quiescent boundary: the machine state here is one the crash
    # audit accepts as "pre-call or completed".
    state.fault_point("txn-boundary", 0)
    return result
