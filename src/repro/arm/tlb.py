"""TLB consistency model (paper section 5.1).

The model does not track individual TLB entries; it tracks a single
consistency flag.  Executing a full-TLB flush marks the TLB consistent.
Loading the page-table base register, or storing to an address inside the
live first-level table or any second-level table it references, marks the
TLB inconsistent.  The monitor must re-establish consistency (or prove a
store did not touch the tables) before entering an enclave; the model
enforces the "or flush" half by requiring the flag to be set at entry.

``set_ttbr`` binds the TLB to the memory, whose mutators then call
``note_store`` for every watched page they write.  The footprint is
memoised by L1 contents (``table_footprint``).

``version`` is the fast-path coherence hook: it is bumped by every event
after which cached translations may no longer match a fresh page-table
walk — a flush, a TTBR load, or a store that poisons consistency.  The
execution engine's micro-TLB (machine.UArchState) discards itself when
the version changes, so the architectural flush discipline is exactly
what keeps the fast path coherent.
"""

from __future__ import annotations

import functools
from array import array
from typing import FrozenSet, Optional, Set

from repro.arm.memory import _PAGE_MASK, _TYPECODE, PhysicalMemory
from repro.arm.pagetable import DESC_L1_COARSE, L1_ENTRIES, entry_target, entry_type

#: Bound on distinct (L1 base, L1 contents) footprints memoised.
FOOTPRINT_MEMO_SIZE = 256


@functools.lru_cache(maxsize=FOOTPRINT_MEMO_SIZE)
def table_footprint(l1_base: int, l1_words: bytes) -> FrozenSet[int]:
    """Page addresses of the L1 table at ``l1_base`` and of every L2
    table its packed 32-bit entries ``l1_words`` reference (memoised,
    bounded)."""
    pages = {l1_base & _PAGE_MASK}
    for entry in memoryview(l1_words).cast(_TYPECODE):
        if entry_type(entry) == DESC_L1_COARSE:
            pages.add(entry_target(entry))
    return frozenset(pages)


class TLB:
    """The TLB consistency flag plus the page-table footprint it watches."""

    def __init__(self) -> None:
        self.consistent = True
        self._table_pages: Set[int] = set()
        self.flush_count = 0
        #: Bumped whenever cached translations may have gone stale.
        self.version = 0
        self._memory: Optional[PhysicalMemory] = None
        self._l1_base: Optional[int] = None

    def flush(self) -> None:
        """A full TLB flush re-establishes consistency."""
        self.consistent = True
        self.flush_count += 1
        self.version += 1

    def set_ttbr(self, memory: Optional[PhysicalMemory], l1_base: Optional[int]) -> None:
        """Model a TTBR0 load: recompute the watched footprint; the TLB
        becomes inconsistent until flushed."""
        self.consistent = False
        self.version += 1
        self._memory = memory
        self._l1_base = l1_base
        self._recompute_footprint()
        if memory is not None:
            memory.watch(self)

    def _recompute_footprint(self) -> None:
        pages = self._table_pages  # in place: the memory holds this set
        pages.clear()
        memory, l1_base = self._memory, self._l1_base
        if memory is None or l1_base is None:
            return
        words = memory.view_words(l1_base, L1_ENTRIES)
        if not isinstance(words, memoryview):
            words = array(_TYPECODE, words)  # EncryptedMemory's plaintext list
        pages.update(table_footprint(l1_base, words.tobytes()))

    def note_store(self, address: int) -> None:
        """Record a store; stores into the live tables poison the TLB.

        A store into the first-level table may install a pointer to a new
        second-level table, so the watched footprint is recomputed there —
        subsequent stores into that L2 page must poison too, even before
        the next TTBR load.
        """
        page = address & _PAGE_MASK
        if page in self._table_pages:
            self.consistent = False
            self.version += 1
            if self._l1_base is not None and page == self._l1_base & _PAGE_MASK:
                self._recompute_footprint()

    def watches(self, address: int) -> bool:
        """True when a store to ``address`` would poison the TLB: the
        address lies in the live L1 table or an L2 table it references."""
        return address & _PAGE_MASK in self._table_pages

    def require_consistent(self) -> None:
        """Entry-time check the monitor relies on before running user code."""
        if not self.consistent:
            raise TLBInconsistent("enclave entry with inconsistent TLB")

    def copy(self, memory: Optional[PhysicalMemory] = None) -> "TLB":
        """Duplicate the consistency state, rebinding the watched memory.

        ``memory`` should be the copied machine's PhysicalMemory so the
        duplicate watches (and on L1 stores, re-walks) the right store.
        """
        dup = TLB()
        dup.consistent = self.consistent
        dup._table_pages = set(self._table_pages)
        dup.flush_count = self.flush_count
        dup.version = self.version
        dup._memory = memory if memory is not None else self._memory
        dup._l1_base = self._l1_base
        return dup


class TLBInconsistent(Exception):
    """Raised when user execution would begin with a stale TLB."""
