"""Concrete PageDB: the monitor's view of every secure page.

The PageDB is the heart of the monitor (paper section 4): for every
secure page it records the allocation state, the type, and the owning
address space — roughly the EPCM of SGX.  The concrete representation
lives in machine memory (the PageDB array in monitor data, plus metadata
words inside addrspace and thread pages), so that the refinement checker
can reconstruct the abstract PageDB of the specification from nothing but
machine state.

This module wraps that representation in an accessor object; all reads
and writes go through the machine state and are charged cycles.
"""

from __future__ import annotations

from typing import List

from repro.arm.bits import WORDSIZE
from repro.arm.machine import MachineState
from repro.monitor.layout import (
    AS_HASH_LEN_WORD,
    AS_HASH_STATE_WORD,
    AS_L1PT_WORD,
    AS_MEASURED_WORD,
    AS_MEASUREMENT_WORD,
    AS_REFCOUNT_WORD,
    AS_STATE_WORD,
    AddrspaceState,
    PAGEDB_ENTRY_WORDS,
    PAGEDB_OWNER_WORD,
    PAGEDB_TYPE_WORD,
    PageType,
    TH_CONTEXT_CPSR_WORD,
    TH_CONTEXT_LR_WORD,
    TH_CONTEXT_PC_WORD,
    TH_CONTEXT_R0_WORD,
    TH_CONTEXT_SP_WORD,
    TH_ENTERED_WORD,
    TH_ENTRYPOINT_WORD,
    TH_FAULT_HANDLER_WORD,
    TH_FCONTEXT_CPSR_WORD,
    TH_FCONTEXT_LR_WORD,
    TH_FCONTEXT_PC_WORD,
    TH_FCONTEXT_R0_WORD,
    TH_FCONTEXT_SP_WORD,
    TH_IN_HANDLER_WORD,
    pagedb_entry_addr,
)


class PageDB:
    """Accessor for the concrete PageDB backed by ``MachineState`` memory."""

    def __init__(self, state: MachineState):
        self.state = state
        self.npages = state.memmap.secure_pages

    # -- entry array -------------------------------------------------------

    def _entry_addr(self, pageno: int, word: int) -> int:
        base = pagedb_entry_addr(self.state.memmap.monitor_image.base, pageno)
        return base + word * WORDSIZE

    def valid_pageno(self, pageno: int) -> bool:
        return self.state.memmap.valid_pageno(pageno)

    def page_type(self, pageno: int) -> PageType:
        raw = self.state.mon_read_word(self._entry_addr(pageno, PAGEDB_TYPE_WORD))
        return PageType(raw)

    def owner(self, pageno: int) -> int:
        """Owning addrspace page number (meaningless for FREE pages)."""
        return self.state.mon_read_word(self._entry_addr(pageno, PAGEDB_OWNER_WORD))

    def set_entry(self, pageno: int, page_type: PageType, owner: int) -> None:
        self.state.mon_write_word(
            self._entry_addr(pageno, PAGEDB_TYPE_WORD), int(page_type)
        )
        self.state.mon_write_word(self._entry_addr(pageno, PAGEDB_OWNER_WORD), owner)

    def free_entry(self, pageno: int) -> None:
        self.set_entry(pageno, PageType.FREE, 0)

    def is_free(self, pageno: int) -> bool:
        return self.page_type(pageno) is PageType.FREE

    # -- page word access ------------------------------------------------------

    def page_base(self, pageno: int) -> int:
        return self.state.memmap.page_base(pageno)

    def read_page_word(self, pageno: int, word: int) -> int:
        return self.state.mon_read_word(self.page_base(pageno) + word * WORDSIZE)

    def write_page_word(self, pageno: int, word: int, value: int) -> None:
        self.state.mon_write_word(self.page_base(pageno) + word * WORDSIZE, value)

    # -- addrspace metadata ------------------------------------------------------

    def addrspace_state(self, asno: int) -> AddrspaceState:
        return AddrspaceState(self.read_page_word(asno, AS_STATE_WORD))

    def set_addrspace_state(self, asno: int, new_state: AddrspaceState) -> None:
        self.write_page_word(asno, AS_STATE_WORD, int(new_state))

    def refcount(self, asno: int) -> int:
        return self.read_page_word(asno, AS_REFCOUNT_WORD)

    def adjust_refcount(self, asno: int, delta: int) -> None:
        self.write_page_word(asno, AS_REFCOUNT_WORD, self.refcount(asno) + delta)

    def l1pt_page(self, asno: int) -> int:
        return self.read_page_word(asno, AS_L1PT_WORD)

    def set_l1pt_page(self, asno: int, l1pt: int) -> None:
        self.write_page_word(asno, AS_L1PT_WORD, l1pt)

    def hash_state(self, asno: int) -> List[int]:
        return [self.read_page_word(asno, AS_HASH_STATE_WORD + i) for i in range(8)]

    def set_hash_state(self, asno: int, words: List[int]) -> None:
        for i, value in enumerate(words):
            self.write_page_word(asno, AS_HASH_STATE_WORD + i, value)

    def hash_length(self, asno: int) -> int:
        return self.read_page_word(asno, AS_HASH_LEN_WORD)

    def set_hash_length(self, asno: int, length: int) -> None:
        self.write_page_word(asno, AS_HASH_LEN_WORD, length)

    def measurement(self, asno: int) -> List[int]:
        return [self.read_page_word(asno, AS_MEASUREMENT_WORD + i) for i in range(8)]

    def set_measurement(self, asno: int, words: List[int]) -> None:
        for i, value in enumerate(words):
            self.write_page_word(asno, AS_MEASUREMENT_WORD + i, value)
        self.write_page_word(asno, AS_MEASURED_WORD, 1)

    def was_measured(self, asno: int) -> bool:
        """True once Finalise computed a measurement for this addrspace."""
        return self.read_page_word(asno, AS_MEASURED_WORD) != 0

    # -- thread metadata ------------------------------------------------------------

    def thread_entered(self, threadno: int) -> bool:
        return self.read_page_word(threadno, TH_ENTERED_WORD) != 0

    def set_thread_entered(self, threadno: int, entered: bool) -> None:
        self.write_page_word(threadno, TH_ENTERED_WORD, 1 if entered else 0)

    def thread_entrypoint(self, threadno: int) -> int:
        return self.read_page_word(threadno, TH_ENTRYPOINT_WORD)

    def set_thread_entrypoint(self, threadno: int, entry: int) -> None:
        self.write_page_word(threadno, TH_ENTRYPOINT_WORD, entry)

    def save_thread_context(
        self,
        threadno: int,
        gprs: List[int],
        sp: int,
        lr: int,
        pc: int,
        cpsr: int,
    ) -> None:
        """Save a suspended thread's user-visible context into its page."""
        for i, value in enumerate(gprs):
            self.write_page_word(threadno, TH_CONTEXT_R0_WORD + i, value)
        self.write_page_word(threadno, TH_CONTEXT_SP_WORD, sp)
        self.write_page_word(threadno, TH_CONTEXT_LR_WORD, lr)
        self.write_page_word(threadno, TH_CONTEXT_PC_WORD, pc)
        self.write_page_word(threadno, TH_CONTEXT_CPSR_WORD, cpsr)

    def load_thread_context(self, threadno: int):
        """Load a suspended thread's context: (gprs, sp, lr, pc, cpsr)."""
        gprs = [
            self.read_page_word(threadno, TH_CONTEXT_R0_WORD + i) for i in range(13)
        ]
        sp = self.read_page_word(threadno, TH_CONTEXT_SP_WORD)
        lr = self.read_page_word(threadno, TH_CONTEXT_LR_WORD)
        pc = self.read_page_word(threadno, TH_CONTEXT_PC_WORD)
        cpsr = self.read_page_word(threadno, TH_CONTEXT_CPSR_WORD)
        return gprs, sp, lr, pc, cpsr

    # -- dispatcher interface (fault-handler) metadata -------------------

    def fault_handler(self, threadno: int) -> int:
        """Registered user-mode fault-handler VA (0 = none)."""
        return self.read_page_word(threadno, TH_FAULT_HANDLER_WORD)

    def set_fault_handler(self, threadno: int, handler_va: int) -> None:
        self.write_page_word(threadno, TH_FAULT_HANDLER_WORD, handler_va)

    def in_fault_handler(self, threadno: int) -> bool:
        return self.read_page_word(threadno, TH_IN_HANDLER_WORD) != 0

    def set_in_fault_handler(self, threadno: int, value: bool) -> None:
        self.write_page_word(threadno, TH_IN_HANDLER_WORD, 1 if value else 0)

    def save_fault_context(
        self,
        threadno: int,
        gprs: List[int],
        sp: int,
        lr: int,
        pc: int,
        cpsr: int,
    ) -> None:
        """Save the faulting context in its own slot, separate from the
        interrupt-save slot so an interrupt *inside* the handler cannot
        clobber the faulting state."""
        for i, value in enumerate(gprs):
            self.write_page_word(threadno, TH_FCONTEXT_R0_WORD + i, value)
        self.write_page_word(threadno, TH_FCONTEXT_SP_WORD, sp)
        self.write_page_word(threadno, TH_FCONTEXT_LR_WORD, lr)
        self.write_page_word(threadno, TH_FCONTEXT_PC_WORD, pc)
        self.write_page_word(threadno, TH_FCONTEXT_CPSR_WORD, cpsr)

    def load_fault_context(self, threadno: int):
        """Load the saved faulting context: (gprs, sp, lr, pc, cpsr)."""
        gprs = [
            self.read_page_word(threadno, TH_FCONTEXT_R0_WORD + i) for i in range(13)
        ]
        sp = self.read_page_word(threadno, TH_FCONTEXT_SP_WORD)
        lr = self.read_page_word(threadno, TH_FCONTEXT_LR_WORD)
        pc = self.read_page_word(threadno, TH_FCONTEXT_PC_WORD)
        cpsr = self.read_page_word(threadno, TH_FCONTEXT_CPSR_WORD)
        return gprs, sp, lr, pc, cpsr

    # -- common validity checks (shared by SMC and SVC handlers) ----------------

    def live_addrspaces(self) -> List[int]:
        """Pagenos of every allocated ADDRSPACE page, in page order.

        Quarantine containment checks use this to assert that corrupting
        one enclave leaves every *other* addrspace's lifecycle state
        untouched."""
        return [
            pageno
            for pageno in range(self.npages)
            if self.page_type(pageno) is PageType.ADDRSPACE
        ]
