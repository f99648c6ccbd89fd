"""Concrete PageDB accessor: layout, entry storage, thread context."""

import pytest

from repro.arm.machine import MachineState
from repro.monitor.layout import AddrspaceState, PageType, pagedb_entry_addr
from repro.monitor.pagedb import PageDB


@pytest.fixture
def pagedb():
    state = MachineState.boot(secure_pages=8)
    db = PageDB(state)
    for pageno in range(db.npages):
        db.free_entry(pageno)
    return db


class TestEntryArray:
    def test_initially_free(self, pagedb):
        assert all(pagedb.is_free(p) for p in range(8))

    def test_set_and_read_entry(self, pagedb):
        pagedb.set_entry(3, PageType.DATA, 1)
        assert pagedb.page_type(3) is PageType.DATA
        assert pagedb.owner(3) == 1
        assert not pagedb.is_free(3)

    def test_free_entry(self, pagedb):
        pagedb.set_entry(3, PageType.SPARE, 1)
        pagedb.free_entry(3)
        assert pagedb.is_free(3)

    def test_entries_live_in_monitor_memory(self, pagedb):
        """The concrete PageDB is machine memory, not Python state."""
        pagedb.set_entry(2, PageType.THREAD, 5)
        base = pagedb_entry_addr(pagedb.state.memmap.monitor_image.base, 2)
        assert pagedb.state.memory.read_word(base) == int(PageType.THREAD)
        assert pagedb.state.memory.read_word(base + 4) == 5

    def test_valid_pageno(self, pagedb):
        assert pagedb.valid_pageno(0)
        assert pagedb.valid_pageno(7)
        assert not pagedb.valid_pageno(8)
        assert not pagedb.valid_pageno(-1)


class TestAddrspaceMetadata:
    def test_state_roundtrip(self, pagedb):
        pagedb.set_entry(0, PageType.ADDRSPACE, 0)
        for state in AddrspaceState:
            pagedb.set_addrspace_state(0, state)
            assert pagedb.addrspace_state(0) is state

    def test_refcount(self, pagedb):
        pagedb.set_entry(0, PageType.ADDRSPACE, 0)
        pagedb.write_page_word(0, 1, 0)
        pagedb.adjust_refcount(0, +3)
        pagedb.adjust_refcount(0, -1)
        assert pagedb.refcount(0) == 2

    def test_l1pt_pointer(self, pagedb):
        pagedb.set_entry(0, PageType.ADDRSPACE, 0)
        pagedb.set_l1pt_page(0, 5)
        assert pagedb.l1pt_page(0) == 5

    def test_hash_state_roundtrip(self, pagedb):
        pagedb.set_entry(0, PageType.ADDRSPACE, 0)
        words = list(range(100, 108))
        pagedb.set_hash_state(0, words)
        pagedb.set_hash_length(0, 192)
        assert pagedb.hash_state(0) == words
        assert pagedb.hash_length(0) == 192

    def test_measurement_roundtrip(self, pagedb):
        pagedb.set_entry(0, PageType.ADDRSPACE, 0)
        words = [0xAA000000 | i for i in range(8)]
        pagedb.set_measurement(0, words)
        assert pagedb.measurement(0) == words


class TestThreadMetadata:
    def test_entered_flag(self, pagedb):
        pagedb.set_entry(2, PageType.THREAD, 0)
        assert not pagedb.thread_entered(2)
        pagedb.set_thread_entered(2, True)
        assert pagedb.thread_entered(2)

    def test_entrypoint(self, pagedb):
        pagedb.set_entry(2, PageType.THREAD, 0)
        pagedb.set_thread_entrypoint(2, 0x8000)
        assert pagedb.thread_entrypoint(2) == 0x8000

    def test_context_roundtrip(self, pagedb):
        pagedb.set_entry(2, PageType.THREAD, 0)
        gprs = [i * 3 for i in range(13)]
        pagedb.save_thread_context(2, gprs, sp=0x100, lr=0x200, pc=0x300, cpsr=0x10)
        loaded_gprs, sp, lr, pc, cpsr = pagedb.load_thread_context(2)
        assert loaded_gprs == gprs
        assert (sp, lr, pc, cpsr) == (0x100, 0x200, 0x300, 0x10)

    def test_context_stored_in_thread_page(self, pagedb):
        """Saved context is words in the thread page, as in real Komodo."""
        pagedb.set_entry(2, PageType.THREAD, 0)
        pagedb.save_thread_context(2, list(range(13)), 1, 2, 3, 4)
        from repro.monitor.layout import TH_CONTEXT_R0_WORD

        base = pagedb.page_base(2)
        assert pagedb.state.memory.read_word(base + (TH_CONTEXT_R0_WORD + 5) * 4) == 5


class TestQueries:
    def test_cycle_charges_accrue(self, pagedb):
        before = pagedb.state.cycles
        pagedb.page_type(0)
        assert pagedb.state.cycles > before
