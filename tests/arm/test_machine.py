"""MachineState: boot state, control registers, charged helpers, copies."""

import pytest

from repro.arm.machine import MachineState
from repro.arm.memory import WORDS_PER_PAGE
from repro.arm.modes import Mode, World


@pytest.fixture
def state():
    return MachineState.boot(secure_pages=8)


class TestBoot:
    def test_boots_secure_svc(self, state):
        assert state.world is World.SECURE
        assert state.regs.cpsr.mode is Mode.SVC
        assert state.regs.cpsr.irq_masked

    def test_clean_counters(self, state):
        assert state.cycles == 0
        assert state.ttbr0 is None
        assert state.tlb.consistent


class TestControlRegisters:
    def test_ttbr_load_poisons_tlb(self, state):
        state.load_ttbr0(state.memmap.page_base(0))
        assert state.ttbr0 == state.memmap.page_base(0)
        assert not state.tlb.consistent

    def test_flush_restores_and_charges(self, state):
        state.load_ttbr0(state.memmap.page_base(0))
        before = state.cycles
        state.flush_tlb()
        assert state.tlb.consistent
        assert state.cycles - before == state.costs.tlb_flush


class TestChargedHelpers:
    def test_mon_read_write(self, state):
        addr = state.memmap.monitor_image.base + 0x40
        before = state.cycles
        state.mon_write_word(addr, 7)
        assert state.mon_read_word(addr) == 7
        assert state.cycles - before == 2 * state.costs.mem_access

    def test_mon_zero_page(self, state):
        base = state.memmap.page_base(1)
        state.memory.write_word(base + 8, 0xFF)
        before = state.cycles
        state.mon_zero_page(base)
        assert state.cycles - before == state.costs.page_zero
        assert all(w == 0 for w in state.memory.read_words(base, WORDS_PER_PAGE))

    def test_mon_copy_page(self, state):
        src = state.memmap.insecure.base
        dst = state.memmap.page_base(2)
        state.memory.write_word(src, 123)
        state.mon_copy_page(src, dst)
        assert state.memory.read_word(dst) == 123

    def test_store_into_live_tables_noted(self, state):
        from repro.arm.pagetable import make_l1_entry

        l1 = state.memmap.page_base(0)
        l2 = state.memmap.page_base(1)
        state.memory.write_word(l1, make_l1_entry(l2))
        state.load_ttbr0(l1)
        state.flush_tlb()
        state.mon_write_word(l2 + 16, 0)  # store into the live L2
        assert not state.tlb.consistent

    def _install_live_l2(self, state):
        from repro.arm.pagetable import make_l1_entry

        l1 = state.memmap.page_base(0)
        l2 = state.memmap.page_base(1)
        state.memory.write_word(l1, make_l1_entry(l2))
        state.load_ttbr0(l1)
        state.flush_tlb()
        return l2

    def test_zero_of_live_table_trips_consistency(self, state):
        """mon_zero_page of an active L2 table is a page-table mutation
        like any other store: the TLB must demand a flush before the
        next walk (the PR-2 fast path relies on this poisoning)."""
        from repro.arm.tlb import TLBInconsistent

        l2 = self._install_live_l2(state)
        state.mon_zero_page(l2)
        assert not state.tlb.consistent
        with pytest.raises(TLBInconsistent):
            state.tlb.require_consistent()
        state.flush_tlb()
        state.tlb.require_consistent()

    def test_copy_onto_live_table_trips_consistency(self, state):
        l2 = self._install_live_l2(state)
        state.mon_copy_page(state.memmap.insecure.base, l2)
        assert not state.tlb.consistent

    def test_zero_of_inert_page_leaves_tlb_alone(self, state):
        self._install_live_l2(state)
        state.mon_zero_page(state.memmap.page_base(3))  # not a table page
        assert state.tlb.consistent
