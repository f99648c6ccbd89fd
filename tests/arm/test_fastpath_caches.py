"""Cache-invalidation contracts of the fast-path engine.

Three caches, three contracts:

* decode cache — keyed by physical address, validated against
  ``PhysicalMemory.generation`` (any mutation bumps it) and revalidated
  word-by-word, so self-modifying code and page recycling are safe;
* micro-TLB — validated against ``TLB.version``, which the architectural
  model bumps on every flush, ``set_ttbr``, and poisoning ``note_store``,
  so translations never outlive what the architecture permits;
* both live in ``MachineState.uarch``, whose validated caches
  ``MachineState.restore`` resets, so a restored machine never reuses
  its donor's caches (the fork itself is checked in
  ``tests/faults/test_snapshot.py``).  The one table a restore keeps,
  turbo's content-keyed compile memo, holds no decoded or translated
  state of its own; it is pinned in ``tests/arm/test_turbo_memo.py``.
"""

import pytest

from repro.arm.cpu import CPU, ExitReason
from repro.arm.instructions import Instruction, encode
from repro.arm.machine import MachineState
from repro.arm.modes import Mode
from repro.arm.pagetable import l1_index, l2_index, make_l1_entry, make_l2_entry
from repro.arm.registers import PSR

CODE_VA = 0x0000_1000
DATA_VA = 0x0000_4000


def stage(code_words, data_words=(), secure_pages=8):
    """L1 at page 0, L2 at page 1, code RX at page 2, data RW at page 3."""
    state = MachineState.boot(secure_pages=secure_pages)
    memmap = state.memmap
    l1, l2 = memmap.page_base(0), memmap.page_base(1)
    memory = state.memory
    memory.write_word(l1 + l1_index(CODE_VA) * 4, make_l1_entry(l2))
    memory.write_word(
        l2 + l2_index(CODE_VA) * 4,
        make_l2_entry(memmap.page_base(2), True, False, True, True),
    )
    memory.write_word(
        l2 + l2_index(DATA_VA) * 4,
        make_l2_entry(memmap.page_base(3), True, True, False, True),
    )
    memory.write_words(memmap.page_base(2), list(code_words))
    memory.write_words(memmap.page_base(3), list(data_words))
    state.load_ttbr0(l1)
    state.flush_tlb()
    state.regs.cpsr = PSR(mode=Mode.USR, irq_masked=False, fiq_masked=False)
    return state


def rerun(state, max_steps=10):
    """Run again from CODE_VA after a previous exception returned."""
    state.regs.cpsr = PSR(mode=Mode.USR, irq_masked=False, fiq_masked=False)
    return CPU(state, engine="fast").run(CODE_VA, max_steps=max_steps)


class TestMemoryGeneration:
    def test_every_mutation_bumps_generation(self):
        state = MachineState.boot(secure_pages=4)
        memory = state.memory
        base = state.memmap.page_base(0)
        gen = memory.generation
        memory.write_word(base, 1)
        assert memory.generation == gen + 1
        memory.write_words(base, [1, 2, 3])
        assert memory.generation == gen + 2
        memory.zero_page(base)
        assert memory.generation == gen + 3
        memory.copy_page(state.memmap.page_base(1), base)
        assert memory.generation == gen + 4

    def test_reads_do_not_bump_generation(self):
        state = MachineState.boot(secure_pages=4)
        memory = state.memory
        gen = memory.generation
        memory.read_word(state.memmap.page_base(0))
        memory.read_words(state.memmap.page_base(0), 16)
        assert memory.generation == gen


class TestDecodeCache:
    def test_icache_populated_and_hit(self):
        nop = encode(Instruction("nop"))
        svc = encode(Instruction("svc", imm=0))
        state = stage([nop, nop, svc])
        cpu = CPU(state, engine="fast")
        result = cpu.run(CODE_VA, max_steps=10)
        assert result.reason is ExitReason.SVC
        code_base = state.memmap.page_base(2)
        assert code_base in state.uarch.icache
        assert code_base + 4 in state.uarch.icache

    def test_recycled_code_page_not_served_stale(self):
        """Zero the code page between runs: the decode cache must not
        serve the old instructions for the same physical addresses."""
        movw = encode(Instruction("movw", rd=0, imm=77))
        svc = encode(Instruction("svc", imm=0))
        state = stage([movw, svc])
        cpu = CPU(state, engine="fast")
        assert cpu.run(CODE_VA, max_steps=10).reason is ExitReason.SVC
        assert state.regs.read_gpr(0) == 77

        # Recycle: overwrite with a different constant at the same spot.
        code_base = state.memmap.page_base(2)
        state.memory.write_word(code_base, encode(Instruction("movw", rd=0, imm=88)))
        assert rerun(state).reason is ExitReason.SVC
        assert state.regs.read_gpr(0) == 88

    def test_generation_miss_with_unchanged_word_reuses_entry(self):
        """Writes elsewhere bump the generation; the cache revalidates by
        re-reading the word and keeps the compiled op when it matches."""
        nop = encode(Instruction("nop"))
        svc = encode(Instruction("svc", imm=0))
        state = stage([nop, svc])
        cpu = CPU(state, engine="fast")
        assert cpu.run(CODE_VA, max_steps=10).reason is ExitReason.SVC

        code_base = state.memmap.page_base(2)
        cached_fn = state.uarch.icache[code_base][2]
        state.memory.write_word(state.memmap.page_base(3), 0xABAD1DEA)  # data page
        assert rerun(state).reason is ExitReason.SVC
        assert state.uarch.icache[code_base][2] is cached_fn


class TestMicroTLB:
    def test_flush_invalidates_microtlb(self):
        state = stage([encode(Instruction("svc", imm=0))])
        cpu = CPU(state, engine="fast")
        cpu.run(CODE_VA, max_steps=10)
        assert state.uarch.utlb  # populated by the fetch
        version = state.tlb.version
        state.flush_tlb()
        assert state.tlb.version > version
        assert state.uarch.utlb_version != state.tlb.version

    def test_load_ttbr0_mid_run_switches_address_space(self):
        """Build a second set of tables mapping CODE_VA to a different
        frame; after load_ttbr0 + flush the fast engine must fetch from
        the *new* frame, not the cached translation."""
        movw_a = encode(Instruction("movw", rd=0, imm=111))
        movw_b = encode(Instruction("movw", rd=0, imm=222))
        svc = encode(Instruction("svc", imm=0))
        state = stage([movw_a, svc], secure_pages=16)
        memmap = state.memmap
        memory = state.memory

        assert CPU(state, engine="fast").run(CODE_VA, max_steps=10).reason is ExitReason.SVC
        assert state.regs.read_gpr(0) == 111

        l1b, l2b = memmap.page_base(8), memmap.page_base(9)
        memory.write_word(l1b + l1_index(CODE_VA) * 4, make_l1_entry(l2b))
        memory.write_word(
            l2b + l2_index(CODE_VA) * 4,
            make_l2_entry(memmap.page_base(10), True, False, True, True),
        )
        memory.write_words(memmap.page_base(10), [movw_b, svc])
        state.load_ttbr0(l1b)
        state.flush_tlb()

        assert rerun(state).reason is ExitReason.SVC
        assert state.regs.read_gpr(0) == 222

    def test_l2_rewrite_plus_flush_observed(self):
        """mon_write_word into a live L2 entry (remapping CODE_VA to a
        different frame) then flush: the fast engine follows the remap."""
        movw_a = encode(Instruction("movw", rd=0, imm=5))
        movw_b = encode(Instruction("movw", rd=0, imm=6))
        svc = encode(Instruction("svc", imm=0))
        state = stage([movw_a, svc], secure_pages=16)
        memmap = state.memmap
        state.memory.write_words(memmap.page_base(5), [movw_b, svc])

        assert CPU(state, engine="fast").run(CODE_VA, max_steps=10).reason is ExitReason.SVC
        assert state.regs.read_gpr(0) == 5

        l2 = memmap.page_base(1)
        state.mon_write_word(
            l2 + l2_index(CODE_VA) * 4,
            make_l2_entry(memmap.page_base(5), True, False, True, True),
        )
        assert not state.tlb.consistent  # note_store poisoned the TLB
        state.flush_tlb()

        assert rerun(state).reason is ExitReason.SVC
        assert state.regs.read_gpr(0) == 6

    def test_failed_walks_are_not_cached(self):
        """A fetch that aborts must not leave a poisoned micro-TLB entry
        that would mask a later valid mapping."""
        state = stage([encode(Instruction("svc", imm=0))])
        cpu = CPU(state, engine="fast")
        result = cpu.run(0x00F0_0000, max_steps=5)  # unmapped
        assert result.reason is ExitReason.ABORT
        assert (0x00F0_0000 >> 12) not in state.uarch.utlb


class TestCopyIsolation:
    def test_uarch_reset(self):
        state = stage([encode(Instruction("svc", imm=0))])
        CPU(state, engine="fast").run(CODE_VA, max_steps=10)
        state.uarch.reset()
        assert state.uarch.icache == {}
        assert state.uarch.utlb == {}
        assert state.uarch.utlb_version == -1
