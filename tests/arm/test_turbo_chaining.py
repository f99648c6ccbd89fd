"""Turbo cross-region dispatch edge cases and bulk-memory safety rails.

Every region exit returns to the dispatch loop, which translates the
next pc and finds its region through ``blocks.lookup`` before running
it.  These cases stress that crossing: a store rewriting the next
region's words, an asynchronous-exception deadline landing between
regions, a translation switch changing where the exit pc points, and
LRU eviction destroying the next region outright.  Each scenario runs
differentially on all three engines.

The second half pins the bulk-memory contract: ``EncryptedMemory``
must never take any bulk or inline fast path — every word goes through
the keystream and tag engine (``tests/arm/test_encryption.py`` checks
its bulk helpers).
"""

from repro.arm import blocks
from repro.arm.assembler import Assembler
from repro.arm.bits import WORDSIZE
from repro.arm.cpu import CPU, ExitReason
from repro.arm.encryption import EncryptedMemory
from repro.arm.instructions import Instruction, encode
from repro.arm.machine import MachineState
from repro.arm.memory import MemoryMap
from repro.arm.modes import Mode
from repro.arm.pagetable import l1_index, l2_index, make_l1_entry, make_l2_entry
from repro.arm.registers import PSR

from tests.arm.test_engine_differential import (
    CODE_VA,
    DATA_VA,
    ENGINES,
    RWX_VA,
    make_state,
    observe,
)

CODE_PAGE, RWX_PAGE = 2, 4  # physical page indices assigned by make_state


def asm_list(build):
    """Assemble via a builder callback, returning a mutable word list."""
    asm = Assembler()
    build(asm)
    return list(asm.assemble())


def cross_branch(op, from_va, to_va):
    """Encode a branch at ``from_va`` targeting ``to_va`` (cross-page
    branches are region exits, so each goes back through dispatch)."""
    return encode(Instruction(op, imm=(to_va - from_va) // WORDSIZE - 1))


def two_page_loop(iters):
    """A counted loop ping-ponging between the code and RWX pages.

    code page: r0 = r1 = 0; loop head increments r0, branches to the
    RWX page; RWX page increments r1, loops back while r0 != iters,
    then exits via svc.  Every iteration crosses two region exits, so
    a warm run dispatches two regions per lap.
    """
    code = asm_list(
        lambda a: a.movw("r0", 0).movw("r1", 0).addi("r0", "r0", 1)
    )
    loop_va = CODE_VA + 2 * WORDSIZE  # the addi above
    code.append(cross_branch("b", CODE_VA + len(code) * WORDSIZE, RWX_VA))
    rwx = asm_list(lambda a: a.addi("r1", "r1", 1).cmpi("r0", iters))
    rwx.append(cross_branch("bne", RWX_VA + len(rwx) * WORDSIZE, loop_va))
    rwx.append(encode(Instruction("svc", imm=0)))
    return code, rwx


def run_engines(code_words, rwx_words, setup=None, max_steps=10_000,
                interrupt_after=None, entry=CODE_VA):
    """Run on every engine from identical states; assert identical
    observables.  ``setup(state)`` applies extra machine preparation
    after ``make_state``.  Returns (result, state, cpu) of the turbo
    run for white-box follow-up assertions."""
    outcomes = {}
    kept = {}
    for engine in ENGINES:
        state = make_state(code_words, rwx_words=rwx_words)
        if setup is not None:
            setup(state)
        cpu = CPU(state, engine=engine)
        cpu.access_trace = []
        result = cpu.run(entry, max_steps=max_steps, interrupt_after=interrupt_after)
        outcomes[engine] = (result, observe(state), cpu.access_trace)
        kept[engine] = (result, state, cpu)
    for engine in ENGINES:
        assert outcomes[engine] == outcomes["reference"], engine
    return kept["turbo"]


class TestChainFormation:
    def test_two_page_loop_differential(self):
        code, rwx = two_page_loop(5)
        result, state, _ = run_engines(code, rwx)
        assert result.reason is ExitReason.SVC
        assert state.regs.read_gpr(0) == 5
        assert state.regs.read_gpr(1) == 5


class TestStoreIntoChainedSuccessor:
    def test_patch_chained_to_block(self):
        """A store in the code-page region rewrites the first word of
        the RWX-page region it branches to.  The store moves the memory
        generation, so the old compiled body must not run again: the
        next lap refetches the patched instruction exactly like the
        reference engine."""
        patched = encode(Instruction("movw", rd=7, imm=99))

        def build(asm):
            asm.movw("r0", 0)
            asm.movw("r4", RWX_VA)
            asm.mov32("r5", patched)
            asm.label("loop")
            asm.addi("r0", "r0", 1)
            asm.cmpi("r0", 3)
            asm.bne("skip")
            asm.str_("r5", "r4", 0)
            asm.label("skip")
            loop_index = asm._labels["loop"]
            return loop_index

        asm = Assembler()
        loop_index = build(asm)
        code = list(asm.assemble())
        loop_va = CODE_VA + loop_index * WORDSIZE
        code.append(cross_branch("b", CODE_VA + len(code) * WORDSIZE, RWX_VA))

        rwx = [encode(Instruction("movw", rd=7, imm=1))]
        rwx.extend(asm_list(lambda a: a.cmpi("r0", 4)))
        rwx.append(cross_branch("bne", RWX_VA + len(rwx) * WORDSIZE, loop_va))
        rwx.append(encode(Instruction("svc", imm=0)))

        result, state, _ = run_engines(code, rwx)
        assert result.reason is ExitReason.SVC
        assert state.regs.read_gpr(0) == 4
        assert state.regs.read_gpr(7) == 99  # the patched movw executed


class TestInterruptMidChain:
    def test_every_interrupt_window(self):
        """Sweep the IRQ deadline across the whole warm loop: every
        window, including those landing exactly between regions and
        inside a region leg, must deliver at the same instruction
        boundary on all engines."""
        code, rwx = two_page_loop(4)
        baseline, _, _ = run_engines(code, rwx)
        total = baseline.steps
        assert total > 12  # several laps, so windows straddle region exits
        for window in range(1, total):
            result, _, _ = run_engines(code, rwx, interrupt_after=window)
            assert result.reason is ExitReason.IRQ
            assert result.steps == window

    def test_step_limit_mid_chain(self):
        code, rwx = two_page_loop(4)
        baseline, _, _ = run_engines(code, rwx)
        for limit in range(1, baseline.steps):
            result, _, _ = run_engines(code, rwx, max_steps=limit)
            assert result.reason is ExitReason.STEP_LIMIT
            assert result.steps == limit


class TestTranslationSwitchAcrossChain:
    def _alt_words(self):
        alt = asm_list(lambda a: a.movw("r7", 0x77))
        alt.append(encode(Instruction("svc", imm=0)))
        return alt

    def test_ttbr_switch_between_runs_severs_warm_chains(self):
        """After a warm run, new tables remap RWX_VA to a different
        frame.  The second run translates the exit pc afresh (TLB.version
        changed), so the loop must fetch the new frame's code, not the
        compiled body of the old one."""
        code, rwx = two_page_loop(3)
        alt = self._alt_words()
        outcomes = {}
        for engine in ENGINES:
            state = make_state(code, rwx_words=rwx)
            memmap, memory = state.memmap, state.memory
            cpu = CPU(state, engine=engine)
            cpu.access_trace = []
            first = cpu.run(CODE_VA, max_steps=10_000)
            # Fresh tables in pages 5/6: code and data map as before,
            # RWX_VA now points at page 7 (alt program).
            l1, l2 = memmap.page_base(5), memmap.page_base(6)
            memory.write_words(memmap.page_base(7), alt)
            memory.write_word(l1 + l1_index(CODE_VA) * 4, make_l1_entry(l2))
            memory.write_word(
                l2 + l2_index(CODE_VA) * 4,
                make_l2_entry(memmap.page_base(2), True, False, True, True),
            )
            memory.write_word(
                l2 + l2_index(DATA_VA) * 4,
                make_l2_entry(memmap.page_base(3), True, True, False, True),
            )
            memory.write_word(
                l2 + l2_index(RWX_VA) * 4,
                make_l2_entry(memmap.page_base(7), True, True, True, True),
            )
            state.load_ttbr0(l1)
            state.flush_tlb()
            state.regs.cpsr = PSR(mode=Mode.USR, irq_masked=False, fiq_masked=False)
            second = cpu.run(CODE_VA, max_steps=10_000)
            outcomes[engine] = (first, second, observe(state), cpu.access_trace)
        for engine in ENGINES:
            assert outcomes[engine] == outcomes["reference"], engine
        first, second, obs, _ = outcomes["reference"]
        assert first.reason is ExitReason.SVC
        assert second.reason is ExitReason.SVC
        assert obs["gprs"][7] == 0x77  # second run executed the new frame

    def test_table_store_between_chained_blocks(self):
        """Mid-run translation switch: with the L2 table itself mapped
        writable, the loop body rewrites the RWX_VA entry to point at a
        new frame, then takes the already-taken cross-page branch.
        The store poisons the TLB (version bump), so the branch must
        fetch the new frame."""
        tab_va = 0x0000_8000
        probe = MachineState.boot(secure_pages=8).memmap
        new_frame = probe.page_base(7)
        new_entry = make_l2_entry(new_frame, True, True, True, True)
        entry_va = tab_va + l2_index(RWX_VA) * 4  # the RWX_VA slot in the table

        asm = Assembler()
        asm.movw("r0", 0)
        asm.movw("r4", entry_va)
        asm.mov32("r5", new_entry)
        asm.label("loop")
        asm.addi("r0", "r0", 1)
        asm.cmpi("r0", 2)
        asm.bne("skip")
        asm.str_("r5", "r4", 0)
        asm.label("skip")
        loop_va = CODE_VA + asm._labels["loop"] * WORDSIZE
        code = list(asm.assemble())
        code.append(cross_branch("b", CODE_VA + len(code) * WORDSIZE, RWX_VA))

        rwx = asm_list(lambda a: a.addi("r1", "r1", 1).cmpi("r0", 9))
        rwx.append(cross_branch("bne", RWX_VA + len(rwx) * WORDSIZE, loop_va))
        rwx.append(encode(Instruction("svc", imm=0)))

        def setup(state):
            memmap, memory = state.memmap, state.memory
            l2 = memmap.page_base(1)
            memory.write_words(memmap.page_base(7), self._alt_words())
            # Map the live L2 table page itself at tab_va (RW, no exec).
            memory.write_word(
                l2 + l2_index(tab_va) * 4,
                make_l2_entry(l2, True, True, False, True),
            )
            state.flush_tlb()

        result, state, _ = run_engines(code, rwx, setup=setup)
        assert result.reason is ExitReason.SVC
        # Lap 1 ran the original body (r1 == 1); lap 2 rewrote the
        # mapping and landed in the new frame (r7 == 0x77).
        assert state.regs.read_gpr(0) == 2
        assert state.regs.read_gpr(1) == 1
        assert state.regs.read_gpr(7) == 0x77
        assert state.tlb.consistent is False  # the table store poisoned it


class TestEvictionTeardown:
    def test_eviction_under_tiny_cap_keeps_graph_consistent(self, monkeypatch):
        """With room for only 2 entries, the 3-region loop evicts a
        region it is about to re-enter on every lap; behaviour stays
        bit-identical and the cache stays within its cap."""
        monkeypatch.setattr(blocks, "BLOCK_CACHE_CAP", 2)
        code, rwx = two_page_loop(6)
        result, state, _ = run_engines(code, rwx)
        assert result.reason is ExitReason.SVC
        assert state.regs.read_gpr(0) == 6
        assert 0 < len(state.uarch.bcache) <= 2


def make_encrypted_state(code_words, data_words=(), rwx_words=()):
    """``make_state`` over an encryption-engine memory: same mappings,
    every access through the keystream/tag engine."""
    memmap = MemoryMap(secure_pages=8)
    state = MachineState(memmap=memmap, memory=EncryptedMemory(memmap))
    state.regs.cpsr = PSR(mode=Mode.SVC, irq_masked=True, fiq_masked=True)
    memory = state.memory
    l1, l2 = memmap.page_base(0), memmap.page_base(1)
    memory.write_word(l1 + l1_index(CODE_VA) * 4, make_l1_entry(l2))
    memory.write_word(
        l2 + l2_index(CODE_VA) * 4,
        make_l2_entry(memmap.page_base(2), True, False, True, True),
    )
    memory.write_word(
        l2 + l2_index(DATA_VA) * 4,
        make_l2_entry(memmap.page_base(3), True, True, False, True),
    )
    memory.write_word(
        l2 + l2_index(RWX_VA) * 4,
        make_l2_entry(memmap.page_base(4), True, True, True, True),
    )
    memory.write_words(memmap.page_base(2), list(code_words))
    memory.write_words(memmap.page_base(3), list(data_words))
    memory.write_words(memmap.page_base(4), list(rwx_words))
    state.load_ttbr0(l1)
    state.flush_tlb()
    state.regs.cpsr = PSR(mode=Mode.USR, irq_masked=False, fiq_masked=False)
    return state


def _loop_with_memory_ops():
    def build(asm):
        asm.movw("r0", 0)
        asm.movw("r4", DATA_VA)
        asm.label("loop")
        asm.ldr("r2", "r4", 0)
        asm.addi("r2", "r2", 5)
        asm.str_("r2", "r4", 0)
        asm.addi("r0", "r0", 1)
        asm.cmpi("r0", 6)
        asm.bne("loop")
        asm.svc(0)

    return asm_list(build)


class TestEncryptedMemoryNoFastPath:
    def test_inline_fast_path_refused(self):
        state = make_encrypted_state(_loop_with_memory_ops())
        assert blocks._inline_mem(CPU(state, engine="turbo")) is None
        plain = MachineState.boot(secure_pages=8)
        assert blocks._inline_mem(CPU(plain, engine="turbo")) is plain.memory

    def test_regions_stay_single_block(self):
        """Region expansion requires exactly ``PhysicalMemory``: over
        the encryption engine a region is one basic block, so the
        validation span never covers never-written gap words the
        engine would refuse to read."""
        words = _loop_with_memory_ops()
        enc = make_encrypted_state(words)
        base = enc.memmap.page_base(2)
        region, _, _ = blocks.discover_region(enc.memory, base)
        assert len(region) == 1
        plain = make_state(words)
        region, _, _ = blocks.discover_region(plain.memory, plain.memmap.page_base(2))
        assert len(region) > 1

    def test_compiled_code_has_no_bulk_store_access(self):
        """No generated block for an encrypted machine may index the
        flat word store (the ``_mw[...]`` inline fast path): every load
        and store must go through the engine's helpers."""
        state = make_encrypted_state(_loop_with_memory_ops())
        cpu = CPU(state, engine="turbo")
        result = cpu.run(CODE_VA, max_steps=1_000)
        assert result.reason is ExitReason.SVC
        bcache = state.uarch.bcache
        assert bcache  # the loop compiled at least one region
        for entry in bcache.values():
            assert "_mw[" not in entry[blocks._FN].__source__
        # The same program on plain memory does take the inline path.
        plain = make_state(_loop_with_memory_ops())
        pcpu = CPU(plain, engine="turbo")
        assert pcpu.run(CODE_VA, max_steps=1_000).reason is ExitReason.SVC
        assert any(
            "_mw[" in entry[blocks._FN].__source__
            for entry in plain.uarch.bcache.values()
        )

    def test_encrypted_tri_engine_differential(self):
        outcomes = {}
        for engine in ENGINES:
            state = make_encrypted_state(_loop_with_memory_ops(), data_words=[100])
            cpu = CPU(state, engine=engine)
            cpu.access_trace = []
            result = cpu.run(CODE_VA, max_steps=1_000)
            outcomes[engine] = (result, observe(state), cpu.access_trace)
        for engine in ENGINES:
            assert outcomes[engine] == outcomes["reference"], engine
        result, obs, _ = outcomes["reference"]
        assert result.reason is ExitReason.SVC
        assert obs["gprs"][2] == 130  # 100 + 6 * 5, through the engine
