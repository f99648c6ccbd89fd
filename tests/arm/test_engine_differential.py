"""Differential testing: fast and turbo engines vs reference engine.

The fast-path engine (decode cache + micro-TLB + compiled micro-ops)
and the turbo tier (compiled basic blocks) must be *indistinguishable*
from the reference interpreter in every architecturally visible way:
registers, memory, simulated cycles, exit reasons, fault addresses,
and the attacker-visible access trace the side-channel analyser
consumes.  Every test here runs the same program from identical
initial states on all engines and asserts the entire observable state
matches, exercising the edges where the caches could diverge: faults,
undefined encodings, self-modifying code, branches, interrupts, and
randomly generated programs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.isa_workloads import CODE_VA as WORKLOAD_CODE_VA
from repro.apps.isa_workloads import WORKLOADS, stage
from repro.arm.cpu import CPU, ExitReason, FastCPU, TurboCPU
from repro.arm.instructions import FORMATS, Instruction, encode
from repro.arm.machine import MachineState
from repro.arm.modes import Mode
from repro.arm.pagetable import l1_index, l2_index, make_l1_entry, make_l2_entry
from repro.arm.registers import PSR

CODE_VA = 0x0000_1000
DATA_VA = 0x0000_4000
RWX_VA = 0x0000_6000
NOEXEC_VA = DATA_VA  # data page is mapped RW, not X
ENGINES = ("reference", "fast", "turbo")


def make_state(
    code_words,
    data_words=(),
    rwx_words=(),
    regs=None,
    code_writable=False,
):
    """Boot a machine with three mappings: code (RX, or RWX when
    ``code_writable``), data (RW), and a scratch RWX page."""
    state = MachineState.boot(secure_pages=8)
    memmap = state.memmap
    l1, l2 = memmap.page_base(0), memmap.page_base(1)
    memory = state.memory
    memory.write_word(l1 + l1_index(CODE_VA) * 4, make_l1_entry(l2))
    memory.write_word(
        l2 + l2_index(CODE_VA) * 4,
        make_l2_entry(memmap.page_base(2), True, code_writable, True, True),
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
    for index, value in (regs or {}).items():
        state.regs.write_gpr(index, value)
    return state


def observe(state):
    """Everything architecturally visible about a machine state."""
    regs = state.regs
    return {
        "gprs": dict(regs.gprs),
        "sp_bank": dict(regs.sp_bank),
        "lr_bank": dict(regs.lr_bank),
        "spsr": {mode: psr.to_word() for mode, psr in regs.spsr_bank.items()},
        "cpsr": regs.cpsr.to_word(),
        "cycles": state.cycles,
        "tlb": (state.tlb.consistent, state.tlb.flush_count),
        "memory": {
            region.name: state.memory.region_bytes(region.base, region.size)
            for region in state.memmap.regions()
        },
    }


def run_differential(code_words, expect=None, max_steps=10_000, **kwargs):
    """Run the program on every engine; assert identical observables.

    Returns the (shared) ExecutionResult for further assertions.
    """
    interrupt_after = kwargs.pop("interrupt_after", None)
    outcomes = {}
    for engine in ENGINES:
        state = make_state(code_words, **kwargs)
        cpu = CPU(state, engine=engine)
        cpu.access_trace = []
        result = cpu.run(CODE_VA, max_steps=max_steps, interrupt_after=interrupt_after)
        outcomes[engine] = (result, observe(state), cpu.access_trace)
    ref_result, ref_obs, ref_trace = outcomes["reference"]
    for engine in ENGINES:
        if engine == "reference":
            continue
        result, obs, trace = outcomes[engine]
        assert result == ref_result, engine
        assert trace == ref_trace, engine
        assert obs == ref_obs, engine
    if expect is not None:
        assert ref_result.reason is expect
    return ref_result


def asm_words(build):
    """Assemble a program given a builder callback."""
    from repro.arm.assembler import Assembler

    asm = Assembler()
    build(asm)
    return asm.assemble()


class TestEngineSelection:
    def test_default_is_fast(self):
        cpu = CPU(MachineState.boot(secure_pages=2))
        assert isinstance(cpu, FastCPU)
        assert cpu.engine == "fast"

    def test_reference_selectable(self):
        cpu = CPU(MachineState.boot(secure_pages=2), engine="reference")
        assert type(cpu) is CPU
        assert cpu.engine == "reference"

    def test_turbo_selectable(self):
        cpu = CPU(MachineState.boot(secure_pages=2), engine="turbo")
        assert isinstance(cpu, TurboCPU)
        assert cpu.engine == "turbo"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            CPU(MachineState.boot(secure_pages=2), engine="warp")

    def test_fastcpu_direct_construction(self):
        assert FastCPU(MachineState.boot(secure_pages=2)).engine == "fast"

    def test_turbocpu_direct_construction(self):
        assert TurboCPU(MachineState.boot(secure_pages=2)).engine == "turbo"


class TestStraightLine:
    def test_alu_mix(self):
        def build(asm):
            asm.movw("r0", 1234)
            asm.movt("r0", 0xBEEF)
            asm.mov32("r1", 0xDEADBEEF)
            asm.add("r2", "r0", "r1")
            asm.sub("r3", "r1", "r0")
            asm.rsb("r4", "r0", "r1")
            asm.and_("r5", "r0", "r1")
            asm.orr("r6", "r0", "r1")
            asm.eor("r7", "r0", "r1")
            asm.bic("r8", "r1", "r0")
            asm.mvn("r9", "r0")
            asm.mul("r10", "r0", "r1")
            asm.svc(0)

        run_differential(asm_words(build), expect=ExitReason.SVC)

    def test_shift_family_with_large_amounts(self):
        def build(asm):
            asm.mov32("r0", 0x80000001)
            asm.movw("r1", 33)  # register shifts beyond 31
            asm.lsl("r2", "r0", "r1")
            asm.lsr("r3", "r0", "r1")
            asm.asr("r4", "r0", "r1")
            asm.ror("r5", "r0", "r1")
            asm.mov32("r6", 0x1FF)  # only the low byte of the amount counts
            asm.lsl("r7", "r0", "r6")
            asm.lsli("r8", "r0", 4)
            asm.lsri("r9", "r0", 4)
            asm.asri("r10", "r0", 4)
            asm.svc(0)

        run_differential(asm_words(build), expect=ExitReason.SVC)

    def test_flags_and_conditionals_both_ways(self):
        def build(asm):
            asm.movw("r0", 5)
            asm.movw("r1", 5)
            asm.cmp("r0", "r1")
            asm.beq("taken")
            asm.movw("r2", 99)  # skipped
            asm.label("taken")
            asm.cmpi("r0", 9)
            asm.beq("not_taken")
            asm.movw("r3", 7)  # executed: fall-through path
            asm.label("not_taken")
            asm.tst("r0", "r1")
            asm.bne("done")
            asm.movw("r4", 1)
            asm.label("done")
            asm.svc(0)

        run_differential(asm_words(build), expect=ExitReason.SVC)

    def test_all_condition_codes(self):
        def build(asm):
            asm.mov32("r0", 0xFFFFFFFF)  # -1
            asm.movw("r1", 1)
            asm.cmp("r0", "r1")  # -1 vs 1: N set, C set (no borrow unsigned)
            for cond in ("beq", "bne", "blt", "bge", "bgt", "ble", "bcs", "bcc"):
                getattr(asm, cond)(f"l_{cond}")
                asm.label(f"l_{cond}")
            asm.svc(0)

        run_differential(asm_words(build), expect=ExitReason.SVC)

    def test_call_and_return(self):
        def build(asm):
            asm.movw("r0", 1)
            asm.bl("sub")
            asm.movw("r2", 3)
            asm.svc(0)
            asm.label("sub")
            asm.movw("r1", 2)
            asm.bxlr()

        run_differential(asm_words(build), expect=ExitReason.SVC)

    def test_sp_and_lr_operands(self):
        def build(asm):
            asm.mov32("sp", DATA_VA + 0x100)
            asm.movw("r0", 42)
            asm.str_("r0", "sp", 0)
            asm.ldr("r1", "sp", 0)
            asm.mov32("lr", 0xABCD0)
            asm.mov("r2", "lr")
            asm.svc(0)

        run_differential(asm_words(build), expect=ExitReason.SVC)


class TestMemoryAndFaults:
    def test_loads_stores(self):
        def build(asm):
            asm.mov32("r4", DATA_VA)
            asm.ldr("r0", "r4", 0)
            asm.ldr("r1", "r4", 4)
            asm.add("r2", "r0", "r1")
            asm.str_("r2", "r4", 8)
            asm.movw("r3", 12)
            asm.strr("r2", "r4", "r3")
            asm.ldrr("r5", "r4", "r3")
            asm.svc(0)

        run_differential(
            asm_words(build), data_words=[11, 22], expect=ExitReason.SVC
        )

    def test_misaligned_load_faults(self):
        def build(asm):
            asm.mov32("r4", DATA_VA + 2)
            asm.ldr("r0", "r4", 0)

        result = run_differential(asm_words(build), expect=ExitReason.ABORT)
        assert result.fault_address == DATA_VA + 2

    def test_unmapped_access_faults(self):
        def build(asm):
            asm.mov32("r4", 0x0800_0000)  # far outside any mapping
            asm.ldr("r0", "r4", 0)

        run_differential(asm_words(build), expect=ExitReason.ABORT)

    def test_store_to_readonly_code_faults(self):
        def build(asm):
            asm.mov32("r4", CODE_VA)
            asm.movw("r0", 0)
            asm.str_("r0", "r4", 0)

        run_differential(asm_words(build), expect=ExitReason.ABORT)

    def test_execute_of_noexec_page_faults(self):
        def build(asm):
            asm.mov32("lr", NOEXEC_VA)
            asm.bxlr()

        result = run_differential(asm_words(build), expect=ExitReason.ABORT)
        assert result.fault_address == NOEXEC_VA

    def test_undefined_encoding(self):
        words = asm_words(lambda asm: asm.movw("r0", 1)) + [0xFF00_0000]
        run_differential(words, expect=ExitReason.UNDEFINED)

    def test_udf_and_smc_are_undefined(self):
        for bad in ("udf", "smc"):
            words = [encode(Instruction(bad))]
            run_differential(words, expect=ExitReason.UNDEFINED)

    def test_misaligned_pc_after_bxlr(self):
        def build(asm):
            asm.mov32("lr", CODE_VA + 2)
            asm.bxlr()

        result = run_differential(asm_words(build), expect=ExitReason.ABORT)
        assert result.fault_address == CODE_VA + 2


class TestInterruptsAndLimits:
    def spin(self):
        def build(asm):
            asm.label("spin")
            asm.b("spin")

        return asm_words(build)

    def test_step_limit(self):
        result = run_differential(self.spin(), max_steps=57)
        assert result.reason is ExitReason.STEP_LIMIT
        assert result.steps == 57

    def test_interrupt_after(self):
        result = run_differential(self.spin(), interrupt_after=23)
        assert result.reason is ExitReason.IRQ
        assert result.steps == 23

    def test_interrupt_at_zero(self):
        result = run_differential(self.spin(), interrupt_after=0)
        assert result.steps == 0


class TestSelfModifyingCode:
    def test_store_then_refetch(self):
        """Code on an RWX page rewrites its own next instruction; both
        engines must execute the *new* instruction (the decode cache
        revalidates against the memory generation)."""

        def build(asm):
            asm.mov32("r4", RWX_VA)
            asm.mov32("r0", 0)
            # Overwrite patch_target with `movw r1, #7` before reaching it.
            asm.mov32("r5", encode(Instruction("movw", rd=1, imm=7)))
            patch_target = asm.position + 2  # after the movw/strr below
            asm.movw("r6", patch_target * 4)
            asm.strr("r5", "r4", "r6")
            asm.udf()  # patch_target: replaced before execution reaches it
            asm.svc(0)

        # The program runs *on* the RWX page so the store really does
        # hit fetched-from memory.
        words = asm_words(build)
        outcomes = {}
        for engine in ENGINES:
            state = make_state([], rwx_words=words)
            cpu = CPU(state, engine=engine)
            cpu.access_trace = []
            result = cpu.run(RWX_VA, max_steps=100)
            outcomes[engine] = (result, observe(state), cpu.access_trace)
        for engine in ENGINES:
            assert outcomes[engine] == outcomes["reference"], engine
        result = outcomes["reference"][0]
        assert result.reason is ExitReason.SVC
        assert outcomes["reference"][1]["gprs"][1] == 7

    def test_patch_loop_body_mid_run(self):
        """A loop whose body is patched on a later iteration: the cached
        micro-op must be discarded when the word changes."""

        def build(asm):
            asm.mov32("r4", RWX_VA)
            asm.movw("r0", 0)  # accumulator
            asm.movw("r2", 3)  # iterations
            # Patch word: `addi r0, r0, #100` replaces `addi r0, r0, #1`
            asm.mov32("r5", encode(Instruction("addi", rd=0, rn=0, imm=100)))
            asm.label("loop")
            body = asm.position
            asm.addi("r0", "r0", 1)
            asm.movw("r6", body * 4)
            asm.strr("r5", "r4", "r6")  # patch the body for next time
            asm.subi("r2", "r2", 1)
            asm.cmpi("r2", 0)
            asm.bne("loop")
            asm.svc(0)

        words = asm_words(build)
        outcomes = {}
        for engine in ENGINES:
            state = make_state([], rwx_words=words)
            cpu = CPU(state, engine=engine)
            result = cpu.run(RWX_VA, max_steps=100)
            outcomes[engine] = (result, observe(state))
        for engine in ENGINES:
            assert outcomes[engine] == outcomes["reference"], engine
        # First iteration adds 1; the two remaining add the patched 100.
        assert outcomes["reference"][1]["gprs"][0] == 201


def _instruction_strategy():
    ops = sorted(FORMATS)
    regs = st.integers(0, 14)
    imm16 = st.integers(0, 0xFFFF)
    # Branch offsets kept small so programs sometimes loop and sometimes
    # run off the page (aborting) — both are interesting.
    branch = st.integers(-8, 8)

    def build(op, rd, rn, rm, imm, offset):
        fmt = FORMATS[op][1]
        if fmt == "b":
            return encode(Instruction(op, imm=offset))
        if fmt == "svc":
            return encode(Instruction(op, imm=imm & 0xFF))
        return encode(Instruction(op, rd=rd, rn=rn, rm=rm, imm=imm))

    valid = st.builds(
        build, st.sampled_from(ops), regs, regs, regs, imm16, branch
    )
    raw = st.integers(0, 0xFFFFFFFF)
    return st.one_of(valid, valid, valid, raw)


class TestRandomPrograms:
    @settings(max_examples=60, deadline=None)
    @given(
        words=st.lists(_instruction_strategy(), min_size=1, max_size=24),
        regs=st.lists(st.integers(0, 0xFFFFFFFF), min_size=13, max_size=13),
    )
    def test_random_program_differential(self, words, regs):
        run_differential(
            words,
            data_words=[w & 0xFFFFFFFF for w in words][:16],
            regs={i: v for i, v in enumerate(regs)},
            max_steps=150,
        )


class TestBenchWorkloads:
    """The engine-speedup programs themselves, differentially."""

    @pytest.mark.parametrize("name,r0", [("checksum", 8), ("notary", 150), ("sha256", 1)])
    def test_workload(self, name, r0):
        factory, _ = WORKLOADS[name]
        program = factory()
        outcomes = {}
        for engine in ENGINES:
            state = stage(program, r0)
            cpu = CPU(state, engine=engine)
            cpu.access_trace = []
            result = cpu.run(WORKLOAD_CODE_VA, max_steps=2_000_000)
            regs = state.regs
            outcomes[engine] = (
                result,
                dict(regs.gprs),
                state.cycles,
                cpu.access_trace,
            )
        for engine in ENGINES:
            assert outcomes[engine] == outcomes["reference"], engine
        assert outcomes["reference"][0].reason is ExitReason.SVC

    @pytest.mark.parametrize(
        "name,r0,cycles,steps,result",
        [
            ("checksum", 256, 93024, 59203, 1336546311),
            ("notary", 6000, 120276, 78037, 2629918970),
            ("sha256", 24, 98715, 67710, 1383988808),
        ],
    )
    def test_full_size_run_is_pinned(self, name, r0, cycles, steps, result):
        """The full-size runs the speedup floors time: simulated cycles,
        steps and result are the same fixed numbers on every engine."""
        factory, full_r0 = WORKLOADS[name]
        assert full_r0 == r0
        program = factory()
        for engine in ENGINES:
            state = stage(program, r0)
            run = CPU(state, engine=engine).run(WORKLOAD_CODE_VA, max_steps=10_000_000)
            assert run.reason is ExitReason.SVC, engine
            assert (state.cycles, run.steps, state.regs.read_gpr(0)) == (
                cycles,
                steps,
                result,
            ), engine
