"""Per-instruction metadata: the single source of truth the CFG, the
taint analysis and the disassembler all consume.

The key property is *consistency with the CPU*: ``metadata`` claims which
registers an instruction reads and writes, whether it touches flags, and
how control leaves it — and the interpreter in ``repro.arm.cpu`` is the
ground truth for all of that.  Every claim is checked by executing the
instruction and diffing machine state.
"""

import pytest

from repro.arm.cpu import CPU, _UserUndefined
from repro.arm.disassembler import render
from repro.arm.instructions import (
    FORMATS,
    REG_LR,
    REG_SP,
    Instruction,
    branch_target_index,
    decode,
    encode,
    metadata,
)
from repro.arm.machine import MachineState
from repro.arm.modes import Mode
from repro.arm.registers import PSR
from repro.monitor.layout import SVC


def sample(op: str) -> Instruction:
    """A representative instruction of every form (distinct operands so
    field mix-ups are visible)."""
    fmt = FORMATS[op][1]
    if fmt == "rrr":
        return Instruction(op, rd=1, rn=2, rm=3)
    if fmt == "rri":
        return Instruction(op, rd=1, rn=2, imm=5)
    if fmt == "rr":
        return Instruction(op, rd=1, rm=3)
    if fmt == "ri":
        return Instruction(op, rd=1, imm=0x1234)
    if fmt == "cmp_r":
        return Instruction(op, rn=2, rm=3)
    if fmt == "cmp_i":
        return Instruction(op, rn=2, imm=5)
    if fmt == "mem_i":
        return Instruction(op, rd=1, rn=2, imm=8)
    if fmt == "mem_r":
        return Instruction(op, rd=1, rn=2, rm=3)
    if fmt == "b":
        return Instruction(op, imm=3)
    if fmt == "svc":
        return Instruction(op, imm=SVC.EXIT)
    return Instruction(op)


ALL_OPS = sorted(FORMATS)


class TestRoundTrip:
    @pytest.mark.parametrize("op", ALL_OPS)
    def test_encode_decode_metadata(self, op):
        """Every instruction form survives encode → decode, and the
        decoded instruction yields well-formed metadata."""
        instr = sample(op)
        decoded = decode(encode(instr))
        assert decoded == instr
        meta = metadata(decoded)
        for index in meta.reads + meta.writes:
            assert 0 <= index <= REG_LR
        assert render(decoded)  # never raises, never empty

    @pytest.mark.parametrize("op", ALL_OPS)
    def test_render_starts_with_mnemonic(self, op):
        assert render(sample(op)).split()[0] == op

    def test_unknown_mnemonic_rejected(self):
        from repro.arm.instructions import EncodingError

        with pytest.raises(EncodingError):
            metadata(Instruction("fnord"))


class TestClassification:
    def test_branch_classes(self):
        assert metadata(Instruction("b", imm=1)).is_branch
        assert not metadata(Instruction("b", imm=1)).is_conditional
        beq = metadata(Instruction("beq", imm=1))
        assert beq.is_branch and beq.is_conditional and beq.reads_flags
        bl = metadata(Instruction("bl", imm=1))
        assert bl.is_call and bl.writes == (REG_LR,)
        bx = metadata(Instruction("bxlr"))
        assert bx.is_return and bx.reads == (REG_LR,)

    def test_memory_classes(self):
        assert metadata(Instruction("ldr", rd=1, rn=2)).memory == "load"
        assert metadata(Instruction("strr", rd=1, rn=2, rm=3)).memory == "store"
        assert metadata(Instruction("add", rd=1, rn=2, rm=3)).memory is None

    def test_store_reads_its_data_register(self):
        assert 1 in metadata(Instruction("str", rd=1, rn=2)).reads
        assert 1 in metadata(Instruction("strr", rd=1, rn=2, rm=3)).reads

    def test_movt_reads_its_destination(self):
        assert metadata(Instruction("movt", rd=5, imm=1)).reads == (5,)
        assert metadata(Instruction("movw", rd=5, imm=1)).reads == ()

    def test_svc_uses_the_argument_window(self):
        meta = metadata(Instruction("svc", imm=SVC.EXIT))
        assert set(meta.reads) == set(range(13))
        assert set(meta.writes) == set(range(13))
        assert REG_SP not in meta.writes and REG_LR not in meta.writes

    def test_privilege_classes(self):
        assert metadata(Instruction("smc", imm=1)).is_privileged
        assert metadata(Instruction("udf")).is_trap
        assert not metadata(Instruction("svc", imm=1)).is_privileged

    def test_branch_target_index(self):
        assert branch_target_index(Instruction("b", imm=3), 10) == 14
        assert branch_target_index(Instruction("b", imm=-1), 10) == 10  # spin
        assert branch_target_index(Instruction("add"), 10) is None


class _Harness:
    """A user-mode CPU with no memory mapped: enough to execute every
    register-only instruction directly."""

    def __init__(self):
        state = MachineState.boot(secure_pages=8)
        state.regs.cpsr = PSR(mode=Mode.USR, irq_masked=False, fiq_masked=False)
        self.cpu = CPU(state)
        # Distinct, recognisable values in every operand register.
        for index in range(15):
            self.cpu._write_reg(index, 0x1000 + 0x111 * index)

    def snapshot(self):
        regs = [self.cpu._read_reg(i) for i in range(15)]
        cpsr = self.cpu.state.regs.cpsr
        return regs, (cpsr.n, cpsr.z, cpsr.c, cpsr.v)


# Ops the bare harness can execute (no memory, no mode switch).
_EXECUTABLE = [
    op
    for op in ALL_OPS
    if FORMATS[op][1] not in ("mem_i", "mem_r") and op not in ("svc",)
]


class TestCPUAgreement:
    """``metadata`` must describe exactly what the interpreter does."""

    @pytest.mark.parametrize("op", _EXECUTABLE)
    def test_writes_and_flags_match_execution(self, op):
        harness = _Harness()
        instr = sample(op)
        meta = metadata(instr)
        before_regs, before_flags = harness.snapshot()
        if meta.is_privileged or meta.is_trap:
            with pytest.raises(_UserUndefined):
                harness.cpu._execute(instr, 0x1000)
            return
        next_pc, svc = harness.cpu._execute(instr, 0x1000)
        after_regs, after_flags = harness.snapshot()
        assert svc is None
        for index in range(15):
            if index not in meta.writes:
                assert after_regs[index] == before_regs[index], (
                    f"{op} silently wrote r{index}"
                )
        if not meta.sets_flags:
            assert after_flags == before_flags, f"{op} silently set flags"

    @pytest.mark.parametrize(
        "op", sorted(o for o in ALL_OPS if FORMATS[o][1] == "b")
    )
    def test_branch_target_matches_execution(self, op):
        """Taken branches land where branch_target_index says."""
        harness = _Harness()
        # Force every condition true: beq needs Z, bne needs !Z, etc.
        # Run each branch under both flag settings and check the taken
        # case against the static target.
        from repro.arm.instructions import CONDITIONAL_BRANCHES, condition_passes

        instr = sample(op)
        index = 7
        pc = 0x1000 + index * 4
        static = branch_target_index(instr, index)
        for z in (False, True):
            cpsr = harness.cpu.state.regs.cpsr
            harness.cpu.state.regs.cpsr = PSR(
                mode=cpsr.mode, n=False, z=z, c=False, v=False,
                irq_masked=cpsr.irq_masked, fiq_masked=cpsr.fiq_masked,
            )
            next_pc, _ = harness.cpu._execute(instr, pc)
            taken = (
                op not in CONDITIONAL_BRANCHES
                or condition_passes(op, False, z, False, False)
            )
            expected = static if taken else index + 1
            assert next_pc == 0x1000 + expected * 4

    def test_bl_links_the_return_address(self):
        harness = _Harness()
        next_pc, _ = harness.cpu._execute(Instruction("bl", imm=3), 0x1000)
        assert harness.cpu._read_reg(REG_LR) == 0x1004
        assert next_pc == 0x1010

    def test_bxlr_returns_through_lr(self):
        harness = _Harness()
        harness.cpu._write_reg(REG_LR, 0x2028)
        next_pc, _ = harness.cpu._execute(Instruction("bxlr"), 0x1000)
        assert next_pc == 0x2028

    def test_load_and_store_reach_memory_as_claimed(self):
        """Memory-op metadata against the dynamic access trace: the
        side-channel profiler records exactly one load for ldr/ldrr and
        one store for str/strr at base+offset."""
        from repro.arm.assembler import Assembler
        from repro.security.sidechannel import SECRET_VA, profile

        asm = Assembler()
        asm.mov32("r4", SECRET_VA)
        asm.movw("r6", 8)
        asm.ldr("r5", "r4", 4)
        asm.ldrr("r7", "r4", "r6")
        asm.str_("r5", "r4", 12)
        asm.strr("r7", "r4", "r6")
        asm.svc(SVC.EXIT)
        trace = profile(asm, [0] * 16).trace
        data = [(kind, addr) for kind, addr in trace if kind != "fetch"]
        assert data == [
            ("load", SECRET_VA + 4),
            ("load", SECRET_VA + 8),
            ("store", SECRET_VA + 12),
            ("store", SECRET_VA + 8),
        ]
