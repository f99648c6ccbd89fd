"""Disassembler: rendering, round trips, branch annotation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arm.assembler import Assembler
from repro.arm.disassembler import disassemble, disassemble_word, render
from repro.arm.instructions import FORMATS, Instruction, decode, encode


class TestRendering:
    def test_alu_forms(self):
        assert render(Instruction("add", rd=0, rn=1, rm=2)) == "add r0, r1, r2"
        assert render(Instruction("addi", rd=0, rn=1, imm=8)) == "addi r0, r1, #0x8"
        assert render(Instruction("mov", rd=13, rm=14)) == "mov sp, lr"
        assert render(Instruction("movw", rd=3, imm=0x1234)) == "movw r3, #0x1234"

    def test_memory_forms(self):
        assert render(Instruction("ldr", rd=0, rn=4, imm=8)) == "ldr r0, [r4, #0x8]"
        assert render(Instruction("strr", rd=0, rn=4, rm=5)) == "strr r0, [r4, r5]"

    def test_compare_forms(self):
        assert render(Instruction("cmp", rn=0, rm=1)) == "cmp r0, r1"
        assert render(Instruction("cmpi", rn=0, imm=3)) == "cmpi r0, #0x3"

    def test_branch_and_svc(self):
        assert render(Instruction("b", imm=3)) == "b .+4"
        assert render(Instruction("beq", imm=-2)) == "beq .-1"
        assert render(Instruction("svc", imm=7)) == "svc #7"
        assert render(Instruction("nop")) == "nop"

    def test_undefined_word(self):
        assert disassemble_word(0xFF000000) == ".word 0xff000000"


class TestRoundTrip:
    @given(st.integers(0, 0xFFFFFFFF))
    @settings(max_examples=300)
    def test_never_crashes(self, word):
        assert isinstance(disassemble_word(word), str)

    def test_program_round_trip(self):
        """Assemble -> disassemble lines mention every mnemonic used."""
        asm = Assembler()
        asm.movw("r0", 5)
        asm.label("loop")
        asm.subi("r0", "r0", 1)
        asm.cmpi("r0", 0)
        asm.bne("loop")
        asm.svc(1)
        lines = disassemble(asm.assemble(), base_va=0x1000)
        text = "\n".join(lines)
        for mnemonic in ("movw", "subi", "cmpi", "bne", "svc"):
            assert mnemonic in text

    def test_branch_target_annotation(self):
        asm = Assembler()
        asm.b("end")
        asm.nop()
        asm.label("end")
        asm.nop()
        lines = disassemble(asm.assemble(), base_va=0x1000)
        assert "-> 0x1008" in lines[0]

    def test_addresses_prefix_lines(self):
        lines = disassemble([encode(Instruction("nop"))] * 3, base_va=0x2000)
        assert lines[0].startswith("0x00002000:")
        assert lines[2].startswith("0x00002008:")
