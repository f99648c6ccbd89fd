"""CFG construction: blocks, edges, and KA0xx well-formedness rules."""

import pytest

from repro.analysis.cfg import build_cfg
from repro.arm.assembler import Assembler
from repro.arm.instructions import Instruction, encode
from repro.monitor.layout import SVC

UNDECODABLE = 0xFF00_0000  # opcode 0xFF is not assigned


def exit_words():
    return [encode(Instruction("svc", imm=SVC.EXIT))]


def words_of(asm: Assembler):
    return asm.assemble()


class TestBlocksAndEdges:
    def test_straight_line_is_one_block(self):
        asm = Assembler()
        asm.movw("r0", 1)
        asm.addi("r0", "r0", 2)
        asm.svc(SVC.EXIT)
        cfg = build_cfg(words_of(asm))
        assert list(cfg.blocks) == [0]
        assert cfg.blocks[0].end == 3
        assert cfg.blocks[0].successors == []
        assert not cfg.findings

    def test_conditional_branch_has_two_successors(self):
        asm = Assembler()
        asm.cmpi("r0", 0)
        asm.beq("done")
        asm.movw("r1", 1)
        asm.label("done")
        asm.svc(SVC.EXIT)
        cfg = build_cfg(words_of(asm))
        branch_block = cfg.blocks[0]  # cmpi; beq
        assert branch_block.end == 2
        assert sorted(branch_block.successors) == [2, 3]

    def test_call_edges_to_callee_and_return_site(self):
        """bl gets both a callee edge and a fall-through (return) edge."""
        asm = Assembler()
        asm.bl("func")
        asm.svc(SVC.EXIT)
        asm.label("func")
        asm.bxlr()
        cfg = build_cfg(words_of(asm))
        assert sorted(cfg.blocks[0].successors) == [1, 2]
        assert cfg.blocks[2].successors == []  # return is indirect

    def test_self_loop(self):
        """``b .`` (spin) is a one-instruction block whose successor is
        itself; the loop terminates CFG construction fine."""
        asm = Assembler()
        asm.label("spin")
        asm.b("spin")
        cfg = build_cfg(words_of(asm))
        assert cfg.blocks[0].successors == [0]
        assert 0 in cfg.reachable
        # No exit is reachable from a pure spin.
        assert "KA005" in {f.rule for f in cfg.findings}

    def test_branch_into_middle_of_mov32_pair(self):
        """mov32 expands to movw+movt; a branch targeting the movt word
        must split the pair into two blocks (the analyser sees the movt
        executed without its movw)."""
        words = [
            encode(Instruction("b", imm=1)),  # jump to the movt (index 2)
            encode(Instruction("movw", rd=4, imm=0x5678)),
            encode(Instruction("movt", rd=4, imm=0x1234)),
            encode(Instruction("svc", imm=SVC.EXIT)),
        ]
        cfg = build_cfg(words)
        assert 2 in cfg.blocks  # the movt starts its own block
        assert sorted(cfg.blocks) == [0, 1, 2]
        # The movw half is unreachable, the movt half reachable.
        assert 2 in cfg.reachable and 1 not in cfg.reachable

    def test_entry_in_the_middle(self):
        asm = Assembler()
        asm.movw("r0", 1)
        asm.movw("r1", 2)
        asm.svc(SVC.EXIT)
        cfg = build_cfg(words_of(asm), entry_index=1)
        assert cfg.entry == 1
        # Word 0 precedes the entry: no block, reachable or not, holds it.
        assert cfg.reachable == {1}
        assert all(0 not in block for block in cfg.blocks.values())

    def test_entry_outside_region_rejected(self):
        with pytest.raises(ValueError):
            build_cfg(exit_words(), entry_index=5)

    def test_va_mapping(self):
        cfg = build_cfg(exit_words(), base_va=0x1000)
        assert cfg.va(0) == 0x1000


class TestWellFormednessFindings:
    def test_reachable_undecodable_flagged(self):
        words = [UNDECODABLE] + exit_words()
        cfg = build_cfg(words)
        rules = {f.rule for f in cfg.findings}
        assert "KA001" in rules
        finding = next(f for f in cfg.findings if f.rule == "KA001")
        assert finding.index == 0

    def test_unreachable_undecodable_not_ka001(self):
        """A skipped junk word is dead code (KA004), not a decode error."""
        asm = Assembler()
        asm.b("over")
        asm.label("over")
        asm.svc(SVC.EXIT)
        words = words_of(asm)
        words.insert(1, UNDECODABLE)
        words[0] = encode(Instruction("b", imm=1))  # re-point over the junk
        cfg = build_cfg(words)
        rules = {f.rule for f in cfg.findings}
        assert "KA001" not in rules
        assert "KA004" in rules

    def test_fall_off_end(self):
        asm = Assembler()
        asm.movw("r0", 1)
        asm.addi("r0", "r0", 1)  # last word: execution continues past it
        cfg = build_cfg(words_of(asm))
        rules = {f.rule for f in cfg.findings}
        assert "KA002" in rules
        finding = next(f for f in cfg.findings if f.rule == "KA002")
        assert finding.index == 1

    def test_conditional_branch_as_last_word_falls_off(self):
        """The not-taken path of a final conditional branch leaves the
        region even when the taken path stays inside."""
        asm = Assembler()
        asm.label("top")
        asm.cmpi("r0", 0)
        asm.beq("top")
        cfg = build_cfg(words_of(asm))
        assert "KA002" in {f.rule for f in cfg.findings}

    def test_branch_target_out_of_range(self):
        words = [encode(Instruction("b", imm=100))] + exit_words()
        cfg = build_cfg(words)
        rules = {f.rule for f in cfg.findings}
        assert "KA003" in rules

    def test_backward_branch_before_region(self):
        words = exit_words() + [encode(Instruction("b", imm=-10))]
        cfg = build_cfg(words, entry_index=1)
        assert "KA003" in {f.rule for f in cfg.findings}

    def test_unreachable_code_reported_once_per_run(self):
        asm = Assembler()
        asm.b("end")
        asm.movw("r0", 1)  # dead
        asm.movw("r1", 2)  # dead
        asm.label("end")
        asm.svc(SVC.EXIT)
        cfg = build_cfg(words_of(asm))
        dead = [f for f in cfg.findings if f.rule == "KA004"]
        assert len(dead) == 1
        assert dead[0].index == 1

    def test_zero_padding_not_flagged(self):
        """Trailing zero words (the rest of a code page) are not code."""
        words = exit_words() + [0, 0, 0]
        cfg = build_cfg(words)
        assert "KA004" not in {f.rule for f in cfg.findings}

    def test_no_reachable_exit(self):
        asm = Assembler()
        asm.movw("r0", 1)
        asm.label("spin")
        asm.b("spin")
        cfg = build_cfg(words_of(asm))
        assert "KA005" in {f.rule for f in cfg.findings}

    def test_return_counts_as_exit(self):
        """Library fragments ending in bxlr are not flagged KA005."""
        asm = Assembler()
        asm.bl("func")
        asm.label("spin")
        asm.b("spin")
        asm.label("func")
        asm.bxlr()
        cfg = build_cfg(words_of(asm))
        assert "KA005" not in {f.rule for f in cfg.findings}

    def test_clean_program_has_no_findings(self):
        asm = Assembler()
        asm.movw("r7", 0)
        asm.label("loop")
        asm.addi("r7", "r7", 1)
        asm.cmpi("r7", 4)
        asm.bne("loop")
        asm.svc(SVC.EXIT)
        cfg = build_cfg(words_of(asm))
        assert cfg.findings == []
