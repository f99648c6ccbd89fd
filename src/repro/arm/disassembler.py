"""Disassembler: instruction words back to readable assembly.

The inverse of the assembler, used for debugging and forensics: given
words from a measured enclave page (or a whole page table walk away),
render the program a human can read.  Round-tripping through
``decode`` means the disassembly is exactly what the CPU will execute —
there is no second decoder to drift.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.arm.instructions import (
    BRANCH_OPS,
    FORMATS,
    OPERAND_LAYOUT,
    Instruction,
    decode,
)

_REG_NAMES = {i: f"r{i}" for i in range(13)}
_REG_NAMES[13] = "sp"
_REG_NAMES[14] = "lr"


def _reg(index: int) -> str:
    return _REG_NAMES.get(index, f"?{index}")


def _operand(token: str, instr: Instruction) -> str:
    """Render one OPERAND_LAYOUT token against a concrete instruction."""
    if token == "offset":
        sign = "+" if instr.imm >= 0 else ""
        return f".{sign}{instr.imm + 1}"
    if token == "#imm":
        # Branch/SVC call numbers read naturally in decimal; data
        # immediates in hex (addresses, masks, constants).
        style = "#{imm}" if FORMATS[instr.op][1] == "svc" else "#{imm:#x}"
        return style.format(imm=instr.imm)
    if token.startswith("["):
        inner = token[1:-1].split(", ")
        return "[" + ", ".join(_operand(part, instr) for part in inner) + "]"
    return _reg(getattr(instr, token))


def render(instr: Instruction) -> str:
    """Render one instruction in the assembler's notation.

    Operand order and grouping come from ``OPERAND_LAYOUT`` — the same
    table the static analyser uses — so the disassembler cannot drift
    from the instruction set's own description of its formats.
    """
    layout = OPERAND_LAYOUT[FORMATS[instr.op][1]]
    if not layout:
        return instr.op
    return f"{instr.op} " + ", ".join(_operand(tok, instr) for tok in layout)


def disassemble_word(word: int) -> str:
    """Disassemble one word; undefined encodings render as ``.word``."""
    instr = decode(word)
    if instr is None:
        return f".word {word:#010x}"
    return render(instr)


def disassemble(words: Sequence[int], base_va: int = 0) -> List[str]:
    """Disassemble a program, one line per word, with addresses and
    resolved branch targets."""
    lines = []
    for index, word in enumerate(words):
        va = base_va + index * 4
        text = disassemble_word(word)
        instr = decode(word)
        if instr is not None and instr.op in BRANCH_OPS:
            target = va + (instr.imm + 1) * 4
            text += f"    ; -> {target:#x}"
        lines.append(f"{va:#010x}:  {text}")
    return lines

