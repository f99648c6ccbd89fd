"""Instruction set for user-mode (enclave) execution.

The paper's machine model specifies the semantics of 25 instructions and
treats user-mode execution abstractly (havoc).  This reproduction goes
one step further for fidelity: enclave code is *actually executed* — it
is assembled to 32-bit words, placed in enclave data pages, then fetched
through the enclave's page tables, decoded, and interpreted.

Encodings are model-internal, not real ARM encodings.  The paper's own
toolchain has the same property: Vale represents instructions as ASTs and
a trusted printer emits concrete assembly; here the trusted boundary is
the encode/decode pair, which round-trips exactly (a property test checks
this for all instructions).

Register operands are indices 0-15: 0-12 name R0-R12, 13 names SP and
14 names LR (the user-mode banks).  The PC is not a register operand;
control flow happens only through branch instructions, mirroring the
paper's decision not to model arbitrary PC writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.arm.bits import WORD_MASK, get_bits, to_signed  # noqa: F401

REG_SP = 13
REG_LR = 14
NUM_OPERAND_REGS = 15


class EncodingError(Exception):
    """Raised when an instruction cannot be encoded or decoded."""


@dataclass(frozen=True)
class Instruction:
    """A decoded instruction: mnemonic plus operand fields.

    Fields not used by a mnemonic are zero.  ``imm`` holds the 16-bit
    immediate for ALU/memory forms and the signed word offset for
    branches (already sign-extended at decode time).
    """

    op: str
    rd: int = 0
    rn: int = 0
    rm: int = 0
    imm: int = 0

    def __str__(self) -> str:
        return f"{self.op} rd={self.rd} rn={self.rn} rm={self.rm} imm={self.imm:#x}"


# Mnemonic -> (opcode, format) where format is one of:
#   "rrr": rd, rn, rm            "rri": rd, rn, imm16
#   "rr":  rd, rm                "ri":  rd, imm16
#   "cmp_r": rn, rm              "cmp_i": rn, imm16
#   "mem_i": rd, rn, imm16       "mem_r": rd, rn, rm
#   "b":   signed 24-bit word offset
#   "svc": imm24                 "none": no operands
FORMATS: Dict[str, Tuple[int, str]] = {
    "add": (0x01, "rrr"),
    "addi": (0x02, "rri"),
    "sub": (0x03, "rrr"),
    "subi": (0x04, "rri"),
    "rsb": (0x05, "rrr"),
    "and": (0x06, "rrr"),
    "orr": (0x07, "rrr"),
    "eor": (0x08, "rrr"),
    "bic": (0x09, "rrr"),
    "mov": (0x0A, "rr"),
    "mvn": (0x0B, "rr"),
    "mul": (0x0C, "rrr"),
    "lsl": (0x0D, "rrr"),
    "lsr": (0x0E, "rrr"),
    "asr": (0x0F, "rrr"),
    "ror": (0x10, "rrr"),
    "lsli": (0x11, "rri"),
    "lsri": (0x12, "rri"),
    "asri": (0x13, "rri"),
    "movw": (0x14, "ri"),
    "movt": (0x15, "ri"),
    "cmp": (0x16, "cmp_r"),
    "cmpi": (0x17, "cmp_i"),
    "tst": (0x18, "cmp_r"),
    "ldr": (0x20, "mem_i"),
    "str": (0x21, "mem_i"),
    "ldrr": (0x22, "mem_r"),
    "strr": (0x23, "mem_r"),
    "b": (0x30, "b"),
    "beq": (0x31, "b"),
    "bne": (0x32, "b"),
    "blt": (0x33, "b"),
    "bge": (0x34, "b"),
    "bgt": (0x35, "b"),
    "ble": (0x36, "b"),
    "bcs": (0x37, "b"),
    "bcc": (0x38, "b"),
    "bl": (0x39, "b"),
    "bxlr": (0x3A, "none"),
    "svc": (0x40, "svc"),
    "udf": (0x41, "none"),
    "nop": (0x42, "none"),
    "smc": (0x43, "svc"),
}

_BY_OPCODE = {opcode: (name, fmt) for name, (opcode, fmt) in FORMATS.items()}

BRANCH_OPS = frozenset(op for op, (_, fmt) in FORMATS.items() if fmt == "b")
CONDITIONAL_BRANCHES = BRANCH_OPS - {"b", "bl"}


# ---------------------------------------------------------------------------
# Per-instruction metadata
# ---------------------------------------------------------------------------

#: Operand rendering layout per format: which fields appear, in order,
#: and how.  ``#imm`` renders as an immediate; ``[rn, …]`` groups the
#: address operand of memory forms.  The disassembler and the static
#: analyser both consume this table, so there is exactly one place that
#: knows what a format's operands are.
OPERAND_LAYOUT: Dict[str, Tuple[str, ...]] = {
    "rrr": ("rd", "rn", "rm"),
    "rri": ("rd", "rn", "#imm"),
    "rr": ("rd", "rm"),
    "ri": ("rd", "#imm"),
    "cmp_r": ("rn", "rm"),
    "cmp_i": ("rn", "#imm"),
    "mem_i": ("rd", "[rn, #imm]"),
    "mem_r": ("rd", "[rn, rm]"),
    "b": ("offset",),
    "svc": ("#imm",),
    "none": (),
}

_GPR_ARGS = tuple(range(13))  # r0-r12: the SVC argument/result window

#: Mnemonics that read the NZCV flags (conditional branches).
FLAG_READERS = CONDITIONAL_BRANCHES
#: Mnemonics that set flags (the compare family).
FLAG_SETTERS = frozenset({"cmp", "cmpi", "tst"})


@dataclass(frozen=True)
class InstrMeta:
    """Static facts about one decoded instruction.

    ``reads``/``writes`` are register indices (13 = SP, 14 = LR).  SVCs
    conservatively read and write the whole r0-r12 window: the monitor
    passes r0-r12 as arguments and writes results back into it.
    """

    reads: Tuple[int, ...]
    writes: Tuple[int, ...]
    sets_flags: bool
    reads_flags: bool
    is_branch: bool
    is_conditional: bool
    is_call: bool
    is_return: bool
    memory: Optional[str]  # "load" | "store" | None
    is_svc: bool
    is_privileged: bool  # SMC-class: undefined from user mode
    is_trap: bool  # udf


def metadata(instr: Instruction) -> InstrMeta:
    """Compute the metadata for one instruction."""
    op = instr.op
    if op not in FORMATS:
        raise EncodingError(f"unknown mnemonic {op!r}")
    fmt = FORMATS[op][1]
    reads: Tuple[int, ...] = ()
    writes: Tuple[int, ...] = ()
    memory: Optional[str] = None
    if fmt == "rrr":
        reads, writes = (instr.rn, instr.rm), (instr.rd,)
    elif fmt == "rri":
        reads, writes = (instr.rn,), (instr.rd,)
    elif fmt == "rr":
        reads, writes = (instr.rm,), (instr.rd,)
    elif fmt == "ri":
        # movt inserts into the destination's top half: it reads rd too.
        reads = (instr.rd,) if op == "movt" else ()
        writes = (instr.rd,)
    elif fmt == "cmp_r":
        reads = (instr.rn, instr.rm)
    elif fmt == "cmp_i":
        reads = (instr.rn,)
    elif fmt == "mem_i":
        if op == "ldr":
            reads, writes, memory = (instr.rn,), (instr.rd,), "load"
        else:  # str
            reads, memory = (instr.rn, instr.rd), "store"
    elif fmt == "mem_r":
        if op == "ldrr":
            reads, writes, memory = (instr.rn, instr.rm), (instr.rd,), "load"
        else:  # strr
            reads, memory = (instr.rn, instr.rm, instr.rd), "store"
    elif fmt == "svc":
        if op == "svc":
            reads, writes = _GPR_ARGS, _GPR_ARGS
    elif fmt == "b":
        if op == "bl":
            writes = (REG_LR,)
    elif fmt == "none":
        if op == "bxlr":
            reads = (REG_LR,)
    return InstrMeta(
        reads=reads,
        writes=writes,
        sets_flags=op in FLAG_SETTERS,
        reads_flags=op in FLAG_READERS,
        is_branch=op in BRANCH_OPS,
        is_conditional=op in CONDITIONAL_BRANCHES,
        is_call=op == "bl",
        is_return=op == "bxlr",
        memory=memory,
        is_svc=op == "svc",
        is_privileged=op == "smc",
        is_trap=op == "udf",
    )


def branch_target_index(instr: Instruction, index: int) -> Optional[int]:
    """Word index a branch at ``index`` transfers to, or None if the
    instruction is not a PC-relative branch (``bxlr`` is indirect)."""
    if instr.op in BRANCH_OPS:
        return index + instr.imm + 1
    return None


def _check_reg(index: int) -> int:
    if not 0 <= index < NUM_OPERAND_REGS:
        raise EncodingError(f"register index {index} out of range")
    return index


def _check_imm16(imm: int) -> int:
    if not 0 <= imm <= 0xFFFF:
        raise EncodingError(f"immediate {imm:#x} does not fit in 16 bits")
    return imm


def encode(instr: Instruction) -> int:
    """Encode an instruction into its 32-bit word."""
    if instr.op not in FORMATS:
        raise EncodingError(f"unknown mnemonic {instr.op!r}")
    opcode, fmt = FORMATS[instr.op]
    word = opcode << 24
    if fmt == "rrr":
        word |= _check_reg(instr.rd) << 20
        word |= _check_reg(instr.rn) << 16
        word |= _check_reg(instr.rm) << 12
    elif fmt == "rri":
        word |= _check_reg(instr.rd) << 20
        word |= _check_reg(instr.rn) << 16
        word |= _check_imm16(instr.imm)
    elif fmt == "rr":
        word |= _check_reg(instr.rd) << 20
        word |= _check_reg(instr.rm) << 12
    elif fmt == "ri":
        word |= _check_reg(instr.rd) << 20
        word |= _check_imm16(instr.imm)
    elif fmt == "cmp_r":
        word |= _check_reg(instr.rn) << 16
        word |= _check_reg(instr.rm) << 12
    elif fmt == "cmp_i":
        word |= _check_reg(instr.rn) << 16
        word |= _check_imm16(instr.imm)
    elif fmt == "mem_i":
        word |= _check_reg(instr.rd) << 20
        word |= _check_reg(instr.rn) << 16
        word |= _check_imm16(instr.imm)
    elif fmt == "mem_r":
        word |= _check_reg(instr.rd) << 20
        word |= _check_reg(instr.rn) << 16
        word |= _check_reg(instr.rm) << 12
    elif fmt == "b":
        if not -(1 << 23) <= instr.imm < (1 << 23):
            raise EncodingError(f"branch offset {instr.imm} out of range")
        word |= instr.imm & 0xFFFFFF
    elif fmt == "svc":
        if not 0 <= instr.imm <= 0xFFFFFF:
            raise EncodingError(f"call number {instr.imm:#x} out of range")
        word |= instr.imm
    elif fmt == "none":
        pass
    else:  # pragma: no cover - exhaustive over FORMATS
        raise EncodingError(f"unhandled format {fmt!r}")
    return word & WORD_MASK


def decode(word: int) -> Optional[Instruction]:
    """Decode a 32-bit word; returns None for undefined encodings.

    An undefined encoding is architecturally an undefined-instruction
    exception, which the CPU raises when decode returns None.
    """
    opcode = (word >> 24) & 0xFF
    if opcode not in _BY_OPCODE:
        return None
    op, fmt = _BY_OPCODE[opcode]
    rd = (word >> 20) & 0xF
    rn = (word >> 16) & 0xF
    rm = (word >> 12) & 0xF
    imm16 = word & 0xFFFF
    if fmt == "rrr" or fmt == "mem_r":
        if max(rd, rn, rm) >= NUM_OPERAND_REGS:
            return None
        return Instruction(op, rd=rd, rn=rn, rm=rm)
    if fmt == "rri" or fmt == "mem_i":
        if max(rd, rn) >= NUM_OPERAND_REGS:
            return None
        return Instruction(op, rd=rd, rn=rn, imm=imm16)
    if fmt == "rr":
        if max(rd, rm) >= NUM_OPERAND_REGS:
            return None
        return Instruction(op, rd=rd, rm=rm)
    if fmt == "ri":
        if rd >= NUM_OPERAND_REGS:
            return None
        return Instruction(op, rd=rd, imm=imm16)
    if fmt == "cmp_r":
        if max(rn, rm) >= NUM_OPERAND_REGS:
            return None
        return Instruction(op, rn=rn, rm=rm)
    if fmt == "cmp_i":
        if rn >= NUM_OPERAND_REGS:
            return None
        return Instruction(op, rn=rn, imm=imm16)
    if fmt == "b":
        offset = word & 0xFFFFFF
        if offset & 0x800000:
            offset -= 1 << 24
        return Instruction(op, imm=offset)
    if fmt == "svc":
        return Instruction(op, imm=word & 0xFFFFFF)
    if fmt == "none":
        return Instruction(op)
    return None  # pragma: no cover - exhaustive over formats


def condition_passes(op: str, n: bool, z: bool, c: bool, v: bool) -> bool:
    """Evaluate a conditional branch's condition against the NZCV flags."""
    if op == "beq":
        return z
    if op == "bne":
        return not z
    if op == "blt":
        return n != v
    if op == "bge":
        return n == v
    if op == "bgt":
        return not z and n == v
    if op == "ble":
        return z or n != v
    if op == "bcs":
        return c
    if op == "bcc":
        return not c
    raise EncodingError(f"{op!r} is not a conditional branch")
