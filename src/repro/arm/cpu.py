"""User-mode execution engines.

Runs enclave code on the simulated machine: each instruction is fetched
through the enclave's page tables (rooted at TTBR0), decoded, executed,
and charged cycles.  Execution continues until an *exception*: a
supervisor call, a translation/permission fault (data or prefetch abort),
an undefined instruction, or an injected interrupt.  The CPU then
performs architectural exception entry — banking the return address into
the target mode's LR and the CPSR into its SPSR — and reports the
exception to the caller (the monitor's exception-handler state machine,
paper Figure 3).

Three engines implement the same architecture (DESIGN.md, "Fast-path
engine" and "Turbo engine"):

* ``CPU(state, engine="reference")`` — the reference interpreter.  Every
  fetch re-walks the page tables and re-decodes the instruction word;
  per-op handlers come from a dispatch table built out of the
  ``arm.instructions`` format metadata.

* ``CPU(state, engine="fast")`` (the default) — layers two
  microarchitectural caches on top: a decoded-instruction cache keyed by
  physical address and validated against ``PhysicalMemory.generation``,
  and a micro-TLB keyed by virtual page and validated against
  ``TLB.version``.  Both live in ``MachineState.uarch``: snapshots
  never capture them, and every restore starts them cold.

* ``CPU(state, engine="turbo")`` — compiles straight-line basic blocks
  into single Python functions (``arm.blocks``) and dispatches whole
  blocks, with one interrupt-window check and one cycle-accounting
  flush per block; it inherits the fast engine's caches for its
  single-step fallback and reuses the same invalidation contracts.
  Its block cache and chain links start cold after a restore too; only
  the content-keyed compile memo under them (``uarch.compiled``) is
  kept, so unchanged code skips ``compile()`` but nothing else.

The default tier is ``fast`` (``DEFAULT_ENGINE``); ``CPU(engine=...)``
and ``KomodoMonitor(cpu_engine=...)`` select another.  The engines
share one table of operand semantics, so an instruction means the same
thing in all of them by construction; the differential test suite
(tests/arm/test_engine_differential.py) checks the rest — cycle
counts, access traces, faults — is bit-identical too.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.arm.bits import (
    add_wrap,
    asr,
    get_bit,
    lsl,
    lsr,
    sub_wrap,
    to_signed,
    to_word,
)
from repro.arm.bits import ror as ror_word
from repro.arm import blocks as _blocks
from repro.arm.instructions import (
    CONDITIONAL_BRANCHES,
    FORMATS,
    Instruction,
    condition_passes,
    decode,
)
from repro.arm.machine import MachineState
from repro.arm.memory import WORDSIZE
from repro.arm.modes import EXCEPTION_MODE, ExceptionKind, Mode, bank_for
from repro.arm.pagetable import PageTableWalker
from repro.arm.registers import PSR

_M = 0xFFFFFFFF
_USR_BANK = bank_for(Mode.USR)

ENGINES = ("fast", "reference", "turbo")
DEFAULT_ENGINE = "fast"


class ExitReason(enum.Enum):
    """Why user-mode execution stopped."""

    SVC = "svc"
    IRQ = "irq"
    FIQ = "fiq"
    ABORT = "abort"
    UNDEFINED = "undefined"
    STEP_LIMIT = "step_limit"  # harness budget exhausted (not architectural)


_EXIT_TO_EXCEPTION = {
    ExitReason.SVC: ExceptionKind.SVC,
    ExitReason.IRQ: ExceptionKind.IRQ,
    ExitReason.FIQ: ExceptionKind.FIQ,
    ExitReason.ABORT: ExceptionKind.ABORT,
    ExitReason.UNDEFINED: ExceptionKind.UNDEFINED,
}


@dataclass
class ExecutionResult:
    """Outcome of a user-mode run."""

    reason: ExitReason
    svc_number: int = 0  # immediate of the SVC instruction, if any
    fault_address: int = 0  # faulting VA for aborts
    steps: int = 0  # instructions retired

    @property
    def exception(self) -> ExceptionKind:
        return _EXIT_TO_EXCEPTION[self.reason]


class _UserFault(Exception):
    def __init__(self, vaddr: int):
        super().__init__(f"user fault at {vaddr:#010x}")
        self.vaddr = vaddr


class _UserUndefined(Exception):
    pass


class CPU:
    """Interprets user-mode instruction streams against a MachineState.

    ``CPU(state)`` builds the engine named by ``engine`` (default: the
    fast path); ``CPU(state, engine="reference")`` builds the reference
    interpreter.  Both are instances of this class.
    """

    engine = "reference"

    def __new__(cls, state: MachineState = None, engine: Optional[str] = None):
        if cls is CPU:
            resolved = engine if engine is not None else DEFAULT_ENGINE
            if resolved == "fast":
                return super().__new__(FastCPU)
            if resolved == "turbo":
                return super().__new__(TurboCPU)
            if resolved != "reference":
                raise ValueError(f"unknown CPU engine {resolved!r} (expected one of {ENGINES})")
        return super().__new__(cls)

    def __init__(self, state: MachineState, engine: Optional[str] = None):
        self.state = state
        self.walker = PageTableWalker(state.memory)
        #: Optional microarchitectural observation trace.  When a list is
        #: attached, every fetch/load/store appends ("fetch"|"load"|
        #: "store", vaddr) — the address trace a cache-level attacker
        #: observes, used by the side-channel analyser.
        self.access_trace = None

    # -- translation -----------------------------------------------------

    def _translate(self, vaddr: int, write: bool, execute: bool) -> int:
        if self.state.ttbr0 is None:
            raise _UserFault(vaddr)
        translation = self.walker.walk(self.state.ttbr0, vaddr)
        if translation is None:
            raise _UserFault(vaddr)
        if write and not translation.writable:
            raise _UserFault(vaddr)
        if execute and not translation.executable:
            raise _UserFault(vaddr)
        if not write and not execute and not translation.readable:
            raise _UserFault(vaddr)
        return translation.phys_addr(vaddr)

    def _load(self, vaddr: int) -> int:
        if vaddr % WORDSIZE:
            raise _UserFault(vaddr)
        paddr = self._translate(vaddr, write=False, execute=False)
        if self.access_trace is not None:
            self.access_trace.append(("load", vaddr))
        self.state.charge(self.state.costs.mem_access)
        return self.state.memory.read_word(paddr)

    def _store(self, vaddr: int, value: int) -> int:
        if vaddr % WORDSIZE:
            raise _UserFault(vaddr)
        paddr = self._translate(vaddr, write=True, execute=False)
        if self.access_trace is not None:
            self.access_trace.append(("store", vaddr))
        self.state.charge(self.state.costs.mem_access)
        self.state.memory.write_word(paddr, value)
        # The physical address lets the turbo tier's compiled blocks
        # detect stores into their own span (self-modifying code).
        return paddr

    def _fetch(self, pc: int):
        if pc % WORDSIZE:
            raise _UserFault(pc)
        paddr = self._translate(pc, write=False, execute=True)
        if self.access_trace is not None:
            self.access_trace.append(("fetch", pc))
        word = self.state.memory.read_word(paddr)
        instr = decode(word)
        if instr is None:
            raise _UserUndefined()
        return instr

    # -- register operand helpers ------------------------------------------

    def _read_reg(self, index: int) -> int:
        regs = self.state.regs
        if index == 13:
            return regs.read_sp(Mode.USR)
        if index == 14:
            return regs.read_lr(Mode.USR)
        return regs.read_gpr(index)

    def _write_reg(self, index: int, value: int) -> None:
        regs = self.state.regs
        if index == 13:
            regs.write_sp(value, Mode.USR)
        elif index == 14:
            regs.write_lr(value, Mode.USR)
        else:
            regs.write_gpr(index, value)

    # -- flags -----------------------------------------------------------------

    def _set_flags_cmp(self, a: int, b: int) -> None:
        result = sub_wrap(a, b)
        cpsr = self.state.regs.cpsr
        cpsr.n = bool(get_bit(result, 31))
        cpsr.z = result == 0
        cpsr.c = a >= b  # no borrow
        cpsr.v = (to_signed(a) - to_signed(b)) != to_signed(result)

    def _set_flags_tst(self, a: int, b: int) -> None:
        result = a & b
        cpsr = self.state.regs.cpsr
        cpsr.n = bool(get_bit(result, 31))
        cpsr.z = result == 0

    # -- the run loop ---------------------------------------------------------

    def run(
        self,
        entry_pc: int,
        max_steps: int = 1_000_000,
        interrupt_after: Optional[int] = None,
    ) -> ExecutionResult:
        """Execute user-mode code from ``entry_pc`` until an exception.

        ``interrupt_after`` models the attacker-controlled external
        interrupt line: after that many retired instructions an IRQ is
        taken (interrupts are enabled during enclave execution).

        On return, architectural exception entry has been performed: the
        machine is in the exception's target mode, LR_<mode> holds the
        preferred return address and SPSR_<mode> the user-mode CPSR.
        """
        state = self.state
        if state.regs.cpsr.mode is not Mode.USR:
            raise RuntimeError("CPU.run requires user mode (use monitor entry paths)")
        state.tlb.require_consistent()
        pc = to_word(entry_pc)
        steps = 0
        while True:
            if interrupt_after is not None and steps >= interrupt_after:
                self._exception_entry(ExceptionKind.IRQ, pc)
                return ExecutionResult(ExitReason.IRQ, steps=steps)
            if steps >= max_steps:
                # Harness budget: modelled as an interrupt so the monitor
                # path is identical to a timer interrupt firing.
                self._exception_entry(ExceptionKind.IRQ, pc)
                return ExecutionResult(ExitReason.STEP_LIMIT, steps=steps)
            try:
                next_pc, svc = self._execute(self._fetch(pc), pc)
            except _UserFault as fault:
                self._exception_entry(ExceptionKind.ABORT, pc)
                return ExecutionResult(
                    ExitReason.ABORT, fault_address=fault.vaddr, steps=steps
                )
            except _UserUndefined:
                self._exception_entry(ExceptionKind.UNDEFINED, pc)
                return ExecutionResult(ExitReason.UNDEFINED, steps=steps)
            steps += 1
            state.charge(state.costs.instruction)
            if svc is not None:
                self._exception_entry(ExceptionKind.SVC, add_wrap(pc, WORDSIZE))
                return ExecutionResult(ExitReason.SVC, svc_number=svc, steps=steps)
            pc = next_pc

    def _execute(self, instr: Instruction, pc: int):
        """Execute one instruction; returns (next_pc, svc_number_or_None)."""
        handler = _DISPATCH.get(instr.op)
        if handler is None:  # pragma: no cover - decode only produces known ops
            raise _UserUndefined()
        return handler(self, instr, pc)

    # -- exception entry ------------------------------------------------------

    def _exception_entry(self, kind: ExceptionKind, return_pc: int) -> None:
        """Architectural exception entry from user mode.

        Banks the return address in LR_<mode> and the user CPSR in
        SPSR_<mode>, switches mode, and masks interrupts — the side
        effects the paper's model singles out as crucial (section 5.1).
        """
        state = self.state
        target = EXCEPTION_MODE[kind]
        user_cpsr = state.regs.cpsr.copy()
        state.regs.write_spsr(user_cpsr, target)
        state.regs.write_lr(return_pc, target)
        state.regs.cpsr = PSR(mode=target, irq_masked=True, fiq_masked=True)
        state.charge(state.costs.exception_entry)


# ---------------------------------------------------------------------------
# Operand semantics, shared by both engines
# ---------------------------------------------------------------------------

#: rrr-format ALU semantics: (rn_value, rm_value) -> rd_value.  ``rsb``
#: is reverse subtract; register shift amounts use the low byte, as on ARM.
_ALU_RRR: Dict[str, Callable[[int, int], int]] = {
    "add": lambda a, b: (a + b) & _M,
    "sub": lambda a, b: (a - b) & _M,
    "rsb": lambda a, b: (b - a) & _M,
    "and": lambda a, b: a & b,
    "orr": lambda a, b: a | b,
    "eor": lambda a, b: a ^ b,
    "bic": lambda a, b: a & ~b & _M,
    "mul": lambda a, b: (a * b) & _M,
    "lsl": lambda a, b: lsl(a, b & 0xFF),
    "lsr": lambda a, b: lsr(a, b & 0xFF),
    "asr": lambda a, b: asr(a, b & 0xFF),
    "ror": lambda a, b: ror_word(a, b & 0xFF),
}

#: rri-format ALU semantics: (rn_value, imm16) -> rd_value.
_ALU_RRI: Dict[str, Callable[[int, int], int]] = {
    "addi": lambda a, imm: (a + imm) & _M,
    "subi": lambda a, imm: (a - imm) & _M,
    "lsli": lsl,
    "lsri": lsr,
    "asri": asr,
}

#: rr-format ALU semantics: rm_value -> rd_value.
_ALU_RR: Dict[str, Callable[[int], int]] = {
    "mov": lambda a: a,
    "mvn": lambda a: ~a & _M,
}

#: Conditional-branch predicates over the CPSR (same truth table as
#: instructions.condition_passes; a property test pins the equivalence).
_CONDITIONS: Dict[str, Callable[[PSR], bool]] = {
    "beq": lambda p: p.z,
    "bne": lambda p: not p.z,
    "blt": lambda p: p.n != p.v,
    "bge": lambda p: p.n == p.v,
    "bgt": lambda p: not p.z and p.n == p.v,
    "ble": lambda p: p.z or p.n != p.v,
    "bcs": lambda p: p.c,
    "bcc": lambda p: not p.c,
}
assert set(_CONDITIONS) == set(CONDITIONAL_BRANCHES)


# ---------------------------------------------------------------------------
# Reference dispatch table (Instruction-driven handlers)
# ---------------------------------------------------------------------------


def _ref_rrr(sem):
    def handler(cpu, instr, pc):
        cpu._write_reg(instr.rd, sem(cpu._read_reg(instr.rn), cpu._read_reg(instr.rm)))
        return (pc + WORDSIZE) & _M, None

    return handler


def _ref_rri(sem):
    def handler(cpu, instr, pc):
        cpu._write_reg(instr.rd, sem(cpu._read_reg(instr.rn), instr.imm))
        return (pc + WORDSIZE) & _M, None

    return handler


def _ref_rr(sem):
    def handler(cpu, instr, pc):
        cpu._write_reg(instr.rd, sem(cpu._read_reg(instr.rm)))
        return (pc + WORDSIZE) & _M, None

    return handler


def _ref_movw(cpu, instr, pc):
    cpu._write_reg(instr.rd, instr.imm)
    return (pc + WORDSIZE) & _M, None


def _ref_movt(cpu, instr, pc):
    cpu._write_reg(instr.rd, (cpu._read_reg(instr.rd) & 0xFFFF) | (instr.imm << 16))
    return (pc + WORDSIZE) & _M, None


def _ref_cmp(cpu, instr, pc):
    cpu._set_flags_cmp(cpu._read_reg(instr.rn), cpu._read_reg(instr.rm))
    return (pc + WORDSIZE) & _M, None


def _ref_cmpi(cpu, instr, pc):
    cpu._set_flags_cmp(cpu._read_reg(instr.rn), instr.imm)
    return (pc + WORDSIZE) & _M, None


def _ref_tst(cpu, instr, pc):
    cpu._set_flags_tst(cpu._read_reg(instr.rn), cpu._read_reg(instr.rm))
    return (pc + WORDSIZE) & _M, None


def _ref_ldr(cpu, instr, pc):
    cpu._write_reg(instr.rd, cpu._load((cpu._read_reg(instr.rn) + instr.imm) & _M))
    return (pc + WORDSIZE) & _M, None


def _ref_str(cpu, instr, pc):
    cpu._store((cpu._read_reg(instr.rn) + instr.imm) & _M, cpu._read_reg(instr.rd))
    return (pc + WORDSIZE) & _M, None


def _ref_ldrr(cpu, instr, pc):
    cpu._write_reg(
        instr.rd, cpu._load((cpu._read_reg(instr.rn) + cpu._read_reg(instr.rm)) & _M)
    )
    return (pc + WORDSIZE) & _M, None


def _ref_strr(cpu, instr, pc):
    cpu._store(
        (cpu._read_reg(instr.rn) + cpu._read_reg(instr.rm)) & _M, cpu._read_reg(instr.rd)
    )
    return (pc + WORDSIZE) & _M, None


def _ref_b(cpu, instr, pc):
    cpu.state.charge(cpu.state.costs.branch)
    return (pc + (instr.imm + 1) * WORDSIZE) & _M, None


def _ref_cond(cpu, instr, pc):
    cpsr = cpu.state.regs.cpsr
    if condition_passes(instr.op, cpsr.n, cpsr.z, cpsr.c, cpsr.v):
        cpu.state.charge(cpu.state.costs.branch)
        return (pc + (instr.imm + 1) * WORDSIZE) & _M, None
    return (pc + WORDSIZE) & _M, None


def _ref_bl(cpu, instr, pc):
    cpu._write_reg(14, (pc + WORDSIZE) & _M)
    cpu.state.charge(cpu.state.costs.branch)
    return (pc + (instr.imm + 1) * WORDSIZE) & _M, None


def _ref_bxlr(cpu, instr, pc):
    cpu.state.charge(cpu.state.costs.branch)
    return cpu._read_reg(14), None


def _ref_svc(cpu, instr, pc):
    return (pc + WORDSIZE) & _M, instr.imm


def _ref_nop(cpu, instr, pc):
    return (pc + WORDSIZE) & _M, None


def _ref_undefined(cpu, instr, pc):
    # SMC from user mode is undefined, as on real hardware; so is udf.
    raise _UserUndefined()


def _build_dispatch() -> Dict[str, Callable]:
    table: Dict[str, Callable] = {}
    for op in FORMATS:
        if op in _ALU_RRR:
            table[op] = _ref_rrr(_ALU_RRR[op])
        elif op in _ALU_RRI:
            table[op] = _ref_rri(_ALU_RRI[op])
        elif op in _ALU_RR:
            table[op] = _ref_rr(_ALU_RR[op])
        elif op in _CONDITIONS:
            table[op] = _ref_cond
    table.update(
        movw=_ref_movw,
        movt=_ref_movt,
        cmp=_ref_cmp,
        cmpi=_ref_cmpi,
        tst=_ref_tst,
        ldr=_ref_ldr,
        str=_ref_str,
        ldrr=_ref_ldrr,
        strr=_ref_strr,
        b=_ref_b,
        bl=_ref_bl,
        bxlr=_ref_bxlr,
        svc=_ref_svc,
        nop=_ref_nop,
        udf=_ref_undefined,
        smc=_ref_undefined,
    )
    missing = set(FORMATS) - set(table)
    if missing:  # pragma: no cover - completeness checked at import
        raise AssertionError(f"no dispatch handler for {sorted(missing)}")
    return table


_DISPATCH = _build_dispatch()


# ---------------------------------------------------------------------------
# Fast engine: compiled micro-ops + decode cache + micro-TLB
# ---------------------------------------------------------------------------


def _reader(index: int):
    """A regs -> value closure for one operand register."""
    if index == 13:
        return lambda regs: regs.sp_bank[_USR_BANK]
    if index == 14:
        return lambda regs: regs.lr_bank[_USR_BANK]

    def read(regs, _i=index):
        return regs.gprs[_i]

    return read


def _writer(index: int):
    """A (regs, value) -> None closure for one destination register.

    Values produced by the semantic tables are already 32-bit masked, so
    the writer stores them directly into the banked register file.
    """
    if index == 13:

        def write_sp(regs, value):
            regs.sp_bank[_USR_BANK] = value

        return write_sp
    if index == 14:

        def write_lr(regs, value):
            regs.lr_bank[_USR_BANK] = value

        return write_lr

    def write(regs, value, _i=index):
        regs.gprs[_i] = value

    return write


def _compile_rrr(sem):
    def compiler(instr):
        rn, rm, wd = _reader(instr.rn), _reader(instr.rm), _writer(instr.rd)

        def fn(cpu, pc):
            regs = cpu.state.regs
            wd(regs, sem(rn(regs), rm(regs)))
            return (pc + WORDSIZE) & _M, None

        return fn

    return compiler


def _compile_rri(sem):
    def compiler(instr):
        rn, wd, imm = _reader(instr.rn), _writer(instr.rd), instr.imm

        def fn(cpu, pc):
            regs = cpu.state.regs
            wd(regs, sem(rn(regs), imm))
            return (pc + WORDSIZE) & _M, None

        return fn

    return compiler


def _compile_rr(sem):
    def compiler(instr):
        rm, wd = _reader(instr.rm), _writer(instr.rd)

        def fn(cpu, pc):
            regs = cpu.state.regs
            wd(regs, sem(rm(regs)))
            return (pc + WORDSIZE) & _M, None

        return fn

    return compiler


def _compile_movw(instr):
    wd, imm = _writer(instr.rd), instr.imm

    def fn(cpu, pc):
        wd(cpu.state.regs, imm)
        return (pc + WORDSIZE) & _M, None

    return fn


def _compile_movt(instr):
    rd, wd, high = _reader(instr.rd), _writer(instr.rd), instr.imm << 16

    def fn(cpu, pc):
        regs = cpu.state.regs
        wd(regs, (rd(regs) & 0xFFFF) | high)
        return (pc + WORDSIZE) & _M, None

    return fn


def _compile_cmp(instr):
    rn, rm = _reader(instr.rn), _reader(instr.rm)

    def fn(cpu, pc):
        regs = cpu.state.regs
        cpu._set_flags_cmp(rn(regs), rm(regs))
        return (pc + WORDSIZE) & _M, None

    return fn


def _compile_cmpi(instr):
    rn, imm = _reader(instr.rn), instr.imm

    def fn(cpu, pc):
        cpu._set_flags_cmp(rn(cpu.state.regs), imm)
        return (pc + WORDSIZE) & _M, None

    return fn


def _compile_tst(instr):
    rn, rm = _reader(instr.rn), _reader(instr.rm)

    def fn(cpu, pc):
        regs = cpu.state.regs
        cpu._set_flags_tst(rn(regs), rm(regs))
        return (pc + WORDSIZE) & _M, None

    return fn


def _compile_ldr(instr):
    rn, wd, imm = _reader(instr.rn), _writer(instr.rd), instr.imm

    def fn(cpu, pc):
        regs = cpu.state.regs
        wd(regs, cpu._load((rn(regs) + imm) & _M))
        return (pc + WORDSIZE) & _M, None

    return fn


def _compile_str(instr):
    rn, rd, imm = _reader(instr.rn), _reader(instr.rd), instr.imm

    def fn(cpu, pc):
        regs = cpu.state.regs
        cpu._store((rn(regs) + imm) & _M, rd(regs))
        return (pc + WORDSIZE) & _M, None

    return fn


def _compile_ldrr(instr):
    rn, rm, wd = _reader(instr.rn), _reader(instr.rm), _writer(instr.rd)

    def fn(cpu, pc):
        regs = cpu.state.regs
        wd(regs, cpu._load((rn(regs) + rm(regs)) & _M))
        return (pc + WORDSIZE) & _M, None

    return fn


def _compile_strr(instr):
    rn, rm, rd = _reader(instr.rn), _reader(instr.rm), _reader(instr.rd)

    def fn(cpu, pc):
        regs = cpu.state.regs
        cpu._store((rn(regs) + rm(regs)) & _M, rd(regs))
        return (pc + WORDSIZE) & _M, None

    return fn


def _compile_b(instr):
    delta = (instr.imm + 1) * WORDSIZE

    def fn(cpu, pc):
        state = cpu.state
        state.charge(state.costs.branch)
        return (pc + delta) & _M, None

    return fn


def _compile_cond(instr):
    delta = (instr.imm + 1) * WORDSIZE
    cond = _CONDITIONS[instr.op]

    def fn(cpu, pc):
        state = cpu.state
        if cond(state.regs.cpsr):
            state.charge(state.costs.branch)
            return (pc + delta) & _M, None
        return (pc + WORDSIZE) & _M, None

    return fn


def _compile_bl(instr):
    delta = (instr.imm + 1) * WORDSIZE
    wlr = _writer(14)

    def fn(cpu, pc):
        state = cpu.state
        wlr(state.regs, (pc + WORDSIZE) & _M)
        state.charge(state.costs.branch)
        return (pc + delta) & _M, None

    return fn


def _compile_bxlr(instr):
    rlr = _reader(14)

    def fn(cpu, pc):
        state = cpu.state
        state.charge(state.costs.branch)
        return rlr(state.regs), None

    return fn


def _compile_svc(instr):
    svc_number = instr.imm

    def fn(cpu, pc):
        return (pc + WORDSIZE) & _M, svc_number

    return fn


def _compile_nop(instr):
    def fn(cpu, pc):
        return (pc + WORDSIZE) & _M, None

    return fn


def _compile_undefined(instr):
    def fn(cpu, pc):
        raise _UserUndefined()

    return fn


def _build_compilers() -> Dict[str, Callable[[Instruction], Callable]]:
    table: Dict[str, Callable[[Instruction], Callable]] = {}
    for op in FORMATS:
        if op in _ALU_RRR:
            table[op] = _compile_rrr(_ALU_RRR[op])
        elif op in _ALU_RRI:
            table[op] = _compile_rri(_ALU_RRI[op])
        elif op in _ALU_RR:
            table[op] = _compile_rr(_ALU_RR[op])
        elif op in _CONDITIONS:
            table[op] = _compile_cond
    table.update(
        movw=_compile_movw,
        movt=_compile_movt,
        cmp=_compile_cmp,
        cmpi=_compile_cmpi,
        tst=_compile_tst,
        ldr=_compile_ldr,
        str=_compile_str,
        ldrr=_compile_ldrr,
        strr=_compile_strr,
        b=_compile_b,
        bl=_compile_bl,
        bxlr=_compile_bxlr,
        svc=_compile_svc,
        nop=_compile_nop,
        udf=_compile_undefined,
        smc=_compile_undefined,
    )
    missing = set(FORMATS) - set(table)
    if missing:  # pragma: no cover - completeness checked at import
        raise AssertionError(f"no fast-path compiler for {sorted(missing)}")
    return table


_COMPILERS = _build_compilers()


class FastCPU(CPU):
    """The fast-path engine: micro-TLB + decoded-instruction cache.

    Architectural behaviour is identical to the reference engine; the
    caches live in ``state.uarch`` and are invalidated by the contracts
    described in DESIGN.md ("Fast-path engine"):

    * translations are reused only while ``TLB.version`` is unchanged —
      every flush, TTBR load, and consistency-poisoning store bumps it;
    * decoded instructions are reused only while
      ``PhysicalMemory.generation`` is unchanged; on a generation miss
      the instruction word is re-read and re-validated, so self-modifying
      code re-decodes exactly where the reference engine would see the
      new word.
    """

    engine = "fast"

    def __init__(self, state: MachineState, engine: Optional[str] = None):
        super().__init__(state)

    def _translate(self, vaddr: int, write: bool, execute: bool) -> int:
        state = self.state
        uarch = state.uarch
        if uarch.utlb_version != state.tlb.version:
            uarch.utlb = {}
            uarch.utlb_version = state.tlb.version
        translation = uarch.utlb.get(vaddr >> 12)
        if translation is None:
            if state.ttbr0 is None:
                raise _UserFault(vaddr)
            translation = self.walker.walk(state.ttbr0, vaddr)
            if translation is None:
                # Failed walks are never cached: the fault is re-derived
                # from the live tables every time, like the reference.
                raise _UserFault(vaddr)
            uarch.utlb[vaddr >> 12] = translation
        if write and not translation.writable:
            raise _UserFault(vaddr)
        if execute and not translation.executable:
            raise _UserFault(vaddr)
        if not write and not execute and not translation.readable:
            raise _UserFault(vaddr)
        return translation.phys_base | (vaddr & 0xFFF)

    def _fetch(self, pc: int):
        if pc % WORDSIZE:
            raise _UserFault(pc)
        paddr = self._translate(pc, write=False, execute=True)
        if self.access_trace is not None:
            self.access_trace.append(("fetch", pc))
        memory = self.state.memory
        icache = self.state.uarch.icache
        entry = icache.get(paddr)
        if entry is not None:
            if entry[0] == memory.generation:
                return entry[2]
            # Some store happened since this entry was cached; re-read
            # the word.  If it is unchanged the micro-op is still good.
            word = memory.read_word(paddr)
            if word == entry[1]:
                entry[0] = memory.generation
                return entry[2]
        else:
            word = memory.read_word(paddr)
        instr = decode(word)
        if instr is None:
            raise _UserUndefined()
        fn = _COMPILERS[instr.op](instr)
        icache[paddr] = [memory.generation, word, fn]
        return fn

    def _execute(self, instr, pc: int):
        if instr.__class__ is Instruction:
            # Direct calls (tests, tools) hand us a decoded Instruction;
            # route it through the shared dispatch table.
            return CPU._execute(self, instr, pc)
        return instr(self, pc)


# ---------------------------------------------------------------------------
# Turbo engine: basic-block compilation on top of the fast engine
# ---------------------------------------------------------------------------


class TurboCPU(FastCPU):
    """The turbo tier: compiled basic blocks dispatched whole.

    Straight-line instruction runs are compiled once (``arm.blocks``)
    and then executed as a single Python call, with registers and flags
    in locals.  Architectural behaviour is identical to the reference
    engine:

    * asynchronous exceptions (``interrupt_after``, ``max_steps``) are
      delivered at exactly the reference engine's instruction
      boundaries — a block is only dispatched when it fits entirely
      inside the remaining window, otherwise execution falls back to
      single-stepping through the inherited fast-engine path;
    * a mid-block data abort retires exactly the instructions before
      the faulting one (``cpu._retired``, maintained by the generated
      code) and flushes their register/flag/cycle effects;
    * stores re-check ``TLB.version`` and the block's own physical span
      and bail out to the dispatch loop when stale, so self-modifying
      code and translation changes behave as under single-step;
    * the block cache is validated against ``PhysicalMemory.generation``
      with word-compare revalidation and bounded by an LRU cap
      (``blocks.BLOCK_CACHE_CAP``).
    """

    engine = "turbo"

    def __init__(self, state: MachineState, engine: Optional[str] = None):
        super().__init__(state)
        #: Instructions retired by the innermost compiled-block call and
        #: the faulting instruction's offset within its last loop
        #: iteration; written by generated code in its ``finally`` flush.
        self._retired = 0
        self._fault_off = 0

    def _store(self, vaddr: int, value: int) -> int:
        # Chain-link maintenance: a store that may rewrite a compiled
        # block's words invalidates every block-to-block chain link
        # (the links skip per-dispatch revalidation).  Inline stores in
        # generated code perform the same check themselves.
        paddr = super()._store(vaddr, value)
        uarch = self.state.uarch
        if paddr >> 12 in uarch.code_pages:
            uarch.chain_gen += 1
        return paddr

    def run(
        self,
        entry_pc: int,
        max_steps: int = 1_000_000,
        interrupt_after: Optional[int] = None,
    ) -> ExecutionResult:
        state = self.state
        if state.regs.cpsr.mode is not Mode.USR:
            raise RuntimeError("CPU.run requires user mode (use monitor entry paths)")
        state.tlb.require_consistent()
        pc = to_word(entry_pc)
        steps = 0
        # Hot-loop locals.  The one-entry fetch-translation cache
        # (vpage/pbase, guarded by TLB.version) and the inline block
        # lookup shave two dict probes off every block dispatch; both
        # fall back to the full paths on any miss or version change.
        tlb = state.tlb
        memory = state.memory
        uarch = state.uarch
        bcache = uarch.bcache
        cap = _blocks.BLOCK_CACHE_CAP
        traced = self.access_trace is not None
        fslot = 6 if traced else 2  # blocks._FNT / blocks._FN
        # Chain-stamp sync: anything may have mutated memory since the
        # last run (monitor page operations, injected bit flips).  One
        # conservative chain_gen bump severs every recorded link; the
        # slow dispatch path below re-validates and re-stamps them.
        if memory.generation != uarch.chain_memgen:
            uarch.chain_gen += 1
            uarch.chain_memgen = memory.generation
        last_vpage = -1
        last_pbase = 0
        last_tv = -1
        # The last block whose exit pc had no (valid) chain link yet:
        # once the successor block for that pc is resolved, record the
        # link so the next dispatch hops directly.
        pred = None
        pred_key = 0
        while True:
            if interrupt_after is not None and steps >= interrupt_after:
                self._exception_entry(ExceptionKind.IRQ, pc)
                return ExecutionResult(ExitReason.IRQ, steps=steps)
            if steps >= max_steps:
                self._exception_entry(ExceptionKind.IRQ, pc)
                return ExecutionResult(ExitReason.STEP_LIMIT, steps=steps)
            entry = None
            budget = 0
            if not pc & 3:
                tv = tlb.version
                vpage = pc >> 12
                if vpage == last_vpage and tv == last_tv:
                    paddr = last_pbase | (pc & 0xFFF)
                else:
                    try:
                        paddr = self._translate(pc, write=False, execute=True)
                    except _UserFault as fault:
                        self._exception_entry(ExceptionKind.ABORT, pc)
                        return ExecutionResult(
                            ExitReason.ABORT, fault_address=fault.vaddr, steps=steps
                        )
                    last_vpage = vpage
                    last_pbase = paddr & ~0xFFF
                    last_tv = tv
                entry = bcache.get(paddr)
                if (
                    entry is None
                    or entry[0] != memory.generation
                    or (traced and entry[6] is None)
                ):
                    entry = _blocks.lookup(self, paddr, traced)
                elif 2 * len(bcache) >= cap and next(reversed(bcache)) != paddr:
                    bcache[paddr] = bcache.pop(paddr)  # LRU touch
                budget = max_steps - steps
                if interrupt_after is not None:
                    window = interrupt_after - steps
                    if window < budget:
                        budget = window
                if entry is not None and entry[3] > budget:
                    # The block would run through an asynchronous
                    # exception boundary; single-step up to it instead.
                    entry = None
            if entry is not None:
                if pred is not None:
                    if pc == pred_key:
                        _blocks.link(pred, pred_key, entry, tlb.version, uarch.chain_gen)
                    pred = None
                # Chained dispatch: after each block returns, follow its
                # recorded link for the produced pc directly — skipping
                # translation, cache probe, and revalidation — as long
                # as the link's TLB.version/chain_gen stamps are current
                # and the successor fits the remaining exception window.
                while True:
                    self._retired = 0
                    try:
                        next_pc, svc = entry[fslot](self, pc, budget)
                    except _UserFault as fault:
                        steps += self._retired
                        self._exception_entry(
                            ExceptionKind.ABORT,
                            (pc + self._fault_off * WORDSIZE) & _M,
                        )
                        return ExecutionResult(
                            ExitReason.ABORT, fault_address=fault.vaddr, steps=steps
                        )
                    steps += self._retired
                    if svc is not None:
                        self._exception_entry(ExceptionKind.SVC, next_pc)
                        return ExecutionResult(
                            ExitReason.SVC, svc_number=svc, steps=steps
                        )
                    pc = next_pc
                    link = entry[4].get(pc)  # blocks._CHAIN
                    if (
                        link is None
                        or link[1] != tlb.version
                        or link[2] != uarch.chain_gen
                    ):
                        pred = entry
                        pred_key = pc
                        break
                    succ = link[0]
                    budget = max_steps - steps
                    if interrupt_after is not None:
                        window = interrupt_after - steps
                        if window < budget:
                            budget = window
                    if succ[3] > budget or succ[fslot] is None:
                        pred = entry
                        pred_key = pc
                        break
                    entry = succ
                continue
            # Single-step fallback: misaligned pc, an op the block
            # compiler excludes (udf/smc), or a block longer than the
            # remaining interrupt/step window.  Uses the inherited
            # fast-engine fetch/execute path, which matches the
            # reference loop instruction for instruction.
            try:
                next_pc, svc = self._execute(self._fetch(pc), pc)
            except _UserFault as fault:
                self._exception_entry(ExceptionKind.ABORT, pc)
                return ExecutionResult(
                    ExitReason.ABORT, fault_address=fault.vaddr, steps=steps
                )
            except _UserUndefined:
                self._exception_entry(ExceptionKind.UNDEFINED, pc)
                return ExecutionResult(ExitReason.UNDEFINED, steps=steps)
            steps += 1
            state.charge(state.costs.instruction)
            if svc is not None:
                self._exception_entry(ExceptionKind.SVC, add_wrap(pc, WORDSIZE))
                return ExecutionResult(ExitReason.SVC, svc_number=svc, steps=steps)
            pc = next_pc
