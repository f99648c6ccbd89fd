"""Basic-block and region compiler for the turbo execution tier (v2).

The fast engine (``cpu.FastCPU``) removed page-table walks and decode
work from the hot loop but still pays one Python dispatch — closure
call, trace check, step/cycle bookkeeping, two ``try`` frames — per
instruction.  The turbo tier removes that too: straight-line runs of
instructions are discovered at their first execution and compiled into
a single Python function whose body chains the operand semantics of
every instruction in the run, with register values and NZCV flags held
in Python locals.  One call then retires many instructions.

Turbo v2 (DESIGN.md, "Turbo engine") adds three layers on top of the
original per-block compiler, all bit-identical to the reference engine:

* **Region compilation** — a compiled unit is no longer one basic
  block but the set of blocks inside one physical page reachable from
  the entry through *static* branch targets.  Intra-region control
  flow (loop back-edges, if/else diamonds, in-page calls) becomes a
  label hop inside one generated function — registers and flags stay
  in locals across it — and the dispatch loop is re-entered only at
  region exits (``bxlr``, ``svc``, cross-page branches) and at
  interrupt-window/step-budget boundaries.  Each hop first checks that
  the target leg fits the remaining budget (passed in as an argument),
  so asynchronous exceptions are delivered at exactly the block
  boundaries the per-block dispatcher would have used.

* **Inline memory fast paths** — when the machine's memory is exactly
  ``PhysicalMemory`` (never ``EncryptedMemory``, whose per-word
  keystream and tags must not be bypassed), loads and stores hit the
  flat word store directly through the micro-TLB, falling back to the
  engine's ``_load``/``_store`` helpers for misses, faults, and
  unmapped physical targets.  Cycle charges and ``memory.generation``
  bumps are accumulated in locals and flushed in the ``finally``
  block — they are observable only between runs, so deferral is
  invisible.

* **Untraced/traced variants** — regions compiled for a CPU without an
  ``access_trace`` omit trace bookkeeping entirely; attaching a trace
  selects (and lazily compiles) a traced variant of the same region
  that appends the same ``fetch``/``load``/``store`` entries as the
  reference engine, instruction by instruction.

Block discovery is unchanged from v1: a block stops at any
*unconditional* control transfer (``b``/``bl``/``bxlr``), at ``svc``
(exception exit), before any op that is undefined from user mode
(``udf``/``smc``), and at a page boundary.  Conditional branches
compile into side exits (or intra-region hops).

Why regions never outrun the page tables: every instruction of a
region lies in the entry's physical page, and a pc's offset within its
virtual page always equals its offset within the translated physical
page, so an intra-region hop stays under the *same* translation the
dispatcher validated at region entry.  Translations can only change
via a store into the live page-table footprint, and every such store
bails out of the region at once (the ``TLB.version`` re-check below).

Cycle accuracy: the generated code charges ``costs.instruction`` once
per *retired* instruction and branch/memory costs at the same program
points as the reference interpreter, all flushed in the ``finally``
block.  If a load or store faults mid-region, the flush writes back
exactly the registers and flags of the instructions that completed,
and ``cpu._fault_off`` holds the faulting instruction's word offset
from the entry pc so the abort return address matches single-step
execution.

Invalidation reuses the fast engine's machinery:

* ``PhysicalMemory.generation`` — a compiled region caches the words
  it was built from; on a generation mismatch the words are re-read
  and compared, so self-modifying code rebuilds exactly where the
  reference engine would see new words.
* ``TLB.version`` — a store inside a region re-checks the version and
  the region's own physical page, and bails out to the dispatch loop
  if either may be stale (an architecturally invisible early exit: the
  loop refetches through the live page tables, faulting where the
  reference engine would).

The block cache lives in ``MachineState.uarch.bcache`` (never captured
by snapshots, emptied by every restore) and is bounded by
``BLOCK_CACHE_CAP`` with LRU eviction.  Every region exit returns to
the dispatch loop (``cpu.TurboCPU.run``), which translates the next pc
and finds its region through ``lookup``, so a region runs only after
this validation.

Under the block cache's miss path sits a per-machine compile memo,
``uarch.compiled`` (``_compiled``), which restores keep.  It maps the
content a region's generated source and namespace depend on — entry
address, traced variant, validation-span offset and words, member
layout — to the compiled function, so a restored machine running the
same code again still discovers and revalidates it, and skips only
``compile()``.  Rewritten or recycled code is a different key.  A
function that bakes the inline memory path is served only to the
machine whose memory it baked (a deep copy's memo holds the donor's
functions).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.arm.bits import asr, lsl, lsr
from repro.arm.instructions import (
    BRANCH_OPS,
    CONDITIONAL_BRANCHES,
    FORMATS,
    Instruction,
    decode,
)
from repro.arm.memory import (
    PAGE_SIZE,
    MemoryFault,
    PhysicalMemory,
    StampMemo,
    WORDSIZE,
)
from repro.arm.modes import Mode, bank_for

_M = 0xFFFFFFFF
_USR_BANK = bank_for(Mode.USR)

#: Ops that end a basic block: control *unconditionally* leaves the
#: straight line.  Conditional branches compile into side exits instead.
TERMINATORS = frozenset({"b", "bl", "bxlr", "svc"})
#: Ops never compiled into a block: undefined from user mode, handled
#: by the single-step path so exception entry has one implementation.
EXCLUDED = frozenset({"udf", "smc"})

#: LRU bound on compiled regions per machine (``uarch.bcache``).
BLOCK_CACHE_CAP = 2048

#: Bound on basic blocks merged into one compiled region (a page can
#: hold more only with heavily overlapping decode starts).
REGION_BLOCK_CAP = 48

#: Bound on the region-discovery memo: one entry per (entry address,
#: page stamp) pair, shared by every machine in the process.
REGION_MEMO_SIZE = 1024

#: Conditional-branch predicates over the flag locals (same truth table
#: as cpu._CONDITIONS, restated over ``fn_``/``fz_``/``fc_``/``fv_``).
_COND_EXPR = {
    "beq": "fz_",
    "bne": "not fz_",
    "blt": "fn_ != fv_",
    "bge": "fn_ == fv_",
    "bgt": "not fz_ and fn_ == fv_",
    "ble": "fz_ or fn_ != fv_",
    "bcs": "fc_",
    "bcc": "not fc_",
}
assert set(_COND_EXPR) == set(CONDITIONAL_BRANCHES)

#: Globals visible to generated region bodies.
_CODEGEN_GLOBALS = {
    "_USRB": _USR_BANK,
    "_lsl": lsl,
    "_lsr": lsr,
    "_asr": asr,
}

_FLAG_SETTERS = frozenset({"cmp", "cmpi", "tst"})


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------


def _read_line(memory: PhysicalMemory, paddr: int, count: int) -> List[int]:
    """Read up to ``count`` words at ``paddr``, truncating at the first
    unreadable word.

    Discovery reads ahead of execution, so it may touch words the
    program never reaches; ``EncryptedMemory`` raises on tampered words
    the reference engine would never read.  Truncating keeps those words
    out of the block — execution then reaches them (or not) through the
    single-step path, faulting exactly where the reference does.
    """
    try:
        return memory.read_words(paddr, count)
    except MemoryFault:
        words: List[int] = []
        for i in range(count):
            try:
                words.append(memory.read_word(paddr + i * WORDSIZE))
            except MemoryFault:
                break
        return words


def discover(
    memory: PhysicalMemory, paddr: int
) -> Tuple[List[Instruction], List[int]]:
    """Decode the basic block starting at physical address ``paddr``.

    Returns the decoded instructions and the words they came from
    (equal length).  The block ends at the first unconditional
    terminator (included), before the first undecodable/excluded word,
    or at the page boundary; conditional branches are included and
    decoding continues past them (they become side exits).
    """
    count = (PAGE_SIZE - (paddr & (PAGE_SIZE - 1))) // WORDSIZE
    raw = _read_line(memory, paddr, count)
    instrs: List[Instruction] = []
    words: List[int] = []
    for word in raw:
        instr = decode(word)
        if instr is None or instr.op in EXCLUDED:
            break
        instrs.append(instr)
        words.append(word)
        if instr.op in TERMINATORS:
            break
    return instrs, words


def _branch_woff(woff: int, index: int, instr: Instruction) -> int:
    """Branch target's word offset from the region entry, for a branch
    at instruction ``index`` of the member block at word offset
    ``woff`` (both relative to the region's entry address)."""
    return woff + index + instr.imm + 1


def discover_region(
    memory: PhysicalMemory, paddr: int
) -> Tuple[List[Tuple[int, List[Instruction]]], List[int], int]:
    """Discover the compilation region entered at ``paddr``.

    Returns ``(members, words, woff)``: the member blocks as ``(word
    offset from paddr, instructions)`` pairs with the entry block
    first, the contiguous word span covering every member (for
    generation revalidation), and that span's starting word offset
    from ``paddr`` (non-positive; in-page backward branches pull the
    span backwards).

    Members are found by following static branch targets (``b``,
    ``bl``, conditionals) that stay inside the entry's page — the one
    page whose translation is pinned for the whole region (see module
    docstring).  Targets outside the page, to undecodable words, or
    past ``REGION_BLOCK_CAP`` become region exits handled by the
    dispatch loop.  For any memory type other than plain
    ``PhysicalMemory`` the region is the entry block alone: the
    revalidation span may cover words between blocks that an
    ``EncryptedMemory`` would refuse to read.
    """
    page_off = paddr & (PAGE_SIZE - 1)
    expand = type(memory) is PhysicalMemory
    members: Dict[int, List[Instruction]] = {}
    member_words: Dict[int, List[int]] = {}
    order: List[int] = []
    queue = [0]
    while queue and len(order) < REGION_BLOCK_CAP:
        woff = queue.pop(0)
        if woff in members:
            continue
        instrs, words = discover(memory, paddr + woff * WORDSIZE)
        if not instrs:
            continue
        members[woff] = instrs
        member_words[woff] = words
        order.append(woff)
        if not expand:
            break
        for i, instr in enumerate(instrs):
            if instr.op in BRANCH_OPS:
                target = _branch_woff(woff, i, instr)
                byte_off = page_off + target * WORDSIZE
                if 0 <= byte_off < PAGE_SIZE and target not in members:
                    queue.append(target)
    if not order:
        return [], [], 0
    region = [(woff, members[woff]) for woff in order]
    lo = min(members)
    hi = max(woff + len(instrs) for woff, instrs in members.items())
    if len(order) == 1 and lo == 0:
        words = member_words[0]
    else:
        words = memory.read_words(paddr + lo * WORDSIZE, hi - lo)
    return region, words, lo


_REGIONS = StampMemo(REGION_MEMO_SIZE)


def _region(
    memory: PhysicalMemory, paddr: int
) -> Tuple[List[Tuple[int, List[Instruction]]], List[int], int]:
    """``discover_region``, memoised on ``(paddr, page_stamp)``.

    A region lies inside its entry page, so on plain ``PhysicalMemory``
    it is a pure function of bytes a clean page's stamp names.  Other
    memories, dirty pages and addresses ``page_stamp`` faults on take a
    fresh discovery.  Callers never mutate the returned lists: a memo
    hit hands the same lists to every machine that runs the page.
    """
    if type(memory) is PhysicalMemory:
        try:
            return _REGIONS.lookup(memory, paddr, discover_region, memory, paddr)
        except MemoryFault:
            pass
    return discover_region(memory, paddr)


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


def _operands(instr: Instruction) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(registers read, registers written) by one instruction."""
    op = instr.op
    fmt = FORMATS[op][1]
    if fmt == "rrr":
        return (instr.rn, instr.rm), (instr.rd,)
    if fmt == "rri":
        return (instr.rn,), (instr.rd,)
    if fmt == "rr":
        return (instr.rm,), (instr.rd,)
    if fmt == "ri":
        if op == "movt":
            return (instr.rd,), (instr.rd,)
        return (), (instr.rd,)
    if fmt == "cmp_r":
        return (instr.rn, instr.rm), ()
    if fmt == "cmp_i":
        return (instr.rn,), ()
    if fmt == "mem_i":
        if op == "ldr":
            return (instr.rn,), (instr.rd,)
        return (instr.rn, instr.rd), ()
    if fmt == "mem_r":
        if op == "ldrr":
            return (instr.rn, instr.rm), (instr.rd,)
        return (instr.rn, instr.rm, instr.rd), ()
    if op == "bl":
        return (), (14,)
    if op == "bxlr":
        return (14,), ()
    return (), ()  # b, conditionals, svc, nop


def _alu_expr(instr: Instruction) -> str:
    """The rd-value expression for an ALU-class instruction, over the
    register locals.  Mirrors cpu._ALU_RRR/_ALU_RRI/_ALU_RR exactly."""
    op = instr.op
    a = f"r{instr.rn}_"
    b = f"r{instr.rm}_"
    imm = instr.imm
    if op == "add":
        return f"({a} + {b}) & 0xFFFFFFFF"
    if op == "sub":
        return f"({a} - {b}) & 0xFFFFFFFF"
    if op == "rsb":
        return f"({b} - {a}) & 0xFFFFFFFF"
    if op == "and":
        return f"{a} & {b}"
    if op == "orr":
        return f"{a} | {b}"
    if op == "eor":
        return f"{a} ^ {b}"
    if op == "bic":
        return f"{a} & ~{b} & 0xFFFFFFFF"
    if op == "mul":
        return f"({a} * {b}) & 0xFFFFFFFF"
    if op in ("lsl", "lsr", "asr"):
        return f"_{op}({a}, {b} & 0xFF)"
    if op == "addi":
        return f"({a} + {imm}) & 0xFFFFFFFF" if imm else a
    if op == "subi":
        return f"({a} - {imm}) & 0xFFFFFFFF" if imm else a
    if op == "lsli":
        if imm >= 32:
            return "0"
        return f"(({a} << {imm}) & 0xFFFFFFFF)" if imm else a
    if op == "lsri":
        if imm >= 32:
            return "0"
        return f"({a} >> {imm})" if imm else a
    if op == "asri":
        return f"_asr({a}, {imm})"
    if op == "mov":
        return b
    if op == "mvn":
        return f"~{b} & 0xFFFFFFFF"
    if op == "movw":
        return str(imm)
    if op == "movt":
        return f"(r{instr.rd}_ & 0xFFFF) | {imm << 16}"
    raise AssertionError(f"not an ALU op: {op}")  # pragma: no cover


_ALU_OPS = frozenset(
    op
    for op, (_, fmt) in FORMATS.items()
    if fmt in ("rrr", "rri", "rr", "ri") and op != "ror"
)


def _mem_addr(instr: Instruction) -> str:
    """Effective-address expression for a load/store."""
    if instr.op in ("ldr", "str"):
        if instr.imm:
            return f"(r{instr.rn}_ + {instr.imm}) & 0xFFFFFFFF"
        return f"r{instr.rn}_"
    return f"(r{instr.rn}_ + r{instr.rm}_) & 0xFFFFFFFF"


def compile_region(
    region: List[Tuple[int, List[Instruction]]],
    paddr: int,
    traced: bool = False,
    mem: Optional[PhysicalMemory] = None,
) -> Callable:
    """Compile a discovered region into one Python function.

    The function has signature ``fn(cpu, pc, budget) -> (next_pc,
    svc_or_None)`` where ``pc`` is the virtual address of the region's
    entry and ``budget`` is the number of instructions the caller
    allows before the next asynchronous-exception boundary (the caller
    guarantees the *entry block* fits; every intra-region hop re-checks
    its own target against what remains).  It sets ``cpu._retired`` to
    the total number of retired instructions, ``cpu._fault_off`` to the
    faulting instruction's word offset from ``pc`` (for the abort
    return address), and charges cycles/ops in a ``finally`` flush even
    when a memory op raises mid-region.

    ``traced`` selects the variant that appends access-trace entries;
    ``mem`` enables the inline memory fast path and must be the
    machine's memory *only* when it is exactly ``PhysicalMemory``
    (an ``EncryptedMemory`` word must never bypass its engine).
    """
    labels = {woff: idx for idx, (woff, _) in enumerate(region)}
    lengths = {woff: len(instrs) for woff, instrs in region}
    page_off = paddr & (PAGE_SIZE - 1)
    ppage = paddr >> 12

    def hop_target(woff: int, i: int, instr: Instruction) -> Optional[int]:
        """The member word-offset a static branch lands on, if any."""
        target = _branch_woff(woff, i, instr)
        byte_off = page_off + target * WORDSIZE
        if 0 <= byte_off < PAGE_SIZE and target in labels:
            return target
        return None

    all_instrs = [instr for _, instrs in region for instr in instrs]
    reads, writes = set(), set()
    for instr in all_instrs:
        r, w = _operands(instr)
        reads.update(r)
        writes.update(w)
    touched = reads | writes
    sets_flags = any(instr.op in _FLAG_SETTERS for instr in all_instrs)
    reads_flags = any(instr.op in CONDITIONAL_BRANCHES for instr in all_instrs)
    has_load = any(instr.op in ("ldr", "ldrr") for instr in all_instrs)
    has_store = any(instr.op in ("str", "strr") for instr in all_instrs)
    has_branch = any(
        instr.op in BRANCH_OPS or instr.op == "bxlr" for instr in all_instrs
    )
    inline = mem is not None and (has_load or has_store)
    has_hops = any(
        instr.op in BRANCH_OPS and hop_target(woff, i, instr) is not None
        for woff, instrs in region
        for i, instr in enumerate(instrs)
    )
    multi = len(region) > 1

    lines: List[str] = []
    emit = lines.append
    emit("def _block(cpu, pc, budget):")
    emit("    state = cpu.state")
    emit("    regs = state.regs")
    if any(index < 13 for index in touched):
        emit("    gprs = regs.gprs")
    if traced:
        emit("    trace = cpu.access_trace")
    emit("    _c = state.costs")
    emit("    _ci = _c.instruction")
    if has_branch:
        emit("    _cb = _c.branch")
    if inline:
        emit("    _cm = _c.mem_access")
    for index in sorted(touched):
        if index == 13:
            emit("    r13_ = regs.sp_bank[_USRB]")
        elif index == 14:
            emit("    r14_ = regs.lr_bank[_USRB]")
        else:
            emit(f"    r{index}_ = gprs[{index}]")
    if sets_flags or reads_flags:
        emit("    _psr = regs.cpsr")
        emit("    fn_ = _psr.n; fz_ = _psr.z; fc_ = _psr.c; fv_ = _psr.v")
    if has_load or has_store:
        emit("    _tlb = state.tlb")
    if inline:
        emit("    _uarch = state.uarch")
        emit("    if _uarch.utlb_version != _tlb.version:")
        emit("        _uarch.utlb = {}")
        emit("        _uarch.utlb_version = _tlb.version")
        emit("    _utlb = _uarch.utlb")
    if has_load:
        emit("    load = cpu._load")
        if inline:
            emit("    nr = 0")
    if has_store:
        emit("    store = cpu._store")
        emit("    _tv = _tlb.version")
        if inline:
            emit("    gw = 0")
            emit("    _tp = _tlb._table_pages")
    if has_branch:
        emit("    nb = 0")
    emit("    done = 0")
    emit("    n = 0")
    if multi and (has_load or has_store):
        emit("    fo = 0")
    if multi:
        emit("    L = 0")
    emit("    try:")
    if has_hops:
        emit("        while True:")
        emit("            n = 0")
        body_indent = "            "
    else:
        body_indent = "        "

    def emit_leg(woff: int, instrs: List[Instruction], label: int, B: str) -> None:
        length = len(instrs)
        terminated = False
        for i, instr in enumerate(instrs):
            op = instr.op
            byte = (woff + i) * WORDSIZE
            if traced:
                fetch_pc = "pc" if byte == 0 else f"pc + {byte}"
                emit(f"{B}trace.append(('fetch', {fetch_pc}))")
            if op == "ror":
                emit(f"{B}_t = r{instr.rm}_ & 31")
                emit(
                    f"{B}r{instr.rd}_ = "
                    f"(r{instr.rn}_ >> _t | r{instr.rn}_ << 32 - _t) & 0xFFFFFFFF"
                )
            elif op in _ALU_OPS:
                emit(f"{B}r{instr.rd}_ = {_alu_expr(instr)}")
            elif op == "cmp" or op == "cmpi":
                a = f"r{instr.rn}_"
                b = f"r{instr.rm}_" if op == "cmp" else str(instr.imm)
                emit(f"{B}_r = ({a} - {b}) & 0xFFFFFFFF")
                emit(f"{B}fn_ = _r >= 0x80000000")
                emit(f"{B}fz_ = _r == 0")
                emit(f"{B}fc_ = {a} >= {b}")
                # Signed-overflow of a - b, restated bitwise (identical
                # to the reference's to_signed comparison for words).
                emit(f"{B}fv_ = (({a} ^ {b}) & ({a} ^ _r)) >= 0x80000000")
            elif op == "tst":
                emit(f"{B}_r = r{instr.rn}_ & r{instr.rm}_")
                emit(f"{B}fn_ = _r >= 0x80000000")
                emit(f"{B}fz_ = _r == 0")
            elif op in ("ldr", "ldrr"):
                emit(f"{B}n = {i}")
                if multi:
                    emit(f"{B}fo = {woff + i}")
                if not inline:
                    emit(f"{B}r{instr.rd}_ = load({_mem_addr(instr)})")
                else:
                    emit(f"{B}a_ = {_mem_addr(instr)}")
                    emit(f"{B}t_ = _utlb.get(a_ >> 12)")
                    emit(f"{B}if t_ is None or not t_.readable or a_ & 3:")
                    emit(f"{B}    r{instr.rd}_ = load(a_)")
                    emit(f"{B}else:")
                    emit(f"{B}    _o = (t_.phys_base | a_ & 0xFFF) - _mb")
                    emit(f"{B}    if 0 <= _o < _ms:")
                    if traced:
                        emit(f"{B}        trace.append(('load', a_))")
                    emit(f"{B}        r{instr.rd}_ = _mw[_o >> 2]")
                    emit(f"{B}        nr += 1")
                    emit(f"{B}    else:")
                    emit(f"{B}        r{instr.rd}_ = load(a_)")
            elif op in ("str", "strr"):
                emit(f"{B}n = {i}")
                if multi:
                    emit(f"{B}fo = {woff + i}")
                if not inline:
                    emit(f"{B}_sp = store({_mem_addr(instr)}, r{instr.rd}_)")
                else:
                    emit(f"{B}a_ = {_mem_addr(instr)}")
                    emit(f"{B}t_ = _utlb.get(a_ >> 12)")
                    emit(f"{B}if t_ is None or not t_.writable or a_ & 3:")
                    emit(f"{B}    _sp = store(a_, r{instr.rd}_)")
                    emit(f"{B}else:")
                    emit(f"{B}    _sp = t_.phys_base | a_ & 0xFFF")
                    emit(f"{B}    _o = _sp - _mb")
                    emit(f"{B}    if 0 <= _o < _ms:")
                    if traced:
                        emit(f"{B}        trace.append(('store', a_))")
                    emit(f"{B}        _mw[_o >> 2] = r{instr.rd}_")
                    emit(f"{B}        _md.add(_o >> 12)")
                    emit(f"{B}        gw += 1")
                    emit(f"{B}        if _sp & 0xFFFFF000 in _tp:")
                    emit(f"{B}            _tlb.note_store(_sp)")
                    emit(f"{B}    else:")
                    emit(f"{B}        _sp = store(a_, r{instr.rd}_)")
                emit(f"{B}n = {i + 1}")
                # The store may have rewritten the region's own page or
                # poisoned a translation the remaining fetches depend
                # on; bail to the dispatch loop, which refetches through
                # the live tables (an invisible early exit).
                emit(
                    f"{B}if _tv != _tlb.version or _sp >> 12 == {ppage}:"
                )
                emit(
                    f"{B}    return ((pc + {byte + WORDSIZE}) & 0xFFFFFFFF, None)"
                )
            elif op == "nop":
                pass
            elif op in ("b", "bl"):
                if op == "bl":
                    emit(f"{B}r14_ = (pc + {byte + WORDSIZE}) & 0xFFFFFFFF")
                emit(f"{B}nb += 1")
                target = hop_target(woff, i, instr)
                if target is not None:
                    emit(f"{B}done += {length}")
                    emit(f"{B}n = 0")
                    emit(f"{B}if budget - done >= {lengths[target]}:")
                    if labels[target] != label:
                        emit(f"{B}    L = {labels[target]}")
                    emit(f"{B}    continue")
                    emit(
                        f"{B}return ((pc + {(target - woff) * WORDSIZE + woff * WORDSIZE})"
                        " & 0xFFFFFFFF, None)"
                    )
                else:
                    delta = _branch_woff(woff, i, instr) * WORDSIZE
                    emit(f"{B}n = {length}")
                    emit(f"{B}return ((pc + {delta}) & 0xFFFFFFFF, None)")
                terminated = True
            elif op in CONDITIONAL_BRANCHES:
                # Side exit: taken hops inside the region or returns to
                # the dispatch loop; not taken falls through.
                emit(f"{B}if {_COND_EXPR[op]}:")
                emit(f"{B}    nb += 1")
                target = hop_target(woff, i, instr)
                if target is not None:
                    emit(f"{B}    done += {i + 1}")
                    emit(f"{B}    n = 0")
                    emit(f"{B}    if budget - done >= {lengths[target]}:")
                    if labels[target] != label:
                        emit(f"{B}        L = {labels[target]}")
                    emit(f"{B}        continue")
                    emit(
                        f"{B}    return ((pc + {target * WORDSIZE}) & 0xFFFFFFFF, None)"
                    )
                else:
                    delta = _branch_woff(woff, i, instr) * WORDSIZE
                    emit(f"{B}    n = {i + 1}")
                    emit(f"{B}    return ((pc + {delta}) & 0xFFFFFFFF, None)")
            elif op == "bxlr":
                emit(f"{B}n = {length}")
                emit(f"{B}nb += 1")
                emit(f"{B}return (r14_, None)")
                terminated = True
            elif op == "svc":
                emit(f"{B}n = {length}")
                emit(
                    f"{B}return ((pc + {byte + WORDSIZE}) & 0xFFFFFFFF, {instr.imm})"
                )
                terminated = True
            else:  # pragma: no cover - discovery admits only these ops
                raise AssertionError(f"uncompilable op in block: {op}")
        if not terminated:
            # Page-boundary fall-through: continue at the next page's
            # first word through the dispatch loop (fresh translation).
            emit(f"{B}n = {length}")
            emit(
                f"{B}return ((pc + {(woff + length) * WORDSIZE}) & 0xFFFFFFFF, None)"
            )

    if not multi:
        woff, instrs = region[0]
        emit_leg(woff, instrs, 0, body_indent)
    else:
        for idx, (woff, instrs) in enumerate(region):
            kw = "if" if idx == 0 else "elif"
            emit(f"{body_indent}{kw} L == {idx}:")
            emit_leg(woff, instrs, idx, body_indent + "    ")

    emit("    finally:")
    emit("        cpu._retired = done + n")
    if multi and (has_load or has_store):
        emit("        cpu._fault_off = fo")
    else:
        emit("        cpu._fault_off = n")
    cycle_terms = "(done + n) * _ci"
    if has_branch:
        cycle_terms += " + nb * _cb"
    if inline:
        if has_load and has_store:
            cycle_terms += " + (nr + gw) * _cm"
        elif has_load:
            cycle_terms += " + nr * _cm"
        else:
            cycle_terms += " + gw * _cm"
    emit(f"        state.cycles = state.cycles + {cycle_terms}")
    if inline and has_store:
        emit("        if gw:")
        emit("            _mem.generation = _mem.generation + gw")
    for index in sorted(writes):
        if index == 13:
            emit("        regs.sp_bank[_USRB] = r13_")
        elif index == 14:
            emit("        regs.lr_bank[_USRB] = r14_")
        else:
            emit(f"        gprs[{index}] = r{index}_")
    if sets_flags:
        emit("        _psr.n = fn_; _psr.z = fz_; _psr.c = fc_; _psr.v = fv_")

    source = "\n".join(lines)
    namespace = dict(_CODEGEN_GLOBALS)
    if inline:
        # Bake the memory geometry in: the store view, base, size, and
        # dirty-page set are fixed object identities for a machine's
        # lifetime (snapshots restore in place — the dirty set is only
        # ever cleared, never rebound).
        namespace["_mem"] = mem
        namespace["_mw"] = mem._store
        namespace["_mb"] = mem._base
        namespace["_ms"] = mem._size
        namespace["_md"] = mem._dirty
    exec(compile(source, f"<block@{paddr:#x}>", "exec"), namespace)
    fn = namespace["_block"]
    fn.__source__ = source  # introspection hook for tests/debugging
    return fn


# ---------------------------------------------------------------------------
# The block cache
# ---------------------------------------------------------------------------

#: bcache entry layout: validation generation, source words, untraced
#: function, entry-block instruction count (the budget the dispatcher
#: must guarantee), the lazily compiled traced variant, and the word
#: offset of the validation span relative to the entry address.
_GEN, _WORDS, _FN, _LEN, _FNT, _WOFF = range(6)


def _inline_mem(cpu) -> Optional[PhysicalMemory]:
    """The memory object iff the inline fast path is allowed for it."""
    memory = cpu.state.memory
    return memory if type(memory) is PhysicalMemory else None


def _compiled(
    cpu,
    region: List[Tuple[int, List[Instruction]]],
    paddr: int,
    words: List[int],
    woff: int,
    traced: bool,
) -> Callable:
    """``compile_region`` behind the machine's compile memo
    (``uarch.compiled``), which survives ``UArchState.reset``.

    The key holds everything the generated source and namespace depend
    on: ``paddr`` (the ``<block@…>`` name, ``ppage``, hop offsets),
    ``traced``, the validation span's offset and words, and the member
    layout; the members' instructions are decoded from those words.  A
    hit is served only if the inline memory its function baked (if any)
    is this machine's current inline memory: a deep copy's memo holds
    functions whose globals point at the donor's memory.
    """
    mem = _inline_mem(cpu)
    key = (
        paddr,
        traced,
        woff,
        tuple(words),
        tuple((off, len(instrs)) for off, instrs in region),
    )
    memo = cpu.state.uarch.compiled
    fn = memo.get(key)
    if fn is not None:
        baked = fn.__globals__.get("_mem")
        if baked is None or baked is mem:
            return fn
        del memo[key]
    fn = compile_region(region, paddr, traced=traced, mem=mem)
    if len(memo) >= BLOCK_CACHE_CAP:
        del memo[next(iter(memo))]
    memo[key] = fn
    return fn


def _compile_traced(cpu, paddr: int) -> Callable:
    """Lazily build the traced variant of a just-validated entry.

    The entry was (re)validated against the current generation, so
    re-discovery sees exactly the words it was compiled from.
    """
    region, words, woff = _region(cpu.state.memory, paddr)
    return _compiled(cpu, region, paddr, words, woff, True)


def lookup(cpu, paddr: int, traced: bool = False) -> Optional[list]:
    """Find or build the compiled region entered at ``paddr``.

    Entries are validated like the fast engine's decode cache: reused
    while ``memory.generation`` is unchanged; on a mismatch the source
    words are re-read and compared, so an unrelated store revalidates
    cheaply while self-modifying code recompiles.  Returns ``None``
    when no block starts here (first word undecodable or excluded).
    ``traced`` additionally ensures the traced variant is compiled.
    """
    state = cpu.state
    memory = state.memory
    bcache = state.uarch.bcache
    entry = bcache.get(paddr)
    if entry is not None:
        if entry[_GEN] != memory.generation:
            try:
                words = memory.read_words(
                    paddr + entry[_WOFF] * WORDSIZE, len(entry[_WORDS])
                )
            except MemoryFault:
                words = None
            if words == entry[_WORDS]:
                entry[_GEN] = memory.generation
            else:
                del bcache[paddr]
                entry = None
        if entry is not None:
            # Recency is only tracked once the cache could plausibly
            # evict (at least half full): below that, eviction order is
            # irrelevant and the touch is pure per-dispatch overhead.
            if 2 * len(bcache) >= BLOCK_CACHE_CAP and next(reversed(bcache)) != paddr:
                bcache[paddr] = bcache.pop(paddr)  # LRU touch
            if traced and entry[_FNT] is None:
                entry[_FNT] = _compile_traced(cpu, paddr)
            return entry
    region, words, woff = _region(memory, paddr)
    if not region:
        return None
    fn = _compiled(cpu, region, paddr, words, woff, False)
    fnt = _compiled(cpu, region, paddr, words, woff, True) if traced else None
    if len(bcache) >= BLOCK_CACHE_CAP:
        del bcache[next(iter(bcache))]
    entry = [memory.generation, words, fn, len(region[0][1]), fnt, woff]
    bcache[paddr] = entry
    return entry
