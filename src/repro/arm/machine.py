"""The complete machine state.

A machine state bundles everything visible about the simulated CPU and
platform: the register file, physical memory, TrustZone world, the
control registers the monitor touches (TTBR0, SCR.NS, the VBAR-selected
exception vector is implicit), the TLB consistency flag, the pending
interrupt line, and the cycle counter driven by the cost model.

Two hooks support the crash-consistency subsystem (``repro.faults``):

* ``fault_plan`` — when set, every machine-visible monitor operation
  (``mon_write_word``, ``mon_zero_page``, ``mon_copy_page``, journal
  stage/commit/apply) first passes through ``fault_point``, which lets
  an injection plan abort execution there by raising ``FaultInjected``
  — simulating a watchdog reset or power loss inside the monitor.
* ``txn`` — when set, monitor stores are buffered in the attached
  transaction (``repro.monitor.journal.MonitorTransaction``) instead of
  hitting physical memory; monitor reads merge the buffered view.  The
  cycle cost of a buffered store is charged at record time, so the cost
  model is unchanged from the eager-write monitor.

Stores need no TLB bookkeeping here: ``PhysicalMemory`` poisons the TLB
itself, and snapshots delegate to its ``checkpoint``/``rewind``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.arm.costs import CostModel
from repro.arm.memory import MemoryCheckpoint, MemoryMap, PhysicalMemory
from repro.arm.modes import Mode, World
from repro.arm.registers import PSR, RegisterFile
from repro.arm.tlb import TLB


class FaultInjected(Exception):
    """A simulated crash (watchdog reset / power loss) inside the monitor.

    Raised by a fault-injection plan at a machine-visible monitor
    operation.  Everything volatile — registers, the monitor's Python
    call stack, a buffered transaction — is conceptually lost with the
    machine; only physical memory survives.  The OS-visible way back is
    ``KomodoMonitor.recover()``.
    """

    def __init__(self, op_index: int, kind: str, detail: int = 0):
        super().__init__(
            f"injected fault at monitor operation #{op_index} ({kind} {detail:#x})"
        )
        self.op_index = op_index
        self.kind = kind
        self.detail = detail


class UArchState:
    """Microarchitectural caches owned by the fast and turbo engines.

    Nothing here is architecturally visible: the caches hold decoded
    instructions and compiled basic blocks (keyed by physical address,
    validated against ``PhysicalMemory.generation``) and translations
    (keyed by virtual page, validated against ``TLB.version``).  A
    snapshot never captures this state.  ``reset`` (run by ``restore``
    and by ``KomodoMonitor.recover``) empties every validated cache:
    decode cache, micro-TLB and block cache.  A restored machine then
    discovers and revalidates its code exactly as a cold one does.

    One table survives ``reset``: ``compiled``, the turbo compiler's
    content-keyed memo (``blocks._compiled``).  Its key is everything a
    compiled region's source depends on, the exact source words
    included, so restored memory holding the same code skips only the
    ``compile()`` step and different words compile afresh.  A deep copy
    starts with cold validated caches and a copy of the memo; a memo
    hit whose function baked another machine's memory is refused.
    """

    __slots__ = (
        "icache",
        "utlb",
        "utlb_version",
        "bcache",
        "compiled",
    )

    def __init__(self) -> None:
        #: Content key -> compiled region function, bounded by
        #: ``blocks.BLOCK_CACHE_CAP`` (oldest evicted); kept by ``reset``.
        self.compiled = {}
        self.reset()

    def __deepcopy__(self, memo) -> "UArchState":
        # Block-cache functions bake the donor's memory into their
        # globals, so a copy must never dispatch them: it starts cold.
        dup = UArchState()
        dup.compiled = dict(self.compiled)
        return dup

    def reset(self) -> None:
        self.icache = {}
        self.utlb = {}
        self.utlb_version = -1
        self.bcache = {}


@dataclass
class MachineState:
    """Registers + memory + control state of the simulated platform."""

    memmap: MemoryMap
    memory: PhysicalMemory
    regs: RegisterFile = field(default_factory=RegisterFile)
    tlb: TLB = field(default_factory=TLB)
    world: World = World.SECURE
    ttbr0: Optional[int] = None  # physical base of the live enclave L1 table
    pending_interrupt: bool = False
    cycles: int = 0
    costs: CostModel = field(default_factory=CostModel)
    uarch: UArchState = field(default_factory=UArchState)
    #: Active fault-injection plan (duck-typed; see repro.faults.injector).
    fault_plan: Optional[object] = None
    #: Active monitor transaction (see repro.monitor.journal); monitor
    #: stores buffer here until the commit point.
    txn: Optional[object] = None

    @classmethod
    def boot(cls, secure_pages: int = 64, insecure_size: int = 0x100000) -> "MachineState":
        """A freshly booted machine: secure world, SVC mode, zeroed RAM."""
        memmap = MemoryMap(secure_pages=secure_pages, insecure_size=insecure_size)
        state = cls(memmap=memmap, memory=PhysicalMemory(memmap))
        state.regs.cpsr = PSR(mode=Mode.SVC, irq_masked=True, fiq_masked=True)
        return state

    # -- cycle accounting --------------------------------------------------

    def charge(self, cycles: int) -> None:
        """Advance the cycle counter."""
        self.cycles += cycles

    # -- control registers -------------------------------------------------

    def load_ttbr0(self, l1_base: Optional[int]) -> None:
        """Load the enclave page-table base; poisons the TLB."""
        self.ttbr0 = l1_base
        self.tlb.set_ttbr(self.memory, l1_base)
        self.charge(self.costs.ttbr_write)

    def flush_tlb(self) -> None:
        self.tlb.flush()
        self.charge(self.costs.tlb_flush)

    # -- fault injection ---------------------------------------------------

    def fault_point(self, kind: str, detail: int = 0) -> None:
        """An injection point: a watchdog reset may fire here.

        Called immediately *before* each machine-visible monitor
        operation takes effect, so an abort at operation N leaves the
        effects of operations 1..N-1 only.
        """
        plan = self.fault_plan
        if plan is not None:
            plan.visit(self, kind, detail)

    # -- monitor-visible memory helpers (cycle charged) ---------------------

    def mon_read_word(self, address: int) -> int:
        self.charge(self.costs.mem_access)
        if self.txn is not None:
            buffered = self.txn.read(address)
            if buffered is not None:
                return buffered
        return self.memory.read_word(address)

    def mon_read_words(self, address: int, count: int):
        """Bulk monitor read merging any buffered transaction state.

        Uncharged, like the raw ``memory.read_words`` burst it replaces
        (callers charge the work that consumes the data, e.g. hashing).
        """
        if self.txn is not None:
            return self.txn.read_words(self.memory, address, count)
        return self.memory.read_words(address, count)

    def mon_write_word(self, address: int, value: int) -> None:
        self.charge(self.costs.mem_access)
        self.fault_point("write", address)
        if self.txn is not None:
            self.txn.record_write(address, value)
            return
        self.memory.write_word(address, value)

    def mon_zero_page(self, base: int) -> None:
        self.charge(self.costs.page_zero)
        self.fault_point("zero-page", base)
        if self.txn is not None:
            self.txn.record_zero(base)
            return
        self.memory.zero_page(base)

    def mon_copy_page(self, src: int, dst: int) -> None:
        self.charge(self.costs.page_copy)
        self.fault_point("copy-page", dst)
        if self.txn is not None:
            self.txn.record_copy_page(self.memory, src, dst)
            return
        self.memory.copy_page(src, dst)

    # -- fault injection (corruption) ---------------------------------------

    def flip_bit(self, address: int, bit: int) -> int:
        """Model a DRAM disturbance: invert one bit of a stored word.

        This is not a CPU access — it bypasses world checks, charges no
        cycles, and does not pass through an open transaction's buffer
        (the flip hits the physical cell, not the monitor's pending
        store).  TLB consistency is poisoned as for any store so cached
        translations cannot outlive the flipped word.  Returns the new
        word value.
        """
        if not 0 <= bit < 32:
            raise ValueError(f"bit index {bit} out of range")
        value = self.memory.read_word(address) ^ (1 << bit)
        self.memory.write_word(address, value)
        return value

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> "MachineSnapshot":
        """Capture an O(memory) checkpoint for in-place ``restore``.

        Much cheaper than ``copy.deepcopy``: physical memory is
        one flat ``array`` slice, registers and the TLB are small.  The
        fault campaigns use this to capture a lifecycle prefix once and
        restore it per injected fault instead of re-running from boot.

        The machine must be quiescent: no open monitor transaction (a
        transaction buffers stores outside physical memory, so a
        checkpoint through it would tear).
        """
        if self.txn is not None:
            raise ValueError("cannot snapshot with an open monitor transaction")
        return MachineSnapshot(
            self.memory.checkpoint(), self.regs.copy(), self.tlb.copy(),
            self.world, self.ttbr0, self.pending_interrupt, self.cycles,
        )

    def restore(self, snap: "MachineSnapshot") -> None:
        """Rewind this machine, in place, to a ``snapshot()`` checkpoint.

        Memory rewinds itself in place; registers and the TLB become
        fresh copies of the checkpoint, with the memory bound to that
        live TLB; the validated microarchitectural caches are reset to
        the cold state a deep copy starts from, so snapshot-accelerated
        campaigns are bit-identical to re-execution.  Only the turbo
        compile memo (``uarch.compiled``) is kept: it is keyed by the
        exact code words.  A snapshot can be restored any number of
        times.
        """
        memory = self.memory
        memory.rewind(snap.memory)
        self.regs = snap.regs.copy()
        self.tlb = snap.tlb.copy(memory=memory)
        memory.watch(self.tlb)
        self.world = snap.world
        self.ttbr0 = snap.ttbr0
        self.pending_interrupt = snap.pending_interrupt
        self.cycles = snap.cycles
        self.uarch.reset()
        self.fault_plan = None
        self.txn = None


class MachineSnapshot(NamedTuple):
    """A machine checkpoint (see ``MachineState.snapshot``).  ``memmap``
    and ``costs`` are not captured: they are constant for a machine's
    lifetime."""

    memory: MemoryCheckpoint
    regs: RegisterFile
    tlb: TLB
    world: World
    ttbr0: Optional[int]
    pending_interrupt: bool
    cycles: int
