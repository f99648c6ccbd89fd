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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.arm.costs import CostModel
from repro.arm.memory import PAGE_SIZE, MemoryMap, PhysicalMemory
from repro.arm.modes import Mode, World
from repro.arm.registers import PSR, RegisterFile
from repro.arm.tlb import TLB

#: Process-wide snapshot token source.  Each ``MachineState.snapshot``
#: draws a fresh token and anchors the memory's dirty-page set to it;
#: ``restore`` may take the O(dirty-pages) delta path only when the
#: snapshot's token is still the memory's anchor.  Token 0 never issues,
#: so a never-snapshotted memory (``_snap_token == 0``) never matches.
_SNAP_TOKENS = itertools.count(1)

#: Default restore path.  Tests set it False to force every restore
#: down the full-buffer path — the equivalence oracle the delta path is
#: pinned against.
DELTA_RESTORE = True


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
    ``MachineState.copy()`` never shares this state — each snapshot
    warms its own caches.
    """

    __slots__ = (
        "icache",
        "utlb",
        "utlb_version",
        "bcache",
        "code_pages",
        "chain_gen",
        "chain_memgen",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.icache = {}
        self.utlb = {}
        self.utlb_version = -1
        self.bcache = {}
        #: Physical pages holding any compiled block's source words
        #: (grow-only; bounded by the number of physical pages).
        self.code_pages = set()
        #: Bumped whenever a store may have rewritten compiled code
        #: (any CPU store into ``code_pages``, or — detected lazily at
        #: run entry via ``chain_memgen`` — any mutation between runs).
        #: Turbo chain links are validated against this, not against
        #: ``memory.generation``, so ordinary data stores do not sever
        #: block-to-block chains.
        self.chain_gen = 0
        #: ``memory.generation`` as of the last chain-stamp sync.
        self.chain_memgen = -1


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
        self.tlb.note_store(address)

    def mon_zero_page(self, base: int) -> None:
        self.charge(self.costs.page_zero)
        self.fault_point("zero-page", base)
        if self.txn is not None:
            self.txn.record_zero(base)
            return
        self.memory.zero_page(base)
        # Zeroing a page that holds a live page table must poison the
        # TLB exactly like a word store would; one probe covers the page.
        self.tlb.note_store(base)

    def mon_copy_page(self, src: int, dst: int) -> None:
        self.charge(self.costs.page_copy)
        self.fault_point("copy-page", dst)
        if self.txn is not None:
            self.txn.record_copy_page(self.memory, src, dst)
            return
        self.memory.copy_page(src, dst)
        self.tlb.note_store(dst)

    # -- fault injection (corruption) ---------------------------------------

    def flip_bit(self, address: int, bit: int) -> int:
        """Model a DRAM disturbance: invert one bit of a stored word.

        This is not a CPU access — it bypasses world checks, charges no
        cycles, counts no read transaction, and does not pass through an
        open transaction's buffer (the flip hits the physical cell, not
        the monitor's pending store).  TLB consistency is poisoned as
        for any store so cached translations cannot outlive the flipped
        word.  Returns the new word value.
        """
        if not 0 <= bit < 32:
            raise ValueError(f"bit index {bit} out of range")
        memory = self.memory
        saved_reads, saved_writes = memory.read_ops, memory.write_ops
        try:
            value = memory.read_word(address) ^ (1 << bit)
            memory.write_word(address, value)
        finally:
            memory.read_ops = saved_reads
            memory.write_ops = saved_writes
        self.tlb.note_store(address)
        return value

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> "MachineSnapshot":
        """Capture an O(memory) checkpoint for in-place ``restore``.

        Much cheaper than ``copy``/``copy.deepcopy``: physical memory is
        one flat ``array`` slice, registers and the TLB are small.  The
        fault campaigns use this to capture a lifecycle prefix once and
        restore it per injected fault instead of re-running from boot.

        The machine must be quiescent: no open monitor transaction (a
        transaction buffers stores outside physical memory, so a
        checkpoint through it would tear).
        """
        if self.txn is not None:
            raise ValueError("cannot snapshot with an open monitor transaction")
        memory = self.memory
        tags = getattr(memory, "_tags", None)  # EncryptedMemory tag store
        # Re-anchor the dirty-page set: from here on it records exactly
        # the pages that diverge from this checkpoint, so a restore of
        # *this* snapshot may copy back only those pages.
        token = next(_SNAP_TOKENS)
        memory._snap_token = token
        memory._dirty.clear()
        return MachineSnapshot(
            token=token,
            # bytes(), not a slice: slicing the memoryview-backed store
            # would alias the live buffer instead of copying it.
            store=bytes(memory._buf),
            generation=memory.generation,
            read_ops=memory.read_ops,
            write_ops=memory.write_ops,
            tags=dict(tags) if tags is not None else None,
            regs=self.regs.copy(),
            tlb=self.tlb.copy(),
            world=self.world,
            ttbr0=self.ttbr0,
            pending_interrupt=self.pending_interrupt,
            cycles=self.cycles,
        )

    def restore(self, snap: "MachineSnapshot", delta: Optional[bool] = None) -> None:
        """Rewind this machine, in place, to a ``snapshot()`` checkpoint.

        Physical memory is restored by slice assignment (object identity
        is preserved, so the page-table walker and TLB keep watching the
        same store), registers and the TLB are replaced by fresh copies
        of the checkpoint, and the microarchitectural caches are reset —
        exactly the cold-cache state a deep copy would start from, so
        snapshot-accelerated campaigns are bit-identical to re-execution.
        A snapshot can be restored any number of times.

        When ``snap`` is the snapshot the memory's dirty-page set is
        anchored to, only the dirtied pages are copied back —
        O(dirty-pages) instead of O(memory).  Any token mismatch (an
        older snapshot, a different machine's snapshot, a never-anchored
        memory) falls back to the full-buffer copy and re-anchors.
        ``delta=False`` (or ``DELTA_RESTORE = False``) forces the
        full path — the equivalence oracle.  Either path leaves the
        buffer byte-identical to ``snap.store``.
        """
        if delta is None:
            delta = DELTA_RESTORE
        memory = self.memory
        dirty = memory._dirty
        if delta and snap.token == memory._snap_token and snap.token:
            if dirty:
                buf, store = memory._buf, snap.store
                for page in dirty:
                    offset = page << 12
                    buf[offset : offset + PAGE_SIZE] = store[
                        offset : offset + PAGE_SIZE
                    ]
                dirty.clear()
        else:
            memory._buf[:] = snap.store
            memory._snap_token = snap.token
            dirty.clear()
        memory.generation = snap.generation
        memory.read_ops = snap.read_ops
        memory.write_ops = snap.write_ops
        if snap.tags is not None:
            memory._tags = dict(snap.tags)
        self.regs = snap.regs.copy()
        self.tlb = snap.tlb.copy(memory=memory)
        self.world = snap.world
        self.ttbr0 = snap.ttbr0
        self.pending_interrupt = snap.pending_interrupt
        self.cycles = snap.cycles
        self.uarch.reset()
        self.fault_plan = None
        self.txn = None

    def copy(self) -> "MachineState":
        """Deep copy (used by the refinement and noninterference harnesses)."""
        memory = self.memory.copy()
        dup = MachineState(
            memmap=self.memmap,
            memory=memory,
            regs=self.regs.copy(),
            tlb=self.tlb.copy(memory=memory),
            world=self.world,
            ttbr0=self.ttbr0,
            pending_interrupt=self.pending_interrupt,
            cycles=self.cycles,
            costs=self.costs,
            uarch=UArchState(),
        )
        return dup


class MachineSnapshot:
    """An immutable-by-convention machine checkpoint (see
    ``MachineState.snapshot``): the flat word store, the memory
    engine's tag table if any, the register file, the TLB consistency
    state, and the scalar control state.  ``memmap``/``costs`` are not
    captured — they are constant for a machine's lifetime."""

    __slots__ = (
        "token",
        "store",
        "generation",
        "read_ops",
        "write_ops",
        "tags",
        "regs",
        "tlb",
        "world",
        "ttbr0",
        "pending_interrupt",
        "cycles",
    )

    def __init__(
        self,
        token,
        store,
        generation,
        read_ops,
        write_ops,
        tags,
        regs,
        tlb,
        world,
        ttbr0,
        pending_interrupt,
        cycles,
    ):
        self.token = token
        self.store = store
        self.generation = generation
        self.read_ops = read_ops
        self.write_ops = write_ops
        self.tags = tags
        self.regs = regs
        self.tlb = tlb
        self.world = world
        self.ttbr0 = ttbr0
        self.pending_interrupt = pending_interrupt
        self.cycles = cycles
