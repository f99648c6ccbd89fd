"""Post-crash consistency auditing.

Two independent checkers run after every injected fault:

* the *spec* audit — extract the abstract PageDB from machine memory
  (the refinement witness) and run ``spec.invariants.collect_violations``
  over it; a torn state that extraction cannot even abstract is itself
  a violation;
* the *machine* audit (:func:`machine_consistency`) — a raw walk over
  the concrete words using only ``repro.monitor.layout`` definitions:
  PageDB entry sanity, refcount agreement, page-table ↔ PageDB
  agreement, measurement-state sanity, free-page scrubbing, and
  journal/transaction quiescence.  It shares no code with extraction or
  ``PageDB``, so a bug in those cannot mask a torn state.  Its scan of
  a page table for non-invalid descriptors is memoised per table page
  on ``(base, PhysicalMemory.page_stamp)`` (``TABLE_SCAN_MEMO_SIZE``
  entries per table level, separate from extraction's memos); the
  checks against page types and owners run on every audit.

:func:`secure_state_digest` hashes everything the OS cannot touch
(monitor image + stack + secure pages); campaigns use it to classify a
post-recovery state as exactly one of the quiescent states a clean run
passes through.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, List, Tuple

from repro.arm.bits import WORDSIZE
from repro.arm.machine import MachineState
from repro.arm.memory import PAGE_SIZE, StampMemo
from repro.arm.modes import World
from repro.arm.pagetable import (
    DESC_INVALID,
    DESC_L1_COARSE,
    DESC_L2_SMALL,
    L1_ENTRIES,
    L2_ENTRIES,
    PERM_SECURE,
    entry_target,
    entry_type,
)
from repro.monitor import journal
from repro.monitor.layout import (
    AS_L1PT_WORD,
    AS_MEASURED_WORD,
    AS_REFCOUNT_WORD,
    AS_STATE_WORD,
    AddrspaceState,
    PAGEDB_ENTRY_WORDS,
    PAGEDB_OWNER_WORD,
    PAGEDB_TYPE_WORD,
    PageType,
    TH_ENTERED_WORD,
    TH_FAULT_HANDLER_WORD,
    TH_IN_HANDLER_WORD,
    pagedb_entry_addr,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.komodo import KomodoMonitor


#: Bound on each memo of per-table descriptor scans (one per level: a
#: flipped PageDB type word can retype a table page without writing it).
TABLE_SCAN_MEMO_SIZE = 1024

_L1_SCANS = StampMemo(TABLE_SCAN_MEMO_SIZE)
_L2_SCANS = StampMemo(TABLE_SCAN_MEMO_SIZE)


def _descriptors(memory, base: int, count: int) -> Tuple[Tuple[int, int], ...]:
    """The ``(index, word)`` pairs of the non-invalid descriptors among
    the ``count`` table words at ``base``."""
    return tuple(
        (index, word)
        for index, word in enumerate(memory.read_words(base, count))
        if entry_type(word) != DESC_INVALID
    )


def secure_state_digest(state: MachineState) -> str:
    """SHA-256 over all OS-inaccessible memory (image, stack, secure).

    Hashes each region's ``region_bytes`` fingerprint (plaintext on
    ``EncryptedMemory``).  Registers and caches are volatile (a reset
    loses them anyway), so two states with equal digests are
    indistinguishable to the OS and to any future monitor call.
    """
    digest = hashlib.sha256()
    memmap = state.memmap
    for region in (memmap.monitor_image, memmap.monitor_stack, memmap.secure):
        digest.update(state.memory.region_bytes(region.base, region.size))
    return digest.hexdigest()


def machine_consistency(state: MachineState) -> List[str]:
    """Raw-word consistency check of the monitor's persistent state."""
    problems: List[str] = []
    memmap = state.memmap
    memory = state.memory
    image_base = memmap.monitor_image.base
    npages = memmap.secure_pages

    # -- transaction/journal quiescence ---------------------------------
    if state.txn is not None:
        problems.append("a monitor transaction is still attached")
    if journal.is_present(state):
        problems.append("commit journal is not quiescent")
    residue = memory.region_bytes(journal.journal_base(state), journal.JOURNAL_SIZE)
    if residue != bytes(journal.JOURNAL_SIZE):
        problems.append("journal region holds residue")

    # -- PageDB entry sanity --------------------------------------------
    types = {}
    owners = {}
    entries = memory.read_words(
        pagedb_entry_addr(image_base, 0), npages * PAGEDB_ENTRY_WORDS
    )
    for pageno in range(npages):
        entry = pageno * PAGEDB_ENTRY_WORDS
        type_word = entries[entry + PAGEDB_TYPE_WORD]
        owner = entries[entry + PAGEDB_OWNER_WORD]
        try:
            types[pageno] = PageType(type_word)
        except ValueError:
            problems.append(f"page {pageno}: unknown type word {type_word}")
            continue
        owners[pageno] = owner
    for pageno, page_type in types.items():
        if page_type is PageType.FREE:
            continue
        owner = owners[pageno]
        if owner >= npages or types.get(owner) is not PageType.ADDRSPACE:
            problems.append(
                f"page {pageno} ({page_type.name}) owner {owner} is not an addrspace"
            )

    # -- per-addrspace checks -------------------------------------------
    for pageno, page_type in types.items():
        if page_type is not PageType.ADDRSPACE:
            continue
        base = memmap.page_base(pageno)
        state_word = memory.read_word(base + AS_STATE_WORD * WORDSIZE)
        refcount = memory.read_word(base + AS_REFCOUNT_WORD * WORDSIZE)
        l1pt = memory.read_word(base + AS_L1PT_WORD * WORDSIZE)
        measured = memory.read_word(base + AS_MEASURED_WORD * WORDSIZE)
        try:
            as_state = AddrspaceState(state_word)
        except ValueError:
            problems.append(f"addrspace {pageno}: bad state word {state_word}")
            continue
        actual = sum(
            1
            for other, other_type in types.items()
            if other != pageno
            and other_type is not PageType.FREE
            and owners.get(other) == pageno
        )
        if refcount != actual:
            problems.append(
                f"addrspace {pageno}: refcount {refcount} != {actual} owned pages"
            )
        if as_state is not AddrspaceState.STOPPED and (
            types.get(l1pt) is not PageType.L1PTABLE or owners.get(l1pt) != pageno
        ):
            problems.append(f"addrspace {pageno}: L1 pointer {l1pt} is wrong")
        if measured not in (0, 1):
            problems.append(f"addrspace {pageno}: measured flag is {measured}")
        if as_state is AddrspaceState.INIT and measured:
            problems.append(f"addrspace {pageno}: INIT but already measured")
        if as_state is AddrspaceState.FINAL and not measured:
            problems.append(f"addrspace {pageno}: FINAL without measurement")

    # -- thread flag sanity ---------------------------------------------
    for pageno, page_type in types.items():
        if page_type is not PageType.THREAD:
            continue
        base = memmap.page_base(pageno)
        entered = memory.read_word(base + TH_ENTERED_WORD * WORDSIZE)
        in_handler = memory.read_word(base + TH_IN_HANDLER_WORD * WORDSIZE)
        handler = memory.read_word(base + TH_FAULT_HANDLER_WORD * WORDSIZE)
        if entered not in (0, 1):
            problems.append(f"thread {pageno}: entered flag is {entered}")
        if in_handler not in (0, 1):
            problems.append(f"thread {pageno}: in-handler flag is {in_handler}")
        if in_handler == 1 and handler == 0:
            problems.append(f"thread {pageno}: in handler with no handler registered")

    # -- page tables ↔ PageDB agreement ---------------------------------
    # A stopped addrspace can never run again, so its tables may dangle
    # (Remove does not rewrite sibling page tables) — same exemption the
    # spec invariants make via ``_owner_stopped``.
    def _owner_stopped(table_page: int) -> bool:
        owner = owners.get(table_page)
        if owner is None or types.get(owner) is not PageType.ADDRSPACE:
            return False
        word = memory.read_word(
            memmap.page_base(owner) + AS_STATE_WORD * WORDSIZE
        )
        return word == int(AddrspaceState.STOPPED)

    for pageno, page_type in types.items():
        if page_type in (PageType.L1PTABLE, PageType.L2PTABLE) and _owner_stopped(
            pageno
        ):
            continue
        base = memmap.page_base(pageno)
        if page_type is PageType.L1PTABLE:
            scan = _L1_SCANS.lookup(
                memory, base, _descriptors, memory, base, L1_ENTRIES
            )
            for index, word in scan:
                if entry_type(word) != DESC_L1_COARSE:
                    problems.append(f"L1 {pageno}[{index}]: malformed descriptor")
                    continue
                target = entry_target(word)
                if not memmap.is_secure(target):
                    problems.append(f"L1 {pageno}[{index}]: target not secure")
                    continue
                l2page = memmap.pageno_of(target)
                if types.get(l2page) is not PageType.L2PTABLE:
                    problems.append(
                        f"L1 {pageno}[{index}]: target {l2page} is not an L2 table"
                    )
                elif owners.get(l2page) != owners.get(pageno):
                    problems.append(f"L1 {pageno}[{index}]: crosses addrspaces")
        elif page_type is PageType.L2PTABLE:
            scan = _L2_SCANS.lookup(
                memory, base, _descriptors, memory, base, L2_ENTRIES
            )
            for index, word in scan:
                if entry_type(word) != DESC_L2_SMALL:
                    problems.append(f"L2 {pageno}[{index}]: malformed descriptor")
                    continue
                if not word & PERM_SECURE:
                    continue  # insecure mapping: OS memory, nothing to agree on
                target = entry_target(word)
                if not memmap.is_secure(target):
                    problems.append(f"L2 {pageno}[{index}]: secure bit on OS memory")
                    continue
                data_page = memmap.pageno_of(target)
                if types.get(data_page) is not PageType.DATA:
                    problems.append(
                        f"L2 {pageno}[{index}]: maps non-DATA page {data_page}"
                    )
                elif owners.get(data_page) != owners.get(pageno):
                    problems.append(f"L2 {pageno}[{index}]: crosses addrspaces")

    # -- free pages must be scrubbed ------------------------------------
    for pageno, page_type in types.items():
        if page_type is PageType.FREE:
            contents = memory.region_bytes(memmap.page_base(pageno), PAGE_SIZE)
            if contents != bytes(PAGE_SIZE):
                problems.append(f"free page {pageno} is not scrubbed")
            if owners.get(pageno, 0) != 0:
                problems.append(f"free page {pageno} has a stale owner word")

    return problems


def audit_monitor(mon: "KomodoMonitor") -> List[str]:
    """Full post-crash audit: spec invariants + machine-level walk.

    Returns a list of violation strings (empty = consistent).  Call
    only when the monitor should be quiescent — after ``recover()`` or
    between calls — since a handler mid-flight legitimately holds a
    transaction.
    """
    from repro.spec.invariants import collect_violations
    from repro.verification.extract import ExtractionError, extract_pagedb

    state = mon.state
    problems: List[str] = []
    if state.world is not World.NORMAL:
        problems.append(f"machine quiesced in {state.world!r}, not normal world")
    try:
        db = extract_pagedb(state)
    except (ExtractionError, ValueError) as exc:
        problems.append(f"pagedb extraction failed: {exc}")
    else:
        problems.extend(collect_violations(db, memmap=state.memmap))
    problems.extend(machine_consistency(state))
    return problems


def integrity_consistency(state: MachineState) -> List[str]:
    """Audit the memory-integrity engine's own metadata.

    Engine-level (tags/replica/flags agree with memory) plus the
    spec-level containment property: every quarantined page belongs to a
    stopped addrspace — corruption never spreads past one enclave.

    Deliberately *not* folded into :func:`audit_monitor`: harness code
    (e.g. the journal-protocol tests) legitimately drives monitor memory
    directly without maintaining tags, and plain crash audits must stay
    meaningful there.  The bit-flip campaign calls both.
    """
    from repro.monitor import integrity
    from repro.spec.invariants import collect_quarantine_violations
    from repro.verification.extract import ExtractionError, extract_pagedb

    problems = list(integrity.consistency_problems(state))
    quarantined = integrity.quarantined_pages(state)
    if quarantined:
        try:
            db = extract_pagedb(state)
        except (ExtractionError, ValueError) as exc:
            problems.append(f"pagedb extraction failed under quarantine: {exc}")
        else:
            problems.extend(collect_quarantine_violations(db, quarantined))
    return problems
