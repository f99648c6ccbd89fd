"""Monitor-side memory-integrity engine: tags, repair, quarantine.

Komodo's attestation argument (paper section 3.3) is only as strong as
the integrity of the PageDB and the enclave pages it measures; a DRAM
bit flip silently falsifies that assumption.  This module is the
monitor's defense, modeled on a memory-encryption-engine-style hardware
block (Gueron's MEE): word-granularity checksums over everything only
the monitor may write, verified before the monitor trusts it and
updated transactionally alongside the data they cover.

Coverage derives from the (repaired) PageDB instead of a stored status
word — a corruptible "checking disabled" bit would itself be a silent
failure mode:

* the PageDB array is covered by triple redundancy (primary entry +
  replica + per-entry checksum); any single corrupted word identifies
  itself and is *repaired* from the other two copies;
* ADDRSPACE, THREAD, L1PTABLE and L2PTABLE pages always carry a content
  tag (the monitor is their only writer);
* DATA pages carry a valid tag exactly while their addrspace's *dirty
  flag* is clear: user-mode stores are architecturally immediate and
  invisible to the engine, so the flag is set (transactionally) before
  Enter/Resume drops to user mode and cleared in the same transaction
  that refreshes the DATA tags once execution finally leaves the
  enclave — at every point in between, including any crash-recovery
  state, the flag says the tags are not to be trusted;
* FREE and SPARE pages are untagged: their contents are dead (both are
  zero-filled before any read) — a flip there is provably benign, and
  ``SMC_SCRUB`` heals them back to zero.

A tag mismatch cannot be repaired — the page's true contents are gone —
so the monitor **quarantines** the page: zero it, force-stop the owning
addrspace (sanitizing the addrspace page itself if that is what was
hit), retag over the sanitized contents, and record the quarantine
flag.  The SMC that tripped the check returns ``KomErr.PAGE_QUARANTINED``
with the page number; every other enclave and the OS stay fully
operational, and the OS reclaims the pages through the normal
Stop/Remove path (Remove clears the quarantine flag).

Like the MEE, which keeps verified nodes on chip and re-checks only
what comes back from DRAM, the engine re-derives only what changed.
Page CRCs are memoised on ``(page base, PhysicalMemory.page_stamp)``:
a page written since the last snapshot has no stamp and is re-hashed,
so a bit flip (a write) is always caught at the next check.  The
PageDB verdict is memoised on the *content* of the primary PageDB and
its replica+checksum span (the ITAG page's dirty flags change inside
every Enter, so a stamp key would always miss); equal bytes give an
equal verdict by construction, and a repair is never cached.  Both
memos are bounded (``PAGE_CRC_MEMO_SIZE``, ``PAGEDB_MEMO_SIZE``).

Each rule is written once: :func:`_survey` (which tagged pages fail
their tag, in quarantine order) serves :func:`precheck`, :func:`scrub`
and the audit walk :func:`consistency_problems`, which differ only in
the DATA-page owners they pass; :func:`_stray_flags` decides which
quarantine flags scrub heals and the audit reports; and
:func:`_entry_stores` derives an entry's redundancy everywhere.

All engine work — verification, repair, retagging — charges **zero
cycles** (it models a hardware pipeline stage, not monitor software):
it reads memory directly, never through the CPU, so the cost model is
untouched.
Tag updates ride inside the commit journal: ``run_transactional``
asks :func:`record_tag_ops` to append tag writes to the transaction at
its commit point, so data and tags are crash-atomic together.
"""

from __future__ import annotations

import functools
import zlib
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Set, Tuple

from repro.arm.bits import WORDSIZE
from repro.arm.machine import MachineState
from repro.arm.memory import PAGE_SIZE, WORDS_PER_PAGE, _TYPECODE
from repro.arm.memory import PhysicalMemory, StampMemo
from repro.monitor.layout import (
    AS_REFCOUNT_WORD,
    AS_STATE_WORD,
    AddrspaceState,
    ITAG_MAGIC,
    JE_WRITE,
    JOURNAL_OFFSET,
    ITAG_OFFSET,
    PAGEDB_ENTRY_WORDS,
    PAGEDB_OFFSET,
    PageType,
    itag_dirty_addr,
    itag_entry_sum_addr,
    itag_magic_addr,
    itag_page_tag_addr,
    itag_quarantine_addr,
    itag_replica_addr,
    itag_words_used,
    pagedb_entry_addr,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.komodo import KomodoMonitor

#: Page types whose contents only the monitor writes; always tagged.
_ALWAYS_TAGGED = frozenset(
    int(t)
    for t in (PageType.ADDRSPACE, PageType.THREAD, PageType.L1PTABLE, PageType.L2PTABLE)
)

#: Page types whose contents are dead until zero-filled; never tagged.
_NEVER_TAGGED = frozenset((int(PageType.FREE), int(PageType.SPARE)))


@dataclass
class PrecheckReport:
    """What an integrity check found and did."""

    repaired: int = 0  # PageDB entries repaired from redundancy
    healed: int = 0  # free/spare pages scrubbed back to zero
    quarantined: List[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Checksums and engine-private accesses
# ---------------------------------------------------------------------------


def page_checksum(words: Iterable[int]) -> int:
    """Content tag over one page of words.

    CRC-32 detects every single-bit (indeed every burst-of-32) error,
    which is exactly the fault model; it is not keyed because the tag
    region lives in monitor data memory the OS can never read or write.
    Equal to the CRC-32 of the page's ``region_bytes``.
    """
    return zlib.crc32(array(_TYPECODE, words)) & 0xFFFFFFFF


#: Bound on :func:`entry_checksum`'s memo.  A healthy PageDB holds a few
#: (type, owner) pairs per addrspace; flipped words add one pair each.
ENTRY_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=ENTRY_MEMO_SIZE)
def entry_checksum(type_word: int, owner_word: int) -> int:
    """Checksum of one PageDB entry (memoised, bounded)."""
    return zlib.crc32(array(_TYPECODE, (type_word, owner_word))) & 0xFFFFFFFF


#: Bound on the page-CRC memo: one entry per (page, stamp) pair, and a
#: run re-stamps a page only when a snapshot captures it written.
PAGE_CRC_MEMO_SIZE = 4096

_PAGE_CRCS = StampMemo(PAGE_CRC_MEMO_SIZE)


def _page_crc(memory: PhysicalMemory, base: int) -> int:
    """Content tag of the page at ``base``, memoised on its stamp."""
    return _PAGE_CRCS.lookup(memory, base, _region_crc, memory, base)


def _region_crc(memory: PhysicalMemory, base: int) -> int:
    """:func:`page_checksum` of the page at ``base``, from its bytes.
    (A function, not a per-call lambda: lookups that hit never build it.)"""
    return zlib.crc32(memory.region_bytes(base, PAGE_SIZE))


def _entry_stores(
    base: int, npages: int, pageno: int, type_word: int, owner_word: int
) -> Tuple[Tuple[int, int], ...]:
    """The ``(address, value)`` stores of an entry's replica and checksum."""
    replica = itag_replica_addr(base, pageno)
    sum_addr = itag_entry_sum_addr(base, npages, pageno)
    return (
        (replica, type_word),
        (replica + WORDSIZE, owner_word),
        (sum_addr, entry_checksum(type_word, owner_word)),
    )


# ---------------------------------------------------------------------------
# Region lifecycle
# ---------------------------------------------------------------------------


def enabled(state: MachineState) -> bool:
    """True once the bootloader initialised the tag region."""
    return (
        state.memory.read_word(itag_magic_addr(state.memmap.monitor_image.base))
        == ITAG_MAGIC
    )


def initialise(state: MachineState) -> None:
    """Bootloader duty: lay out the tag region over the zeroed PageDB.

    Runs after the PageDB itself is zeroed, so the replica (all zeros,
    already true of boot-scrubbed RAM) and the per-entry checksums are
    consistent from the first instruction the OS ever runs.
    """
    base = state.memmap.monitor_image.base
    npages = state.memmap.secure_pages
    if itag_words_used(npages) * WORDSIZE > JOURNAL_OFFSET - ITAG_OFFSET:
        raise ValueError(f"integrity-tag region cannot cover {npages} pages")
    free_sum = entry_checksum(int(PageType.FREE), 0)
    state.memory.write_words(
        itag_entry_sum_addr(base, npages, 0), [free_sum] * npages
    )
    state.memory.write_word(itag_magic_addr(base), ITAG_MAGIC)


def quarantined_pages(state: MachineState) -> List[int]:
    """Secure pages currently flagged as quarantined."""
    if not enabled(state):
        return []
    base = state.memmap.monitor_image.base
    npages = state.memmap.secure_pages
    flags = state.memory.read_words(itag_quarantine_addr(base, npages, 0), npages)
    return [pageno for pageno, flag in enumerate(flags) if flag]


# ---------------------------------------------------------------------------
# Transactional tag maintenance (the run_transactional commit hook)
# ---------------------------------------------------------------------------


def record_tag_ops(state: MachineState, txn) -> None:
    """Append tag-update writes for a transaction about to commit.

    Derives, from the buffered operations, every PageDB entry and secure
    page the commit will change, and appends the matching replica /
    checksum / content-tag stores to the same transaction — data and
    tags reach memory through one journal commit, so a crash at any
    point leaves them consistent together.
    """
    memmap = state.memmap
    base = memmap.monitor_image.base
    npages = memmap.secure_pages
    if state.memory.read_word(itag_magic_addr(base)) != ITAG_MAGIC:
        return
    pagedb_base = base + PAGEDB_OFFSET
    pagedb_limit = pagedb_base + npages * PAGEDB_ENTRY_WORDS * WORDSIZE
    touched_pages: Set[int] = set()
    touched_entries: Set[int] = set()
    for op in list(txn.ops):
        address = op[1]
        if memmap.is_secure(address):
            touched_pages.add(memmap.pageno_of(address))
        elif op[0] == JE_WRITE and pagedb_base <= address < pagedb_limit:
            touched_entries.add(
                (address - pagedb_base) // (PAGEDB_ENTRY_WORDS * WORDSIZE)
            )
    if not touched_pages and not touched_entries:
        return
    for pageno in sorted(touched_entries):
        type_word, owner_word = txn.read_words(
            state.memory, pagedb_entry_addr(base, pageno), PAGEDB_ENTRY_WORDS
        )
        for address, value in _entry_stores(
            base, npages, pageno, type_word, owner_word
        ):
            txn.record_write(address, value)
        if type_word == int(PageType.FREE):
            # Deallocation retires the quarantine and dirty flags.
            txn.record_write(itag_quarantine_addr(base, npages, pageno), 0)
            txn.record_write(itag_dirty_addr(base, npages, pageno), 0)
    for pageno in sorted(touched_pages):
        type_word = txn.read(pagedb_entry_addr(base, pageno))
        if type_word is None:
            type_word = state.memory.read_word(pagedb_entry_addr(base, pageno))
        if type_word in _NEVER_TAGGED:
            tag = 0
        else:
            tag = page_checksum(
                txn.read_words(
                    state.memory, memmap.page_base(pageno), WORDS_PER_PAGE
                )
            )
        txn.record_write(itag_page_tag_addr(base, npages, pageno), tag)


def resync(state: MachineState) -> None:
    """Rebuild every tag from current memory (engine resynchronisation).

    Harness-only: test fixtures that mutate secure memory behind the
    machine's back (e.g. the noninterference perturbations) use this to
    model the perturbation as part of the world's history rather than as
    a corruption event.  Never called by monitor code.
    """
    if not enabled(state):
        return
    memmap = state.memmap
    base = memmap.monitor_image.base
    npages = memmap.secure_pages
    memory = state.memory
    entries = memory.read_words(pagedb_entry_addr(base, 0), npages * 2)
    for pageno in range(npages):
        type_word, owner_word = entries[2 * pageno : 2 * pageno + 2]
        for address, value in _entry_stores(
            base, npages, pageno, type_word, owner_word
        ):
            memory.write_word(address, value)
        if type_word in _NEVER_TAGGED:
            tag = 0
        else:
            tag = _page_crc(memory, memmap.page_base(pageno))
        memory.write_word(itag_page_tag_addr(base, npages, pageno), tag)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def check_pagedb(
    state: MachineState,
) -> Tuple[Dict[int, int], Dict[int, int], List[Tuple[int, int]], int]:
    """Verify the PageDB against its replica and checksums.

    Returns ``(types, owners, fixes, repaired_entries)`` where *types* /
    *owners* are the repaired view (raw words) and *fixes* are the
    ``(address, value)`` stores that realise the repairs.  A single
    corrupted word always identifies itself: the checksum arbitrates
    between primary and replica, and the two copies arbitrate a
    corrupted checksum.

    The common case, all three copies agreeing, is decided by two list
    comparisons against the memoised entry checksums and remembered
    under the bytes of the primary PageDB and of the replica+checksum
    span, so a repeat costs two slices and a lookup.  Anything else goes
    through the per-entry loop of :func:`_repair_pagedb`, which is the
    only code that decides a repair, and is never remembered.
    """
    memmap = state.memmap
    base = memmap.monitor_image.base
    npages = memmap.secure_pages
    memory = state.memory
    key = (
        memory.region_bytes(pagedb_entry_addr(base, 0), npages * 2 * WORDSIZE),
        # The replica array is followed directly by the entry checksums.
        memory.region_bytes(itag_replica_addr(base, 0), npages * 3 * WORDSIZE),
    )
    agreed = _AGREEING.get(key)
    if agreed is None:
        primary = memoryview(key[0]).cast(_TYPECODE).tolist()
        redundancy = memoryview(key[1]).cast(_TYPECODE).tolist()
        replica, sums = redundancy[: npages * 2], redundancy[npages * 2 :]
        type_words = primary[0::2]
        owner_words = primary[1::2]
        if primary != replica or sums != list(
            map(entry_checksum, type_words, owner_words)
        ):
            return _repair_pagedb(state, primary, replica, sums)
        if len(_AGREEING) >= PAGEDB_MEMO_SIZE:
            del _AGREEING[next(iter(_AGREEING))]
        agreed = _AGREEING[key] = (type_words, owner_words)
    return dict(enumerate(agreed[0])), dict(enumerate(agreed[1])), [], 0


#: Bound on :func:`check_pagedb`'s memo of agreeing PageDB images (one
#: per distinct PageDB a run passes through between repairs).
PAGEDB_MEMO_SIZE = 256

_AGREEING: Dict[Tuple[bytes, bytes], Tuple[List[int], List[int]]] = {}


def _repair_pagedb(
    state: MachineState, primary: List[int], replica: List[int], sums: List[int]
) -> Tuple[Dict[int, int], Dict[int, int], List[Tuple[int, int]], int]:
    """The per-entry arbitration behind :func:`check_pagedb`."""
    base = state.memmap.monitor_image.base
    npages = state.memmap.secure_pages
    types: Dict[int, int] = {}
    owners: Dict[int, int] = {}
    fixes: List[Tuple[int, int]] = []
    repaired = 0
    for pageno in range(npages):
        pt, po = primary[2 * pageno : 2 * pageno + 2]
        rt, ro = replica[2 * pageno : 2 * pageno + 2]
        stored = sums[pageno]
        if (pt, po) != (rt, ro) or entry_checksum(pt, po) != stored:
            repaired += 1
            redundancy = _entry_stores(base, npages, pageno, pt, po)
            if entry_checksum(pt, po) == stored:  # replica corrupted
                fixes.extend(redundancy[:2])
            elif entry_checksum(rt, ro) == stored:  # primary corrupted
                entry_addr = pagedb_entry_addr(base, pageno)
                fixes.extend(((entry_addr, rt), (entry_addr + WORDSIZE, ro)))
                pt, po = rt, ro
            elif (pt, po) == (rt, ro):  # checksum corrupted
                fixes.append(redundancy[2])
            else:
                # Multi-word corruption (outside the single-flip model):
                # trust the primary, rewrite the redundancy around it.
                fixes.extend(redundancy)
        types[pageno] = pt
        owners[pageno] = po
    return types, owners, fixes, repaired


def _survey(
    state: MachineState,
    types: Dict[int, int],
    owners: Dict[int, int],
    data_owners: Callable[[List[int]], Set[int]],
) -> List[int]:
    """Pages whose content fails their tag, in quarantine order (which
    sets the journal's op order): the always-tagged pages *metadata*,
    then the DATA pages owned by ``data_owners(metadata)``, each in page
    order.  Tags are read fresh, so a flip in a tag word is caught too.
    """
    memory = state.memory
    page_base = state.memmap.page_base
    base = state.memmap.monitor_image.base
    npages = state.memmap.secure_pages
    tags = memory.read_words(itag_page_tag_addr(base, npages, 0), npages)
    suspects = [
        pageno
        for pageno, type_word in types.items()
        if type_word in _ALWAYS_TAGGED
        and _page_crc(memory, page_base(pageno)) != tags[pageno]
    ]
    checked = data_owners(suspects)
    if checked:
        data = int(PageType.DATA)
        suspects += [
            pageno
            for pageno, type_word in types.items()
            if type_word == data
            and owners[pageno] in checked
            and _page_crc(memory, page_base(pageno)) != tags[pageno]
        ]
    return suspects


def _stray_flags(
    state: MachineState, types: Dict[int, int], owners: Dict[int, int]
) -> List[Tuple[int, int]]:
    """``(pageno, owner)`` of each stray quarantine flag: one on a FREE
    page or whose owner (an addrspace owns itself) is not a STOPPED
    addrspace.  A genuine quarantine stops the owner in the commit that
    sets the flag and deallocation clears it, so only a flip strays."""
    memory = state.memory
    memmap = state.memmap
    npages = memmap.secure_pages
    flags = memory.read_words(
        itag_quarantine_addr(memmap.monitor_image.base, npages, 0), npages
    )
    stray = []
    for pageno, flag in enumerate(flags):
        if not flag:
            continue
        type_word = types[pageno]
        owner = pageno if type_word == int(PageType.ADDRSPACE) else owners[pageno]
        if type_word == int(PageType.FREE) or not (
            types.get(owner) == int(PageType.ADDRSPACE)
            and memory.read_word(memmap.page_base(owner) + AS_STATE_WORD * WORDSIZE)
            == int(AddrspaceState.STOPPED)
        ):
            stray.append((pageno, owner))
    return stray


def _dirty_addrspaces(state: MachineState) -> Set[int]:
    """Addrspaces whose DATA tags are currently stale by protocol."""
    base = state.memmap.monitor_image.base
    npages = state.memmap.secure_pages
    flags = state.memory.read_words(itag_dirty_addr(base, npages, 0), npages)
    return {asno for asno, flag in enumerate(flags) if flag}


def mark_dirty(mon: "KomodoMonitor", asno: int) -> None:
    """Declare ``asno``'s DATA tags stale before dropping to user mode.

    Committed through its own journal window *before* the first user
    instruction can store, so no reachable state — including any
    crash-recovery state — has fresh-looking tags over user-modified
    pages.  Idempotent and write-free when the flag is already set
    (Resume of a suspended thread, re-entry after an interrupt).
    """
    from repro.monitor.journal import run_transactional

    state = mon.state
    if not enabled(state):
        return
    address = itag_dirty_addr(
        state.memmap.monitor_image.base, state.memmap.secure_pages, asno
    )
    if state.memory.read_word(address):
        return
    run_transactional(
        state, lambda: state.txn.record_write(address, 1), commit_if=lambda _: True
    )


# ---------------------------------------------------------------------------
# Quarantine
# ---------------------------------------------------------------------------


def _quarantine_in_txn(
    state: MachineState,
    types: Dict[int, int],
    owners: Dict[int, int],
    suspects: List[int],
) -> None:
    """Quarantine ``suspects``: zero, force-stop owner, flag.

    Must run inside an open transaction (the caller's always-commit
    window), so the whole containment action is crash-atomic and the
    commit hook retags the sanitized pages.

    The page keeps its PageDB entry — refcounts stay consistent and the
    OS reclaims it through the ordinary Stop/Remove path.  If the
    corrupted page *is* an addrspace page, its metadata is rebuilt
    minimally sane: state STOPPED, refcount recomputed from the PageDB,
    nothing else — the enclave is gone, but the teardown ABI still works.
    """
    txn = state.txn
    memmap = state.memmap
    base = memmap.monitor_image.base
    npages = memmap.secure_pages
    # Sanitize addrspace pages first so force-stops of sibling suspects
    # land on the rebuilt state word, not the about-to-be-zeroed page.
    for pageno in sorted(suspects, key=lambda p: types[p] != int(PageType.ADDRSPACE)):
        page_base = memmap.page_base(pageno)
        txn.record_zero(page_base)
        if types[pageno] == int(PageType.ADDRSPACE):
            refcount = sum(
                1
                for other, type_word in types.items()
                if other != pageno
                and type_word != int(PageType.FREE)
                and owners[other] == pageno
            )
            txn.record_write(
                page_base + AS_STATE_WORD * WORDSIZE,
                int(AddrspaceState.STOPPED),
            )
            txn.record_write(page_base + AS_REFCOUNT_WORD * WORDSIZE, refcount)
        else:
            owner = owners[pageno]
            if types.get(owner) == int(PageType.ADDRSPACE):
                txn.record_write(
                    memmap.page_base(owner) + AS_STATE_WORD * WORDSIZE,
                    int(AddrspaceState.STOPPED),
                )
        txn.record_write(itag_quarantine_addr(base, npages, pageno), 1)


# ---------------------------------------------------------------------------
# The lazy precheck (SMC/SVC entry) and the scrub sweep
# ---------------------------------------------------------------------------


def precheck(mon: "KomodoMonitor", enter_thread: int = None) -> PrecheckReport:
    """Verify what the next handler will trust; repair or quarantine.

    Always: the PageDB (repairable) and every metadata page (addrspace,
    thread, page-table — only the monitor writes these, so their tags
    are always live).  With ``enter_thread`` (an Enter/Resume target):
    additionally that thread's addrspace's DATA pages, provided its
    dirty flag is clear (a set flag means user stores made the tags
    stale — they are refreshed in the exit window instead).

    Zero cycles, zero effect on a clean state: the repair/quarantine
    transaction is opened only when something is wrong, so fault-point
    sequences and state digests of uncorrupted runs are unchanged.
    """
    from repro.monitor.journal import run_transactional

    state = mon.state
    report = PrecheckReport()
    if not enabled(state):
        return report
    types, owners, fixes, repaired = check_pagedb(state)
    report.repaired = repaired
    entered = set()
    if enter_thread in types and types[enter_thread] == int(PageType.THREAD):
        asno = owners[enter_thread]
        clean = asno not in _dirty_addrspaces(state)
        if types.get(asno) == int(PageType.ADDRSPACE) and clean:
            entered = {asno}
    suspects = _survey(state, types, owners, lambda _metadata: entered)
    if fixes or suspects:

        def _contain():
            for address, value in fixes:
                state.txn.record_write(address, value)
            _quarantine_in_txn(state, types, owners, suspects)

        run_transactional(state, _contain, commit_if=lambda _: True)
    report.quarantined = sorted(suspects)
    return report


def scrub(mon: "KomodoMonitor") -> PrecheckReport:
    """The full periodic sweep behind ``SMC_SCRUB``.

    Everything :func:`precheck` covers, over every page, plus healing:
    FREE and SPARE pages (whose contents are dead) are re-zeroed if a
    flip landed in them, and DATA pages of every clean (non-dirty)
    addrspace are verified.  Runs inside the dispatching SMC's
    transaction.
    """
    state = mon.state
    report = PrecheckReport()
    if not enabled(state):
        return report
    memmap = state.memmap
    types, owners, fixes, repaired = check_pagedb(state)
    report.repaired = repaired
    for address, value in fixes:
        state.txn.record_write(address, value)
    # DATA pages of a metadata suspect are left to its quarantine.
    clean = set(owners.values()) - _dirty_addrspaces(state)
    suspects = _survey(state, types, owners, clean.difference)
    for pageno, type_word in types.items():
        page_base = memmap.page_base(pageno)
        if type_word in _NEVER_TAGGED and any(
            state.memory.read_words(page_base, WORDS_PER_PAGE)
        ):
            state.txn.record_zero(page_base)
            report.healed += 1
    base = memmap.monitor_image.base
    npages = memmap.secure_pages
    # Heal corrupted engine flags: stray quarantine flags, and dirty
    # flags off addrspace pages (a genuine one belongs to an addrspace).
    for pageno, _owner in _stray_flags(state, types, owners):
        if pageno not in suspects:
            state.txn.record_write(itag_quarantine_addr(base, npages, pageno), 0)
            report.healed += 1
    dirty_flags = state.memory.read_words(itag_dirty_addr(base, npages, 0), npages)
    for asno, flag in enumerate(dirty_flags):
        if flag and types[asno] != int(PageType.ADDRSPACE):
            state.txn.record_write(itag_dirty_addr(base, npages, asno), 0)
            report.healed += 1
    _quarantine_in_txn(state, types, owners, suspects)
    report.quarantined = sorted(suspects)
    return report


def refresh_data_tags(mon: "KomodoMonitor", asno: int) -> None:
    """Exit-window retag of an addrspace's DATA pages.

    Called from the Enter/Resume exit bookkeeping once execution has
    finally left the enclave (Exit or fault — not interrupt suspension,
    which keeps the dirty flag set): user-mode stores changed data pages
    without the engine seeing them, so their tags are recomputed here
    and the dirty flag cleared, in one crash-atomic window — tags are
    declared trustworthy only in the same commit that makes them so.
    """
    from repro.monitor.journal import run_transactional

    state = mon.state
    if not enabled(state):
        return
    memmap = state.memmap
    base = memmap.monitor_image.base
    npages = memmap.secure_pages
    if not state.memory.read_word(itag_dirty_addr(base, npages, asno)):
        return
    entries = state.memory.read_words(pagedb_entry_addr(base, 0), npages * 2)
    data_pages = [
        pageno
        for pageno in range(npages)
        if entries[2 * pageno] == int(PageType.DATA)
        and entries[2 * pageno + 1] == asno
    ]

    def _retag():
        for pageno in data_pages:
            state.txn.record_write(
                itag_page_tag_addr(base, npages, pageno),
                _page_crc(state.memory, memmap.page_base(pageno)),
            )
        state.txn.record_write(itag_dirty_addr(base, npages, asno), 0)

    run_transactional(state, _retag, commit_if=lambda _: True)


# ---------------------------------------------------------------------------
# Audit support (repro.faults / spec invariants)
# ---------------------------------------------------------------------------


def consistency_problems(state: MachineState) -> List[str]:
    """Raw engine-level consistency walk for post-injection audits.

    Checks, with the machine quiescent: PageDB triple redundancy agrees;
    every expected-live tag matches its page (:func:`_survey` over every
    clean owner); no quarantine flag is stray (:func:`_stray_flags`).
    Shares these rules with the engine on purpose — the *independent*
    cross-check is the dual spec+machine audit in ``repro.faults.audit``,
    which never reads tags.
    """
    if not enabled(state):
        return []
    problems: List[str] = []
    types, owners, fixes, _repaired = check_pagedb(state)
    if fixes:
        problems.append(f"pagedb redundancy disagrees ({len(fixes)} pending fixes)")
    clean = set(owners.values()) - _dirty_addrspaces(state)
    for pageno in sorted(_survey(state, types, owners, lambda _metadata: clean)):
        problems.append(f"page {pageno} content does not match its tag")
    for pageno, owner in _stray_flags(state, types, owners):
        if types[pageno] == int(PageType.FREE):
            problems.append(f"free page {pageno} still flagged quarantined")
        else:
            problems.append(
                f"quarantined page {pageno}: owner {owner} is not a stopped addrspace"
            )
    return problems
