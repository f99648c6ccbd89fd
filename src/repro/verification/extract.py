"""Extraction: concrete machine state -> abstract PageDB.

This function is the refinement witness: it reconstructs the
specification's abstract PageDB using only the layout definitions in
``repro.monitor.layout`` and the words in machine memory.  If the
implementation's representation ever diverges from what the spec
requires (e.g. a measurement hash state that doesn't match the abstract
measured sequence, or a page-table word inconsistent with the abstract
table), extraction or the subsequent comparison fails.

Page-table decoding is memoised per table page on ``(base,
PhysicalMemory.page_stamp)`` (``TABLE_MEMO_SIZE`` entries per level):
a table written since the last snapshot is decoded afresh, and a
decoding that raises ``ExtractionError`` is never remembered.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.arm.machine import MachineState
from repro.arm.memory import WORDS_PER_PAGE, StampMemo
from repro.arm.pagetable import (
    DESC_INVALID,
    DESC_L1_COARSE,
    DESC_L2_SMALL,
    L1_ENTRIES,
    L2_ENTRIES,
    PERM_R,
    PERM_SECURE,
    PERM_W,
    PERM_X,
    entry_target,
    entry_type,
)
from repro.monitor.layout import AddrspaceState, PageType
from repro.monitor.pagedb import PageDB
from repro.spec.pagedb import (
    AbsAddrspace,
    AbsData,
    AbsFree,
    AbsL1,
    AbsL2,
    AbsMappingEntry,
    AbsPageDb,
    AbsSpare,
    AbsThread,
)


class ExtractionError(AssertionError):
    """The concrete state has no abstract counterpart (refinement broken)."""


#: Bound on each page-table decoding memo (entries per table level).
TABLE_MEMO_SIZE = 1024

_L1_MEMO = StampMemo(TABLE_MEMO_SIZE)
_L2_MEMO = StampMemo(TABLE_MEMO_SIZE)


def extract_pagedb(state: MachineState) -> AbsPageDb:
    """Reconstruct the abstract PageDB from concrete machine state.

    The abstract ``measured`` sequence cannot be recovered from a hash
    state (SHA-256 is one-way), so extraction leaves it empty and the
    refinement checker instead *tracks* the spec-side sequence and checks
    the implementation's chaining state against a replay of it; see
    ``refinement.CheckedMonitor._check_measurement``.
    """
    pagedb = PageDB(state)
    entries = []
    for pageno in range(pagedb.npages):
        entries.append(_extract_entry(state, pagedb, pageno))
    return AbsPageDb(npages=pagedb.npages, entries=tuple(entries))


def _extract_entry(state: MachineState, pagedb: PageDB, pageno: int):
    page_type = pagedb.page_type(pageno)
    owner = pagedb.owner(pageno)
    if page_type is PageType.FREE:
        return AbsFree()
    if page_type is PageType.ADDRSPACE:
        as_state = pagedb.addrspace_state(pageno)
        measurement: Optional[Tuple[int, ...]] = None
        if pagedb.was_measured(pageno):
            measurement = tuple(pagedb.measurement(pageno))
        return AbsAddrspace(
            state=as_state,
            refcount=pagedb.refcount(pageno),
            l1pt=pagedb.l1pt_page(pageno),
            measured=(),  # unrecoverable; checked via hash replay
            measurement=measurement,
        )
    if page_type is PageType.THREAD:
        entered = pagedb.thread_entered(pageno)
        context: Optional[Tuple[int, ...]] = None
        if entered:
            gprs, sp, lr, pc, cpsr = pagedb.load_thread_context(pageno)
            context = tuple(gprs) + (sp, lr, pc, cpsr)
        return AbsThread(
            addrspace=owner,
            entrypoint=pagedb.thread_entrypoint(pageno),
            entered=entered,
            context=context,
            fault_handler=pagedb.fault_handler(pageno),
            in_handler=pagedb.in_fault_handler(pageno),
        )
    if page_type is PageType.L1PTABLE:
        return _extract_l1(state, pagedb, pageno, owner)
    if page_type is PageType.L2PTABLE:
        return _extract_l2(state, pagedb, pageno, owner)
    if page_type is PageType.DATA:
        base = pagedb.page_base(pageno)
        contents = tuple(state.memory.read_words(base, WORDS_PER_PAGE))
        return AbsData(addrspace=owner, contents=contents)
    if page_type is PageType.SPARE:
        return AbsSpare(addrspace=owner)
    raise ExtractionError(f"page {pageno} has unknown type {page_type}")


def _extract_l1(state: MachineState, pagedb: PageDB, pageno: int, owner: int) -> AbsL1:
    base = pagedb.page_base(pageno)
    entries = _L1_MEMO.lookup(state.memory, base, _decode_l1, state, pageno, base)
    return AbsL1(addrspace=owner, entries=entries)


def _decode_l1(state: MachineState, pageno: int, base: int) -> Tuple:
    entries = []
    for index, word in enumerate(state.memory.read_words(base, L1_ENTRIES)):
        kind = entry_type(word)
        if kind == DESC_INVALID:
            entries.append(None)
        elif kind == DESC_L1_COARSE:
            target = entry_target(word)
            if not state.memmap.is_secure(target):
                raise ExtractionError(
                    f"L1 {pageno}[{index}] points outside secure memory"
                )
            entries.append(state.memmap.pageno_of(target))
        else:
            raise ExtractionError(f"L1 {pageno}[{index}] has malformed descriptor")
    return tuple(entries)


def _extract_l2(state: MachineState, pagedb: PageDB, pageno: int, owner: int) -> AbsL2:
    base = pagedb.page_base(pageno)
    entries = _L2_MEMO.lookup(state.memory, base, _decode_l2, state, pageno, base)
    return AbsL2(addrspace=owner, entries=entries)


def _decode_l2(state: MachineState, pageno: int, base: int) -> Tuple:
    entries = []
    for index, word in enumerate(state.memory.read_words(base, L2_ENTRIES)):
        kind = entry_type(word)
        if kind == DESC_INVALID:
            entries.append(None)
            continue
        if kind != DESC_L2_SMALL:
            raise ExtractionError(f"L2 {pageno}[{index}] has malformed descriptor")
        target = entry_target(word)
        secure = bool(word & PERM_SECURE)
        if secure:
            if not state.memmap.is_secure(target):
                raise ExtractionError(
                    f"L2 {pageno}[{index}] secure bit set on insecure target"
                )
            mapping = AbsMappingEntry(
                secure_page=state.memmap.pageno_of(target),
                insecure_base=None,
                readable=bool(word & PERM_R),
                writable=bool(word & PERM_W),
                executable=bool(word & PERM_X),
            )
        else:
            mapping = AbsMappingEntry(
                secure_page=None,
                insecure_base=target,
                readable=bool(word & PERM_R),
                writable=bool(word & PERM_W),
                executable=bool(word & PERM_X),
            )
        entries.append(mapping)
    return tuple(entries)
