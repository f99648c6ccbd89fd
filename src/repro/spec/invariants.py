"""PageDB validity invariants (paper section 5.2).

A valid PageDB satisfies internal-consistency invariants: reference
counts are correct; internal references (including page-table pointers)
point to pages of the correct type belonging to the same address space;
and all leaf pages mapped in a page table are either insecure pages or
data pages allocated to the same address space.  The paper proves every
SMC and SVC preserves these; the harness *checks* them after every call.
"""

from __future__ import annotations

from typing import List

from repro.arm.memory import PAGE_SIZE, WORDS_PER_PAGE
from repro.arm.pagetable import L1_ENTRIES, L2_ENTRIES
from repro.monitor.layout import AddrspaceState
from repro.spec.pagedb import (
    AbsAddrspace,
    AbsData,
    AbsFree,
    AbsL1,
    AbsL2,
    AbsPageDb,
    AbsSpare,
    AbsThread,
)


class InvariantViolation(AssertionError):
    """A PageDB state failed a validity invariant."""


def check_invariants(db: AbsPageDb) -> None:
    """Check every validity invariant; raises InvariantViolation.

    The insecure-range checks on insecure mappings need the memory map,
    so they are skipped here (``collect_violations`` takes one).
    """
    failures = collect_violations(db) + collect_refcount_violations(db)
    if failures:
        raise InvariantViolation("; ".join(failures))


def collect_violations(db: AbsPageDb, memmap=None) -> List[str]:
    """All invariant violations in ``db`` (empty list = valid)."""
    failures: List[str] = []
    for pageno in range(db.npages):
        entry = db[pageno]
        if isinstance(entry, AbsFree):
            continue
        if isinstance(entry, AbsAddrspace):
            failures += _check_addrspace(db, pageno, entry)
        elif isinstance(entry, AbsThread):
            failures += _check_owned(db, pageno, entry.addrspace, "thread")
            failures += _check_thread(db, pageno, entry)
        elif isinstance(entry, AbsL1):
            failures += _check_owned(db, pageno, entry.addrspace, "L1 table")
            if not _owner_stopped(db, entry.addrspace):
                failures += _check_l1(db, pageno, entry)
        elif isinstance(entry, AbsL2):
            failures += _check_owned(db, pageno, entry.addrspace, "L2 table")
            if not _owner_stopped(db, entry.addrspace):
                failures += _check_l2(db, pageno, entry, memmap)
        elif isinstance(entry, AbsData):
            failures += _check_owned(db, pageno, entry.addrspace, "data page")
            if len(entry.contents) != WORDS_PER_PAGE:
                failures.append(f"data page {pageno} has wrong contents size")
        elif isinstance(entry, AbsSpare):
            failures += _check_owned(db, pageno, entry.addrspace, "spare page")
        else:
            failures.append(f"page {pageno} has unknown entry type {type(entry)}")
    return failures


def collect_refcount_violations(db: AbsPageDb) -> List[str]:
    """Audit every addrspace refcount against a from-scratch recount.

    Independent of :func:`collect_violations`'s per-addrspace check (which
    goes through ``AbsPageDb.pages_of``): this sweeps the whole PageDB
    once, tallies ownership attributions itself, and compares.  A bug in
    ``pages_of`` therefore cannot mask a refcount drift — the two checks
    only agree when both the counts and the ownership index are right.
    Used as the per-path postcondition of the symbolic SMC-path explorer.
    """
    counts = {}
    failures: List[str] = []
    for pageno in range(db.npages):
        entry = db[pageno]
        if isinstance(entry, AbsFree) or isinstance(entry, AbsAddrspace):
            continue
        owner = entry.addrspace
        counts[owner] = counts.get(owner, 0) + 1
    for owner in sorted(counts):
        if not db.valid_pageno(owner) or not isinstance(db[owner], AbsAddrspace):
            failures.append(
                f"refcount audit: {counts[owner]} page(s) attribute ownership "
                f"to {owner}, which is not an addrspace"
            )
    for pageno in range(db.npages):
        entry = db[pageno]
        if isinstance(entry, AbsAddrspace):
            recount = counts.get(pageno, 0)
            if entry.refcount != recount:
                failures.append(
                    f"refcount audit: addrspace {pageno} claims "
                    f"{entry.refcount} owned pages, recount found {recount}"
                )
    return failures


def collect_quarantine_violations(db: AbsPageDb, quarantined) -> List[str]:
    """The graceful-degradation property of the memory-integrity layer.

    A quarantined page keeps its PageDB entry (so refcounts and audits
    stay consistent), and quarantining force-stops exactly the owning
    addrspace: every page in ``quarantined`` must therefore still be
    allocated, and its owner must be a stopped addrspace.  Anything else
    means corruption escaped containment — the one thing the subsystem
    exists to prevent.
    """
    failures: List[str] = []
    for pageno in quarantined:
        if not db.valid_pageno(pageno):
            failures.append(f"quarantined page {pageno} out of range")
            continue
        entry = db[pageno]
        if isinstance(entry, AbsFree):
            failures.append(
                f"quarantined page {pageno} is free (flag not retired on Remove)"
            )
            continue
        owner = pageno if isinstance(entry, AbsAddrspace) else entry.addrspace
        if not _owner_stopped(db, owner):
            failures.append(
                f"quarantined page {pageno}: owner {owner} is not a stopped addrspace"
            )
    return failures


def _owner_stopped(db: AbsPageDb, addrspace: int) -> bool:
    """Page-table well-formedness is not required of *stopped* enclaves:
    the OS may Remove their pages in any order, leaving dangling table
    references, and a stopped enclave can never execute over them (the
    invariant weakening the paper describes for deallocation)."""
    if not db.valid_pageno(addrspace):
        return False
    entry = db[addrspace]
    return isinstance(entry, AbsAddrspace) and entry.state is AddrspaceState.STOPPED


def _check_owned(db: AbsPageDb, pageno: int, addrspace: int, kind: str) -> List[str]:
    """An allocated page's owner must be a live addrspace page."""
    if not db.valid_pageno(addrspace):
        return [f"{kind} {pageno} has invalid owner {addrspace}"]
    if not isinstance(db[addrspace], AbsAddrspace):
        return [f"{kind} {pageno} owner {addrspace} is not an addrspace"]
    return []


def _check_addrspace(db: AbsPageDb, pageno: int, entry: AbsAddrspace) -> List[str]:
    failures = []
    # Refcount correctness: counts every owned page except itself.
    owned = [p for p in db.pages_of(pageno) if p != pageno]
    if entry.refcount != len(owned):
        failures.append(
            f"addrspace {pageno} refcount {entry.refcount} != owned {len(owned)}"
        )
    # The L1 pointer references an L1 table of this addrspace.  A stopped
    # addrspace may already have had its L1 table removed (dangling
    # pointers are harmless once execution is impossible).
    if entry.state is not AddrspaceState.STOPPED:
        if not db.valid_pageno(entry.l1pt):
            failures.append(f"addrspace {pageno} l1pt {entry.l1pt} invalid")
        else:
            l1 = db[entry.l1pt]
            if not isinstance(l1, AbsL1):
                failures.append(
                    f"addrspace {pageno} l1pt {entry.l1pt} not an L1 table"
                )
            elif l1.addrspace != pageno:
                failures.append(f"addrspace {pageno} l1pt belongs to {l1.addrspace}")
    if entry.state not in (
        AddrspaceState.INIT,
        AddrspaceState.FINAL,
        AddrspaceState.STOPPED,
    ):
        failures.append(f"addrspace {pageno} has invalid state {entry.state}")
    # A finalised addrspace has a measurement; an INIT one does not.
    if entry.state is AddrspaceState.INIT and entry.measurement is not None:
        failures.append(f"addrspace {pageno} measured before finalisation")
    if entry.state is AddrspaceState.FINAL and entry.measurement is None:
        failures.append(f"addrspace {pageno} finalised without measurement")
    return failures


def _check_thread(db: AbsPageDb, pageno: int, entry: AbsThread) -> List[str]:
    failures = []
    if entry.entered and entry.context is None:
        failures.append(f"thread {pageno} entered without saved context")
    if not entry.entered and entry.context is not None:
        failures.append(f"thread {pageno} has stale context")
    if entry.context is not None and len(entry.context) != 17:
        failures.append(f"thread {pageno} context has wrong arity")
    if entry.in_handler and entry.fault_handler == 0:
        # A live handler frame with no registered handler is unreachable:
        # the upcall requires a handler, and clearing it from inside the
        # handler is rejected (INVALID_CALL).  Catches torn crash states.
        failures.append(f"thread {pageno} in fault handler without a registered handler")
    return failures


def _check_l1(db: AbsPageDb, pageno: int, entry: AbsL1) -> List[str]:
    failures = []
    if len(entry.entries) != L1_ENTRIES:
        return [f"L1 table {pageno} has wrong arity"]
    seen = set()
    for index, l2page in enumerate(entry.entries):
        if l2page is None:
            continue
        if not db.valid_pageno(l2page):
            failures.append(f"L1 {pageno}[{index}] -> invalid page {l2page}")
            continue
        target = db[l2page]
        if not isinstance(target, AbsL2):
            failures.append(f"L1 {pageno}[{index}] -> non-L2 page {l2page}")
        elif target.addrspace != entry.addrspace:
            failures.append(f"L1 {pageno}[{index}] crosses addrspaces")
        if l2page in seen:
            failures.append(f"L1 {pageno} references L2 {l2page} twice")
        seen.add(l2page)
    return failures


def _check_l2(db: AbsPageDb, pageno: int, entry: AbsL2, memmap) -> List[str]:
    failures = []
    if len(entry.entries) != L2_ENTRIES:
        return [f"L2 table {pageno} has wrong arity"]
    for index, mapping in enumerate(entry.entries):
        if mapping is None:
            continue
        both = mapping.secure_page is not None and mapping.insecure_base is not None
        neither = mapping.secure_page is None and mapping.insecure_base is None
        if both or neither:
            failures.append(f"L2 {pageno}[{index}] malformed mapping")
            continue
        if mapping.secure_page is not None:
            # Leaf secure pages must be data pages of the same addrspace.
            target = mapping.secure_page
            if not db.valid_pageno(target):
                failures.append(f"L2 {pageno}[{index}] -> invalid page {target}")
            elif not isinstance(db[target], AbsData):
                failures.append(f"L2 {pageno}[{index}] -> non-data secure page")
            elif db[target].addrspace != entry.addrspace:
                failures.append(f"L2 {pageno}[{index}] maps another enclave's page")
        else:
            # Insecure mappings must target insecure RAM and be
            # non-executable (the OS can rewrite them at will).
            if mapping.executable:
                failures.append(f"L2 {pageno}[{index}] executable insecure mapping")
            if memmap is not None:
                base = mapping.insecure_base
                if base % PAGE_SIZE or not memmap.is_insecure(base):
                    failures.append(
                        f"L2 {pageno}[{index}] insecure mapping outside insecure RAM"
                    )
        if not mapping.readable:
            failures.append(f"L2 {pageno}[{index}] unreadable mapping")
    return failures
