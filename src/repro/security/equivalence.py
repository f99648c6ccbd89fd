"""Observational-equivalence relations (paper Definitions 1 and 2).

Two notions of "looks the same":

* ``pages_weak_equivalent`` (=enc, Definition 1): how a PageDB entry
  outside an observer enclave's address space appears to that enclave —
  data pages and spare pages are indistinguishable beyond their type,
  threads beyond their entered flag; page tables and addrspaces are
  fully visible (their structure is OS-controlled anyway).

* ``enc_equivalent`` (≈enc, Definition 2): two PageDBs are equivalent to
  an enclave observer iff the free-page set matches, the observer's page
  set matches, pages outside the observer are weakly equivalent, and the
  observer's own pages are *identical*.

* ``adv_equivalent`` (≈adv): the OS-colluding-with-an-enclave observer —
  ≈enc for the malicious enclave, plus equality of the general-purpose
  registers, banked registers (except monitor mode), and all of insecure
  memory.

* ``enc_set_equivalent`` / ``adv_set_equivalent``: the colluding-set
  generalisation used by the composite-pipeline experiments — several
  enclaves pool their observations (each sees its own pages exactly),
  so the observer's page set is the union over the coalition.  With a
  singleton set these degenerate to Definitions 1/2; the single-observer
  names above remain as wrappers.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.arm.machine import MachineState
from repro.arm.memory import differing_words
from repro.arm.modes import Mode
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


def pages_weak_equivalent(e1, e2) -> bool:
    """=enc: entries outside the observer's address space look the same.

    Per Definition 1: both data pages, or both spare pages, or both
    threads with equal entered flags, or both page-table/addrspace pages
    that are structurally equal.
    """
    if isinstance(e1, AbsData) and isinstance(e2, AbsData):
        return True
    if isinstance(e1, AbsSpare) and isinstance(e2, AbsSpare):
        return True
    if isinstance(e1, AbsThread) and isinstance(e2, AbsThread):
        return e1.entered == e2.entered
    structural = (AbsL1, AbsL2, AbsAddrspace)
    if isinstance(e1, structural) and isinstance(e2, structural):
        return e1 == e2
    return False


def enc_set_equivalent(
    d1: AbsPageDb,
    d2: AbsPageDb,
    encs: Iterable[int],
    failures: Optional[List[str]] = None,
) -> bool:
    """≈enc for a coalition: PageDBs equivalent to a set of colluding
    enclave observers.

    The coalition pools everything its members see, so its own-page set
    is the union of the members' page sets; every page in the union must
    be identical and everything outside it weakly equivalent.

    ``failures`` (optional) collects human-readable reasons, which makes
    counterexamples from the property-based tests diagnosable.
    """
    observers = tuple(encs)
    log = failures if failures is not None else []
    if d1.npages != d2.npages:
        log.append("different page counts")
        return not log
    free1 = set(d1.free_pages())
    free2 = set(d2.free_pages())
    if free1 != free2:
        log.append(f"free sets differ: {sorted(free1 ^ free2)}")
    mine1 = set()
    mine2 = set()
    for enc in observers:
        mine1.update(d1.pages_of(enc))
        mine2.update(d2.pages_of(enc))
    if mine1 != mine2:
        log.append(f"observer page sets differ: {sorted(mine1 ^ mine2)}")
        return not log
    for pageno in range(d1.npages):
        if pageno in free1 or pageno in free2:
            # Free pages are covered by the free-set comparison; a page
            # free in one and allocated in the other already failed it.
            if (pageno in free1) != (pageno in free2):
                continue
            continue
        if pageno in mine1:
            if d1[pageno] != d2[pageno]:
                log.append(f"observer page {pageno} differs")
        else:
            if not pages_weak_equivalent(d1[pageno], d2[pageno]):
                log.append(f"page {pageno} not weakly equivalent")
    return not log


def enc_equivalent(
    d1: AbsPageDb, d2: AbsPageDb, enc: int, failures: Optional[List[str]] = None
) -> bool:
    """≈enc: PageDBs observationally equivalent to enclave ``enc``
    (Definition 2 — the singleton case of :func:`enc_set_equivalent`)."""
    return enc_set_equivalent(d1, d2, (enc,), failures)


def _banked_regs_equal(
    s1: MachineState, s2: MachineState, failures: List[str]
) -> None:
    """Banked registers equal, excluding monitor mode (the monitor's
    private state is not adversary-observable)."""
    for mode in (Mode.USR, Mode.FIQ, Mode.IRQ, Mode.SVC, Mode.ABT, Mode.UND):
        if s1.regs.read_sp(mode) != s2.regs.read_sp(mode):
            failures.append(f"SP_{mode.name} differs")
        if s1.regs.read_lr(mode) != s2.regs.read_lr(mode):
            failures.append(f"LR_{mode.name} differs")
    for mode in (Mode.FIQ, Mode.IRQ, Mode.SVC, Mode.ABT, Mode.UND):
        if s1.regs.read_spsr(mode).to_word() != s2.regs.read_spsr(mode).to_word():
            failures.append(f"SPSR_{mode.name} differs")


def adv_set_equivalent(
    s1: MachineState,
    d1: AbsPageDb,
    s2: MachineState,
    d2: AbsPageDb,
    encs: Iterable[int],
    failures: Optional[List[str]] = None,
) -> bool:
    """≈adv for a coalition: the OS colluding with *several* enclaves.

    Requires ≈enc for the colluding set, plus equality of the
    general-purpose registers, the banked registers excluding monitor
    mode, and the entire insecure memory — so the coalition additionally
    shares every cross-enclave channel page with the OS.
    """
    log = failures if failures is not None else []
    enc_set_equivalent(d1, d2, encs, log)
    for i in range(13):
        if s1.regs.read_gpr(i) != s2.regs.read_gpr(i):
            log.append(f"r{i} differs: {s1.regs.read_gpr(i):#x} vs {s2.regs.read_gpr(i):#x}")
    _banked_regs_equal(s1, s2, log)
    insecure = s1.memmap.insecure
    ins1 = s1.memory.region_bytes(insecure.base, insecure.size)
    ins2 = s2.memory.region_bytes(insecure.base, insecure.size)
    if ins1 != ins2:
        differing = differing_words(insecure.base, ins1, ins2)
        log.append(f"insecure memory differs at {[hex(a) for a in differing[:4]]}")
    return not log


def adv_equivalent(
    s1: MachineState,
    d1: AbsPageDb,
    s2: MachineState,
    d2: AbsPageDb,
    enc: int,
    failures: Optional[List[str]] = None,
) -> bool:
    """≈adv: the OS colluding with one enclave (the singleton case of
    :func:`adv_set_equivalent`)."""
    return adv_set_equivalent(s1, d1, s2, d2, (enc,), failures)
