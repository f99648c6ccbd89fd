"""Abstract PageDB: the specification's view of secure pages.

The abstract representation deliberately hides implementation detail
(paper section 5.2): page tables are entries in an abstract data type,
the enclave measurement is an unbounded sequence of words, and data-page
contents are word tuples.  The concrete monitor is free to choose any
in-memory representation that *refines* this one; the extraction function
in ``repro.verification.extract`` witnesses that refinement.

Entries are immutable; spec functions return new PageDBs, which keeps the
spec honestly side-effect free and makes bisimulation cheap (structural
equality).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.arm.memory import WORDS_PER_PAGE
from repro.arm.pagetable import L1_ENTRIES, L2_ENTRIES
from repro.monitor.layout import AddrspaceState


@dataclass(frozen=True)
class AbsFree:
    """An unallocated secure page."""


@dataclass(frozen=True)
class AbsAddrspace:
    """An address-space page: the identity of an enclave."""

    state: AddrspaceState
    refcount: int
    l1pt: int
    #: The sequence of words measured so far (the spec's unbounded
    #: measurement); hashed only at finalisation.
    measured: Tuple[int, ...] = ()
    #: The 8-word measurement, present once finalised.
    measurement: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class AbsThread:
    """A thread page: entry point plus (when suspended) saved context."""

    addrspace: int
    entrypoint: int
    entered: bool = False
    #: Saved user-visible context when suspended: (r0..r12, sp, lr, pc, cpsr)
    context: Optional[Tuple[int, ...]] = None
    #: Dispatcher interface (section 9.2): registered fault-handler VA
    #: (0 = none) and whether the handler frame is live.
    fault_handler: int = 0
    in_handler: bool = False


@dataclass(frozen=True)
class AbsL1:
    """A first-level page table: L1_ENTRIES optional L2 page numbers."""

    addrspace: int
    entries: Tuple[Optional[int], ...] = (None,) * L1_ENTRIES


@dataclass(frozen=True)
class AbsMappingEntry:
    """One L2 slot: a secure page or an insecure physical frame."""

    secure_page: Optional[int]  # secure pageno, or None for insecure
    insecure_base: Optional[int]  # physical base, or None for secure
    readable: bool
    writable: bool
    executable: bool


@dataclass(frozen=True)
class AbsL2:
    """A second-level page table: L2_ENTRIES optional mappings."""

    addrspace: int
    entries: Tuple[Optional[AbsMappingEntry], ...] = (None,) * L2_ENTRIES


@dataclass(frozen=True)
class AbsData:
    """A secure data page with its full contents."""

    addrspace: int
    contents: Tuple[int, ...] = (0,) * WORDS_PER_PAGE


@dataclass(frozen=True)
class AbsSpare:
    """A spare page donated by the OS, not yet mapped by the enclave."""

    addrspace: int


AbsEntry = object  # union of the entry dataclasses above


@dataclass(frozen=True)
class AbsPageDb:
    """The abstract PageDB: page number -> entry, for npages pages."""

    npages: int
    entries: Tuple[AbsEntry, ...]

    @classmethod
    def initial(cls, npages: int) -> "AbsPageDb":
        return cls(npages=npages, entries=tuple(AbsFree() for _ in range(npages)))

    def __getitem__(self, pageno: int) -> AbsEntry:
        return self.entries[pageno]

    def valid_pageno(self, pageno: int) -> bool:
        return isinstance(pageno, int) and 0 <= pageno < self.npages

    def updated(self, pageno: int, entry: AbsEntry) -> "AbsPageDb":
        """A copy with one entry replaced."""
        entries = list(self.entries)
        entries[pageno] = entry
        return AbsPageDb(npages=self.npages, entries=tuple(entries))

    def updated_many(self, changes: Dict[int, AbsEntry]) -> "AbsPageDb":
        entries = list(self.entries)
        for pageno, entry in changes.items():
            entries[pageno] = entry
        return AbsPageDb(npages=self.npages, entries=tuple(entries))

    # -- queries used throughout the spec and the security relations ------

    def is_free(self, pageno: int) -> bool:
        return isinstance(self[pageno], AbsFree)

    def free_pages(self) -> List[int]:
        return [i for i in range(self.npages) if self.is_free(i)]

    def owner_of(self, pageno: int) -> Optional[int]:
        """The addrspace a page belongs to (an addrspace owns itself)."""
        entry = self[pageno]
        if isinstance(entry, AbsFree):
            return None
        if isinstance(entry, AbsAddrspace):
            return pageno
        return entry.addrspace

    def pages_of(self, addrspace: int) -> List[int]:
        """All pages belonging to ``addrspace`` (including itself)."""
        return [
            i for i in range(self.npages) if self.owner_of(i) == addrspace
        ]

    def addrspaces(self) -> List[int]:
        return [
            i for i in range(self.npages) if isinstance(self[i], AbsAddrspace)
        ]
