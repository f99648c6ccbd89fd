"""ARM short-descriptor page tables for the enclave address space.

Komodo gives every enclave a 1 GB virtual address space translated by a
two-level hierarchical page table in the ARM short-descriptor format with
4 kB small pages (paper sections 4 and 5.1).  Per the paper's "idiomatic
specification" approach, only one format is modelled — anything else is
an unrecognised entry and user execution over it is undefined, which
forces the monitor to build conforming tables.

Geometry (documented deviation, see DESIGN.md): the L1 table occupies one
4 kB secure page and has ``L1_ENTRIES`` slots, each mapping a 4 MB slice
of the 1 GB space via one L2 table; an L2 table also occupies one 4 kB
secure page and has 1024 entries of 4 kB pages.  Real Komodo packs four
1 kB ARM L2 tables per page; collapsing them into one table per page
preserves the API (``InitL2PTable(l1index)``) and every invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.arm.bits import WORDSIZE, get_bits
from repro.arm.memory import PAGE_SIZE, PhysicalMemory

ENCLAVE_VSPACE_SIZE = 1 << 30  # 1 GB, the TTBR0-translated region
L2_SPAN = 1 << 22  # each L2 table maps 4 MB
L1_ENTRIES = ENCLAVE_VSPACE_SIZE // L2_SPAN  # 256
L2_ENTRIES = L2_SPAN // PAGE_SIZE  # 1024

# Descriptor type bits (low two bits of an entry).
DESC_INVALID = 0b00
DESC_L1_COARSE = 0b01  # L1 entry pointing at an L2 table
DESC_L2_SMALL = 0b10  # L2 entry mapping a 4 kB small page

# Permission/attribute bits we pack into L2 small-page descriptors.
# These stand in for the AP/XN encodings of the real format; they are
# decoded only by this module so the choice is internal.
PERM_R = 1 << 4
PERM_W = 1 << 5
PERM_X = 1 << 6
PERM_SECURE = 1 << 7  # set when the target is a secure page

PERM_MASK = PERM_R | PERM_W | PERM_X | PERM_SECURE
ADDR_MASK = 0xFFFFF000


class PageTableError(Exception):
    """Raised when building or walking a malformed page table."""


@dataclass(frozen=True)
class Translation:
    """Result of a successful page-table walk."""

    phys_base: int  # physical base of the 4 kB frame
    readable: bool
    writable: bool
    executable: bool
    secure: bool

    def phys_addr(self, vaddr: int) -> int:
        return self.phys_base | (vaddr & (PAGE_SIZE - 1))


def l1_index(vaddr: int) -> int:
    """L1 slot covering ``vaddr``."""
    return get_bits(vaddr, 29, 22)


def l2_index(vaddr: int) -> int:
    """L2 slot covering ``vaddr``."""
    return get_bits(vaddr, 21, 12)


def in_enclave_vspace(vaddr: int) -> bool:
    return 0 <= vaddr < ENCLAVE_VSPACE_SIZE


def make_l1_entry(l2_base: int) -> int:
    """Build an L1 coarse-table descriptor pointing at ``l2_base``."""
    if l2_base % PAGE_SIZE:
        raise PageTableError("L2 table base must be page aligned")
    return (l2_base & ADDR_MASK) | DESC_L1_COARSE


def make_l2_entry(
    frame_base: int, readable: bool, writable: bool, executable: bool, secure: bool
) -> int:
    """Build an L2 small-page descriptor for a 4 kB frame."""
    if frame_base % PAGE_SIZE:
        raise PageTableError("frame base must be page aligned")
    entry = (frame_base & ADDR_MASK) | DESC_L2_SMALL
    if readable:
        entry |= PERM_R
    if writable:
        entry |= PERM_W
    if executable:
        entry |= PERM_X
    if secure:
        entry |= PERM_SECURE
    return entry


def entry_type(entry: int) -> int:
    return entry & 0b11


def entry_target(entry: int) -> int:
    return entry & ADDR_MASK


class PageTableWalker:
    """Walks a two-level table rooted at a physical L1 base address.

    The walk reads descriptors from physical memory exactly as the MMU
    would, so any monitor bug that wrote a malformed descriptor is
    observable here.
    """

    def __init__(self, memory: PhysicalMemory):
        self.memory = memory

    def walk(self, l1_base: int, vaddr: int) -> Optional[Translation]:
        """Translate ``vaddr``; returns None when unmapped (a fault)."""
        if not in_enclave_vspace(vaddr):
            return None
        l1_entry = self.memory.read_word(l1_base + l1_index(vaddr) * WORDSIZE)
        if entry_type(l1_entry) != DESC_L1_COARSE:
            return None
        l2_base = entry_target(l1_entry)
        l2_entry = self.memory.read_word(l2_base + l2_index(vaddr) * WORDSIZE)
        if entry_type(l2_entry) != DESC_L2_SMALL:
            return None
        return Translation(
            phys_base=entry_target(l2_entry),
            readable=bool(l2_entry & PERM_R),
            writable=bool(l2_entry & PERM_W),
            executable=bool(l2_entry & PERM_X),
            secure=bool(l2_entry & PERM_SECURE),
        )
