"""Page tables: descriptor building, walking, permission decoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arm.memory import PAGE_SIZE, MemoryMap, PhysicalMemory
from repro.arm.pagetable import (
    DESC_INVALID,
    ENCLAVE_VSPACE_SIZE,
    L1_ENTRIES,
    L2_ENTRIES,
    PageTableError,
    PageTableWalker,
    Translation,
    entry_target,
    entry_type,
    in_enclave_vspace,
    l1_index,
    l2_index,
    make_l1_entry,
    make_l2_entry,
)


@pytest.fixture
def env():
    memmap = MemoryMap(secure_pages=16)
    memory = PhysicalMemory(memmap)
    return memmap, memory, PageTableWalker(memory)


def build_tables(memmap, memory, mappings):
    """Build an L1 at page 0 + one L2 at page 1 with the given mappings.

    ``mappings``: list of (vaddr, frame_base, r, w, x).
    """
    l1_base = memmap.page_base(0)
    l2_base = memmap.page_base(1)
    for vaddr, frame, r, w, x in mappings:
        memory.write_word(
            l1_base + l1_index(vaddr) * 4, make_l1_entry(l2_base)
        )
        memory.write_word(
            l2_base + l2_index(vaddr) * 4,
            make_l2_entry(frame, r, w, x, secure=memmap.is_secure(frame)),
        )
    return l1_base


class TestIndexing:
    def test_geometry(self):
        assert L1_ENTRIES * L2_ENTRIES * PAGE_SIZE == ENCLAVE_VSPACE_SIZE

    def test_l1_l2_index(self):
        assert l1_index(0) == 0
        assert l2_index(0) == 0
        assert l1_index(0x0040_0000) == 1
        assert l2_index(0x0000_1000) == 1
        assert l1_index(ENCLAVE_VSPACE_SIZE - 1) == L1_ENTRIES - 1
        assert l2_index(0x003F_F000) == L2_ENTRIES - 1

    def test_vspace_bounds(self):
        assert in_enclave_vspace(0)
        assert in_enclave_vspace(ENCLAVE_VSPACE_SIZE - 1)
        assert not in_enclave_vspace(ENCLAVE_VSPACE_SIZE)
        assert not in_enclave_vspace(-1)

    @given(st.integers(0, ENCLAVE_VSPACE_SIZE - 1))
    def test_index_decomposition(self, vaddr):
        reconstructed = (
            (l1_index(vaddr) << 22) | (l2_index(vaddr) << 12) | (vaddr & 0xFFF)
        )
        assert reconstructed == vaddr


class TestDescriptors:
    def test_l1_entry(self):
        entry = make_l1_entry(0x8000_0000)
        assert entry_type(entry) != DESC_INVALID
        assert entry_target(entry) == 0x8000_0000

    def test_l1_requires_alignment(self):
        with pytest.raises(PageTableError):
            make_l1_entry(0x8000_0004)

    def test_l2_perm_bits(self):
        entry = make_l2_entry(0x8000_1000, True, False, True, True)
        from repro.arm.pagetable import PERM_R, PERM_SECURE, PERM_W, PERM_X

        assert entry & PERM_R
        assert not entry & PERM_W
        assert entry & PERM_X
        assert entry & PERM_SECURE

    def test_l2_requires_alignment(self):
        with pytest.raises(PageTableError):
            make_l2_entry(0x8000_1010, True, True, False, False)


class TestWalker:
    def test_successful_walk(self, env):
        memmap, memory, walker = env
        frame = memmap.page_base(5)
        l1 = build_tables(memmap, memory, [(0x1000, frame, True, True, False)])
        translation = walker.walk(l1, 0x1234)
        assert translation is not None
        assert translation.phys_base == frame
        assert translation.phys_addr(0x1234) == frame + 0x234
        assert translation.readable and translation.writable
        assert not translation.executable
        assert translation.secure

    def test_unmapped_l1_returns_none(self, env):
        memmap, memory, walker = env
        l1 = memmap.page_base(0)
        assert walker.walk(l1, 0x1000) is None

    def test_unmapped_l2_returns_none(self, env):
        memmap, memory, walker = env
        frame = memmap.page_base(5)
        l1 = build_tables(memmap, memory, [(0x1000, frame, True, True, False)])
        assert walker.walk(l1, 0x2000) is None

    def test_outside_vspace_returns_none(self, env):
        memmap, memory, walker = env
        frame = memmap.page_base(5)
        l1 = build_tables(memmap, memory, [(0x1000, frame, True, True, False)])
        assert walker.walk(l1, ENCLAVE_VSPACE_SIZE + 0x1000) is None

    def test_malformed_descriptor_returns_none(self, env):
        """Unrecognised entries mean undefined user behaviour: the walker
        treats them as unmapped, forcing conforming tables (section 5.1)."""
        memmap, memory, walker = env
        l1 = memmap.page_base(0)
        memory.write_word(l1 + l1_index(0x1000) * 4, 0b11)  # bad type bits
        assert walker.walk(l1, 0x1000) is None

    def test_insecure_mapping(self, env):
        memmap, memory, walker = env
        frame = memmap.insecure.base
        l1 = build_tables(memmap, memory, [(0x5000, frame, True, True, False)])
        translation = walker.walk(l1, 0x5000)
        assert translation is not None
        assert not translation.secure

    @given(st.integers(0, ENCLAVE_VSPACE_SIZE - 1))
    def test_walk_offset_preserved(self, vaddr):
        memmap = MemoryMap(secure_pages=8)
        memory = PhysicalMemory(memmap)
        walker = PageTableWalker(memory)
        frame = memmap.page_base(5)
        l1 = build_tables(memmap, memory, [(vaddr, frame, True, True, True)])
        translation = walker.walk(l1, vaddr)
        assert translation is not None
        assert translation.phys_addr(vaddr) == frame + (vaddr & 0xFFF)
