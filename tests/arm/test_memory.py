"""Physical memory: map layout, word access, world protection."""

from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arm.memory import (
    _TYPECODE,
    PAGE_SIZE,
    WORDS_PER_PAGE,
    MemoryFault,
    MemoryMap,
    PhysicalMemory,
    Region,
    differing_words,
)
from repro.arm.modes import World


@pytest.fixture
def memmap() -> MemoryMap:
    return MemoryMap(secure_pages=8)


@pytest.fixture
def memory(memmap) -> PhysicalMemory:
    return PhysicalMemory(memmap)


class TestRegion:
    def test_contains(self):
        region = Region("r", 0x1000, 0x1000)
        assert region.contains(0x1000)
        assert region.contains(0x1FFC)
        assert not region.contains(0x2000)
        assert not region.contains(0xFFC)

    def test_overlap(self):
        a = Region("a", 0x1000, 0x1000)
        b = Region("b", 0x1800, 0x1000)
        c = Region("c", 0x2000, 0x1000)
        assert a.overlaps(b)
        assert not a.overlaps(c)


class TestMemoryMap:
    def test_regions_disjoint_and_aligned(self, memmap):
        regions = memmap.regions()
        for i, first in enumerate(regions):
            assert first.base % PAGE_SIZE == 0
            for second in regions[i + 1 :]:
                assert not first.overlaps(second)

    def test_page_numbering_roundtrip(self, memmap):
        for pageno in range(memmap.secure_pages):
            base = memmap.page_base(pageno)
            assert memmap.pageno_of(base) == pageno
            assert memmap.pageno_of(base + PAGE_SIZE - 4) == pageno

    def test_invalid_pageno(self, memmap):
        assert not memmap.valid_pageno(-1)
        assert not memmap.valid_pageno(memmap.secure_pages)
        with pytest.raises(ValueError):
            memmap.page_base(memmap.secure_pages)

    @pytest.mark.parametrize("pageno", [-1, -8, 8, 9, 2**40, 1.0, 0.5, "1", None])
    def test_page_base_rejects_what_valid_pageno_rejects(self, memmap, pageno):
        assert not memmap.valid_pageno(pageno)
        with pytest.raises(ValueError, match=f"^invalid secure page number {pageno}$"):
            memmap.page_base(pageno)

    def test_page_base_accepts_int_subclasses(self, memmap):
        assert memmap.page_base(True) == memmap.secure.base + PAGE_SIZE
        assert memmap.page_base(False) == memmap.secure.base

    def test_classification(self, memmap):
        assert memmap.is_secure(memmap.secure.base)
        assert memmap.is_insecure(memmap.insecure.base)
        assert memmap.is_monitor(memmap.monitor_image.base)
        assert memmap.is_monitor(memmap.monitor_stack.base)
        assert not memmap.is_secure(memmap.insecure.base)

    def test_insecure_page_aligned_excludes_monitor(self, memmap):
        """The section 9.1 subtlety: monitor memory is never 'insecure'."""
        assert memmap.insecure_page_aligned(memmap.insecure.base)
        assert not memmap.insecure_page_aligned(memmap.monitor_image.base)
        assert not memmap.insecure_page_aligned(memmap.monitor_stack.base)
        assert not memmap.insecure_page_aligned(memmap.secure.base)
        assert not memmap.insecure_page_aligned(memmap.insecure.base + 4)

    def test_needs_at_least_one_page(self):
        with pytest.raises(ValueError):
            MemoryMap(secure_pages=0)


class TestWordAccess:
    def test_zero_initialised(self, memory, memmap):
        assert memory.read_word(memmap.insecure.base) == 0

    def test_write_read(self, memory, memmap):
        memory.write_word(memmap.insecure.base, 0xCAFEBABE)
        assert memory.read_word(memmap.insecure.base) == 0xCAFEBABE

    def test_misaligned_faults(self, memory, memmap):
        with pytest.raises(MemoryFault):
            memory.read_word(memmap.insecure.base + 2)
        with pytest.raises(MemoryFault):
            memory.write_word(memmap.insecure.base + 1, 0)

    def test_unmapped_faults(self, memory):
        with pytest.raises(MemoryFault):
            memory.read_word(0x10)
        with pytest.raises(MemoryFault):
            memory.write_word(0x10, 0)

    def test_truncates_to_word(self, memory, memmap):
        memory.write_word(memmap.insecure.base, 0x1_0000_0005)
        assert memory.read_word(memmap.insecure.base) == 5

    @given(st.integers(0, 7), st.integers(0, 0xFFFFFFFF))
    def test_distinct_addresses_independent(self, offset, value):
        memmap = MemoryMap(secure_pages=2)
        memory = PhysicalMemory(memmap)
        base = memmap.insecure.base
        memory.write_word(base + offset * 4, value)
        for i in range(8):
            expected = value if i == offset else 0
            assert memory.read_word(base + i * 4) == expected


class TestWorldProtection:
    def test_normal_world_blocked_from_secure(self, memory, memmap):
        with pytest.raises(MemoryFault):
            memory.checked_read(memmap.secure.base, World.NORMAL)
        with pytest.raises(MemoryFault):
            memory.checked_write(memmap.secure.base, 1, World.NORMAL)

    def test_normal_world_blocked_from_monitor(self, memory, memmap):
        with pytest.raises(MemoryFault):
            memory.checked_read(memmap.monitor_image.base, World.NORMAL)
        with pytest.raises(MemoryFault):
            memory.checked_write(memmap.monitor_stack.base, 1, World.NORMAL)

    def test_normal_world_allowed_insecure(self, memory, memmap):
        memory.checked_write(memmap.insecure.base, 7, World.NORMAL)
        assert memory.checked_read(memmap.insecure.base, World.NORMAL) == 7

    def test_secure_world_unrestricted(self, memory, memmap):
        memory.checked_write(memmap.secure.base, 9, World.SECURE)
        assert memory.checked_read(memmap.secure.base, World.SECURE) == 9


class TestBulkOps:
    def test_zero_page(self, memory, memmap):
        base = memmap.page_base(0)
        memory.write_word(base + 8, 0xFF)
        memory.zero_page(base)
        assert all(w == 0 for w in memory.read_words(base, WORDS_PER_PAGE))

    def test_copy_page(self, memory, memmap):
        src = memmap.insecure.base
        dst = memmap.page_base(1)
        for i in range(WORDS_PER_PAGE):
            memory.write_word(src + i * 4, i)
        memory.copy_page(src, dst)
        assert memory.read_words(dst, WORDS_PER_PAGE) == list(range(WORDS_PER_PAGE))

    def test_read_write_words(self, memory, memmap):
        base = memmap.insecure.base
        memory.write_words(base, [1, 2, 3])
        assert memory.read_words(base, 3) == [1, 2, 3]


def _near_boundary(draw, memmap, min_words, max_words):
    """A word-aligned in-range span of ``min_words`` to ``max_words``
    words that starts near a region boundary, so spans straddle
    regions."""
    lo = memmap.monitor_image.base
    hi = memmap.insecure.limit
    anchors = [region.base for region in memmap.regions()] + [hi]
    count = draw(st.integers(min_words, max_words))
    anchor = draw(st.sampled_from(anchors))
    start = anchor + 4 * draw(st.integers(-max_words, max_words))
    return max(lo, min(start, hi - 4 * count)), count


@st.composite
def spans_and_stores(draw, memmap):
    """``(address, count, stores)``: a span to fingerprint and the
    ``(address, value)`` word stores to apply first."""
    address, count = _near_boundary(draw, memmap, 0, 96)
    stores = []
    for _ in range(draw(st.integers(0, 12))):
        store_at, _ = _near_boundary(draw, memmap, 1, 96)
        stores.append((store_at, draw(st.integers(0, 0xFFFFFFFF))))
    return address, count, stores


def assert_region_bytes_matches_read_words(memory, address, count, stores):
    for store_at, value in stores:
        memory.write_word(store_at, value)
    expected = array(_TYPECODE, memory.read_words(address, count)).tobytes()
    assert memory.region_bytes(address, count * 4) == expected


def assert_region_bytes_touches_no_counters(memory, memmap):
    """``region_bytes`` of every region (secure ones included) is not a
    read transaction and leaves dirty tracking alone."""
    memory.write_word(memmap.page_base(1), 3)
    memory.write_word(memmap.insecure.base, 4)
    memory._snap_token = 5
    before = (
        memory.read_ops,
        memory.write_ops,
        memory.generation,
        set(memory._dirty),
        memory._snap_token,
    )
    for region in memmap.regions():
        memory.region_bytes(region.base, region.size)
    assert (
        memory.read_ops,
        memory.write_ops,
        memory.generation,
        memory._dirty,
        memory._snap_token,
    ) == before


_MAP = MemoryMap(secure_pages=8)


class TestRegionBytes:
    @given(spans_and_stores(_MAP))
    def test_equals_packed_read_words(self, case):
        assert_region_bytes_matches_read_words(PhysicalMemory(_MAP), *case)

    def test_is_a_copy_not_a_live_view(self, memory, memmap):
        insecure = memmap.insecure
        before = memory.region_bytes(insecure.base, insecure.size)
        memory.write_word(insecure.base + 8, 7)
        assert before == bytes(insecure.size)
        after = memory.region_bytes(insecure.base, insecure.size)
        assert after != before
        assert differing_words(insecure.base, before, after) == [insecure.base + 8]

    def test_touches_no_counters_or_dirty_tracking(self, memory, memmap):
        assert_region_bytes_touches_no_counters(memory, memmap)

    @pytest.mark.parametrize(
        "delta, size",
        [
            (2, 8),  # misaligned base
            (-4, 8),  # starts below the first region
            (0, 6),  # not whole words
            (0, -4),  # negative size
        ],
    )
    def test_faults_on_bad_span(self, memory, memmap, delta, size):
        with pytest.raises(MemoryFault):
            memory.region_bytes(memmap.monitor_image.base + delta, size)

    def test_faults_past_the_end(self, memory, memmap):
        with pytest.raises(MemoryFault):
            memory.region_bytes(memmap.insecure.limit - 4, 8)
