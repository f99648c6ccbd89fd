"""World-checked bursts decide what a loop of checked words decides.

``PhysicalMemory.checked_read_words``/``checked_write_words`` check once
per page and then move the whole span.  Regions are page aligned, so on
a span that does not fault they leave the bytes, dirty pages and TLB
poison of a loop of ``checked_read``/``checked_write``; a normal-world
span that touches secure or monitor memory faults at the same address
as the loop, but before any word moves.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arm.encryption import EncryptedMemory
from repro.arm.memory import (
    PAGE_SIZE,
    WORDS_PER_PAGE,
    MemoryFault,
    MemoryMap,
    PhysicalMemory,
    Region,
)
from repro.arm.modes import World
from repro.arm.pagetable import make_l1_entry
from repro.arm.tlb import TLB

MEMORIES = [PhysicalMemory, EncryptedMemory]


def memory_map(insecure_first: bool) -> MemoryMap:
    """A small map; ``insecure_first`` puts insecure RAM *below* the
    secure pages, so a normal-world span can end on a protected page."""
    memmap = MemoryMap(secure_pages=4, insecure_size=4 * PAGE_SIZE)
    if insecure_first:
        secure, insecure = memmap.secure, memmap.insecure
        memmap.insecure = Region("insecure", secure.base, insecure.size)
        memmap.secure = Region("secure", secure.base + insecure.size, secure.size)
    return memmap


def machine(memory_cls, insecure_first: bool):
    """A checkpointed memory (no dirty page) whose flushed TLB watches
    an L1 table at secure page 1 and the L2 table at page 2."""
    memmap = memory_map(insecure_first)
    memory = memory_cls(memmap)
    l1_base, l2_base = memmap.page_base(1), memmap.page_base(2)
    memory.write_word(l1_base, make_l1_entry(l2_base))
    memory.write_word(memmap.insecure.base + 12, 0x77)
    memory.write_word(memmap.monitor_image.limit - 4, 0x99)
    tlb = TLB()
    tlb.set_ttbr(memory, l1_base)
    tlb.flush()
    memory.checkpoint()
    return memmap, memory, tlb


def pages(memmap):
    """The base of every page of the map, ascending."""
    regions = memmap.regions()
    low = min(region.base for region in regions)
    high = max(region.limit for region in regions)
    return range(low, high, PAGE_SIZE)


def observe(memmap, memory, tlb):
    """Bytes, dirty pages and TLB state: what a store may change."""
    bases = pages(memmap)
    return (
        [memory.region_bytes(base, PAGE_SIZE) for base in bases],
        [memory.page_stamp(base) is None for base in bases],
        tlb.consistent,
        [tlb.watches(base) for base in bases],
    )


@st.composite
def spans(draw):
    """A world, a map layout and an in-range span near a region edge."""
    insecure_first = draw(st.booleans())
    memmap = memory_map(insecure_first)
    edges = sorted({edge for r in memmap.regions() for edge in (r.base, r.limit)})
    low, high = edges[0], edges[-1]
    count = draw(st.integers(0, 2 * WORDS_PER_PAGE + 8))
    edge = draw(st.sampled_from(edges))
    start = edge + 4 * draw(st.integers(-WORDS_PER_PAGE - 4, WORDS_PER_PAGE + 4))
    start = max(low, min(start, high - 4 * count))
    world = draw(st.sampled_from([World.NORMAL, World.SECURE]))
    return insecure_first, world, start, count


def outcome(action):
    try:
        return ("ok", action())
    except MemoryFault as fault:
        return ("fault", fault.address, fault.reason)


@pytest.mark.parametrize("memory_cls", MEMORIES)
class TestBurstsMatchWordLoops:
    @given(spans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_write(self, memory_cls, span, seed):
        insecure_first, world, start, count = span
        values = [random.Random(seed).getrandbits(32) for _ in range(count)]
        burst = machine(memory_cls, insecure_first)
        loop = machine(memory_cls, insecure_first)
        before = observe(*burst)

        got = outcome(lambda: burst[1].checked_write_words(start, values, world))

        def each():
            for i, value in enumerate(values):
                loop[1].checked_write(start + 4 * i, value, world)

        want = outcome(each)
        assert got == want
        if got[0] == "ok":
            assert observe(*burst) == observe(*loop)
        else:
            assert world is World.NORMAL
            assert observe(*burst) == before  # no word moved

    @given(spans())
    @settings(max_examples=60, deadline=None)
    def test_read(self, memory_cls, span):
        insecure_first, world, start, count = span
        memmap, memory, tlb = machine(memory_cls, insecure_first)
        before = observe(memmap, memory, tlb)
        got = outcome(lambda: memory.checked_read_words(start, count, world))
        want = outcome(
            lambda: [memory.checked_read(start + 4 * i, world) for i in range(count)]
        )
        assert got == want
        assert observe(memmap, memory, tlb) == before


@pytest.mark.parametrize("memory_cls", MEMORIES)
class TestProtectedSpans:
    def test_protected_last_page_faults_before_any_word_moves(self, memory_cls):
        memmap, memory, tlb = machine(memory_cls, insecure_first=True)
        assert memmap.insecure.limit == memmap.secure.base
        start = memmap.insecure.limit - 2 * PAGE_SIZE
        before = observe(memmap, memory, tlb)
        with pytest.raises(MemoryFault) as fault:
            memory.checked_write_words(start, [1] * (2 * WORDS_PER_PAGE + 1), World.NORMAL)
        assert fault.value.address == memmap.secure.base
        assert observe(memmap, memory, tlb) == before
        with pytest.raises(MemoryFault) as fault:
            memory.checked_read_words(start, 2 * WORDS_PER_PAGE + 1, World.NORMAL)
        assert fault.value.address == memmap.secure.base

    @pytest.mark.parametrize("region", ["monitor_stack", "secure"])
    def test_span_starting_on_a_protected_page_faults(self, memory_cls, region):
        memmap, memory, tlb = machine(memory_cls, insecure_first=False)
        start = getattr(memmap, region).limit - 8
        before = observe(memmap, memory, tlb)
        with pytest.raises(MemoryFault) as fault:
            memory.checked_write_words(start, [5, 6, 7, 8], World.NORMAL)
        assert fault.value.address == start
        assert observe(memmap, memory, tlb) == before

    def test_secure_world_burst_into_a_live_table_poisons(self, memory_cls):
        memmap, memory, tlb = machine(memory_cls, insecure_first=False)
        memory.checked_write_words(memmap.page_base(2) - 4, [1, 2], World.SECURE)
        assert not tlb.consistent
