"""Page stamps: equal non-``None`` stamps name equal page bytes.

``PhysicalMemory.page_stamp`` is ``None`` while a page is dirty and
otherwise names the page's exact bytes, on every memory in the process:
checkpoints stamp what they capture dirty, a never-anchored memory's
``settle`` stamps its written pages the same way, rewinds restore stamps
with bytes, and deep copies copy both.  The integrity engine's CRC memo
and the campaign audit's table memos rely on this, so a hypothesis state
machine drives every kind of write, checkpoint, settle, own and foreign
rewind, deep copy and bit flip, on both memory engines and both rewind
paths, and checks the contract after every step.
"""

import contextlib
import copy

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

import repro.arm.memory as memory_mod
from repro.apps.isa_workloads import CODE_VA, DATA_VA, stage
from repro.arm.assembler import Assembler
from repro.arm.cpu import CPU, ExitReason
from repro.arm.encryption import EncryptedMemory, IntegrityViolation
from repro.arm.machine import MachineState
from repro.arm.memory import (
    PAGE_SIZE,
    WORDS_PER_PAGE,
    MemoryMap,
    PhysicalMemory,
    StampMemo,
)
from repro.arm.modes import Mode
from repro.arm.registers import PSR
from repro.monitor.layout import SVC

#: Six pages: monitor image, monitor stack, two secure, two insecure.
_MAP = MemoryMap(
    secure_pages=2,
    insecure_size=2 * PAGE_SIZE,
    monitor_image_size=PAGE_SIZE,
    monitor_stack_size=PAGE_SIZE,
)
_BASES = [_MAP.monitor_image.base + i * PAGE_SIZE for i in range(6)]
_MAX_MEMORIES = 4

_pages = st.integers(0, len(_BASES) - 1)
_words = st.integers(0, WORDS_PER_PAGE - 1)
_values = st.integers(0, 0xFFFFFFFF)


def raw_page(memory, base):
    """The stored bytes of a page, and on ``EncryptedMemory`` its tags."""
    offset = base - _MAP.monitor_image.base
    raw = bytes(memory._buf[offset : offset + PAGE_SIZE])
    tags = getattr(memory, "_tags", {})
    return raw, sorted((a, t) for a, t in tags.items() if 0 <= a - base < PAGE_SIZE)


def stamp_machine(memory_cls):
    class StampContract(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.memories = [memory_cls(_MAP)]
            self.checkpoints = []
            #: (page base, stamp) -> the bytes it named when first seen.
            self.named = {}

        def _memory(self, index):
            return self.memories[index % len(self.memories)]

        @rule(m=st.integers(0, 7), page=_pages, word=_words, value=_values)
        def write_word(self, m, page, word, value):
            self._memory(m).write_word(_BASES[page] + 4 * word, value)

        @rule(
            m=st.integers(0, 7),
            page=_pages,
            word=_words,
            values=st.lists(_values, min_size=1, max_size=8),
        )
        def write_words(self, m, page, word, values):
            # A run may straddle into the next page; clamp to the map.
            address = min(_BASES[page] + 4 * word, _BASES[-1] + PAGE_SIZE - 32)
            self._memory(m).write_words(address, values)

        @rule(m=st.integers(0, 7), page=_pages)
        def zero_page(self, m, page):
            self._memory(m).zero_page(_BASES[page])

        # Reads through the engine may hit a tampered word; the writes
        # made before the violation still land in the dirty set.

        @rule(m=st.integers(0, 7), src=_pages, dst=_pages)
        def copy_page(self, m, src, dst):
            with contextlib.suppress(IntegrityViolation):
                self._memory(m).copy_page(_BASES[src], _BASES[dst])

        @rule(m=st.integers(0, 7), page=_pages, word=_words, bit=st.integers(0, 31))
        def flip_bit(self, m, page, word, bit):
            state = MachineState(memmap=_MAP, memory=self._memory(m))
            with contextlib.suppress(IntegrityViolation):
                state.flip_bit(_BASES[page] + 4 * word, bit)

        @precondition(lambda self: memory_cls is EncryptedMemory)
        @rule(m=st.integers(0, 7), page=_pages, word=_words, value=_values)
        def bus_tamper(self, m, page, word, value):
            self._memory(m).physical_write(_BASES[page] + 4 * word, value)

        @rule(m=st.integers(0, 7))
        def checkpoint(self, m):
            self.checkpoints.append(self._memory(m).checkpoint())

        @rule(m=st.integers(0, 7))
        def settle(self, m):
            self._memory(m).settle()

        @precondition(lambda self: self.checkpoints)
        @rule(m=st.integers(0, 7), c=st.integers(0, 63))
        def rewind(self, m, c):
            """Any checkpoint: the memory's own latest, an older one, or
            one taken on another memory."""
            memory = self._memory(m)
            cp = self.checkpoints[c % len(self.checkpoints)]
            memory.rewind(cp)
            assert [memory.page_stamp(base) for base in _BASES] == list(cp.stamps)

        @precondition(lambda self: len(self.memories) < _MAX_MEMORIES)
        @rule(m=st.integers(0, 7))
        def deepcopy(self, m):
            self.memories.append(copy.deepcopy(self._memory(m)))

        @invariant()
        def equal_stamps_name_equal_bytes(self):
            for memory in self.memories:
                for base in _BASES:
                    stamp = memory.page_stamp(base)
                    if stamp is None:
                        continue
                    raw = raw_page(memory, base)
                    assert self.named.setdefault((base, stamp), raw) == raw, hex(base)

        @invariant()
        def written_pages_have_no_stamp(self):
            for memory in self.memories:
                for page in memory._dirty:
                    assert memory.page_stamp(_BASES[page]) is None

    return StampContract


@pytest.mark.parametrize("delta", [True, False], ids=["delta", "full"])
@pytest.mark.parametrize("memory_cls", [PhysicalMemory, EncryptedMemory])
def test_equal_stamps_name_equal_bytes(memory_cls, delta, monkeypatch):
    monkeypatch.setattr(memory_mod, "DELTA_RESTORE", delta)
    run_state_machine_as_test(
        stamp_machine(memory_cls),
        settings=settings(max_examples=40, stateful_step_count=30, deadline=None),
    )


@pytest.mark.parametrize("memory_cls", [PhysicalMemory, EncryptedMemory])
class TestStampLifecycle:
    def test_fresh_memory_is_stamp_zero(self, memory_cls):
        memory = memory_cls(_MAP)
        assert {memory.page_stamp(base) for base in _BASES} == {0}

    def test_checkpoint_stamps_written_pages_afresh(self, memory_cls):
        memory = memory_cls(_MAP)
        memory.write_word(_BASES[2], 1)
        assert memory.page_stamp(_BASES[2]) is None
        first = memory.checkpoint()
        stamp = memory.page_stamp(_BASES[2])
        assert stamp == first.token and memory.page_stamp(_BASES[3]) == 0
        memory.checkpoint()
        assert memory.page_stamp(_BASES[2]) == stamp  # unwritten since
        memory.write_word(_BASES[2], 2)
        second = memory.checkpoint()
        assert memory.page_stamp(_BASES[2]) == second.token != stamp
        memory.rewind(first)
        assert memory.page_stamp(_BASES[2]) == stamp

    def test_settle_is_a_noop_while_anchored(self, memory_cls):
        memory = memory_cls(_MAP)
        memory.write_word(_BASES[2], 1)
        cp = memory.checkpoint()
        memory.write_word(_BASES[3], 2)
        memory.settle()
        assert memory._dirty == {3}
        assert [memory.page_stamp(base) for base in _BASES] == [
            None if page == 3 else stamp for page, stamp in enumerate(cp.stamps)
        ]
        memory.rewind(cp)  # the delta path still restores the page
        assert memory.read_word(_BASES[3]) == 0

    def test_settle_stamps_written_pages_afresh(self, memory_cls):
        other = memory_cls(_MAP)
        other.write_word(_BASES[1], 1)
        before = other.checkpoint().token
        memory = memory_cls(_MAP)
        memory.write_word(_BASES[2], 1)
        memory.write_word(_BASES[4], 2)
        dirty = memory._dirty
        memory.settle()
        assert memory._dirty is dirty and not dirty
        stamp = memory.page_stamp(_BASES[2])
        assert memory.page_stamp(_BASES[4]) == stamp
        assert stamp not in (None, 0, before)
        assert memory.page_stamp(_BASES[3]) == 0  # never written
        other.write_word(_BASES[1], 2)
        assert other.checkpoint().token != stamp  # process-unique
        memory.write_word(_BASES[2], 3)
        assert memory.page_stamp(_BASES[2]) is None
        assert memory.page_stamp(_BASES[4]) == stamp
        memory.settle()
        assert memory.page_stamp(_BASES[2]) not in (None, stamp)
        assert memory.page_stamp(_BASES[4]) == stamp

    @pytest.mark.parametrize("source", ["foreign", "copy"])
    def test_rewind_after_settle_is_full(self, memory_cls, source):
        """An unanchored memory has nothing to copy back page by page:
        after ``settle`` empties its dirty set, a rewind must still copy
        every byte and stamp of the checkpoint."""
        memory = memory_cls(_MAP)
        memory.write_word(_BASES[2], 0xA)
        if source == "foreign":
            donor = memory_cls(_MAP)
            donor.write_word(_BASES[4], 0xB)
        else:
            donor = copy.deepcopy(memory)
        cp = donor.checkpoint()
        memory.write_word(_BASES[3], 0xC)
        memory.write_word(_BASES[5], 0xD)
        memory.settle()
        memory.rewind(cp)
        assert bytes(memory._buf) == cp.store
        assert [memory.page_stamp(base) for base in _BASES] == list(cp.stamps)
        assert [raw_page(memory, base) for base in _BASES] == [
            raw_page(donor, base) for base in _BASES
        ]

    def test_deepcopy_after_settle_keeps_the_contract(self, memory_cls):
        memory = memory_cls(_MAP)
        memory.write_word(_BASES[2], 7)
        memory.settle()
        dup = copy.deepcopy(memory)
        stamps = [memory.page_stamp(base) for base in _BASES]
        assert [dup.page_stamp(base) for base in _BASES] == stamps
        assert [raw_page(dup, base) for base in _BASES] == [
            raw_page(memory, base) for base in _BASES
        ]
        dup.write_word(_BASES[2], 8)
        dup.settle()
        assert dup.page_stamp(_BASES[2]) not in (None, stamps[2])
        assert memory.page_stamp(_BASES[2]) == stamps[2]
        assert memory.read_word(_BASES[2]) == 7

    def test_out_of_range_address_faults(self, memory_cls):
        memory = memory_cls(_MAP)
        with pytest.raises(memory_mod.MemoryFault):
            memory.page_stamp(_MAP.monitor_image.base - 4)
        with pytest.raises(memory_mod.MemoryFault):
            memory.page_stamp(_BASES[-1] + PAGE_SIZE)


def store_loop():
    """Store r0 words at DATA_VA in a loop (compiled by turbo)."""
    asm = Assembler()
    asm.mov("r5", "r0")
    asm.mov32("r4", DATA_VA)
    asm.label("store_loop")
    asm.str_("r5", "r4", 0)
    asm.addi("r4", "r4", 4)
    asm.subi("r5", "r5", 1)
    asm.cmpi("r5", 0)
    asm.bne("store_loop")
    asm.svc(SVC.EXIT)
    return asm


def test_turbo_inline_store_clears_the_stamp():
    """Turbo's compiled stores bypass ``write_word`` but land in the
    dirty set, so the page they write loses its stamp."""
    state = stage(store_loop(), 64)
    data_base = state.memmap.page_base(3)  # stage() maps DATA_VA here
    state.snapshot()
    before = state.memory.page_stamp(data_base)
    assert before is not None
    result = CPU(state, engine="turbo").run(CODE_VA, max_steps=100_000)
    assert result.reason is ExitReason.SVC
    assert state.uarch.bcache, "the store loop did not run compiled"
    assert state.memory.page_stamp(data_base) is None
    state.snapshot()
    assert state.memory.page_stamp(data_base) not in (None, before)


def test_turbo_inline_store_after_settle_lands_in_the_dirty_set():
    """Compiled code bakes the dirty set's identity: a store it makes
    after ``settle`` must still land in ``memory._dirty``."""
    state = stage(store_loop(), 64)
    data_base = state.memmap.page_base(3)
    cpu = CPU(state, engine="turbo")
    assert cpu.run(CODE_VA, max_steps=100_000).reason is ExitReason.SVC
    assert state.uarch.bcache, "the store loop did not run compiled"
    dirty = state.memory._dirty
    state.memory.settle()
    assert state.memory.page_stamp(data_base) is not None
    state.regs.cpsr = PSR(mode=Mode.USR, irq_masked=False, fiq_masked=False)
    state.regs.write_gpr(0, 64)
    assert cpu.run(CODE_VA, max_steps=100_000).reason is ExitReason.SVC
    assert state.memory._dirty is dirty
    assert state.memory.page_stamp(data_base) is None


class TestStampMemo:
    def test_hits_until_the_page_is_written(self):
        memory = PhysicalMemory(_MAP)
        memo = StampMemo(8)
        calls = []

        def derive(base):
            calls.append(base)
            return memory.read_word(base)

        memory.write_word(_BASES[2], 5)
        assert memo.lookup(memory, _BASES[2], derive, _BASES[2]) == 5
        assert len(memo) == 0  # dirty: derived, not remembered
        memory.checkpoint()
        for _ in range(3):
            assert memo.lookup(memory, _BASES[2], derive, _BASES[2]) == 5
        assert len(calls) == 2 and len(memo) == 1
        memory.write_word(_BASES[2], 6)
        assert memo.lookup(memory, _BASES[2], derive, _BASES[2]) == 6

    def test_raising_derivation_is_not_remembered(self):
        memory = PhysicalMemory(_MAP)
        memo = StampMemo(8)

        def boom():
            raise ValueError("torn")

        with pytest.raises(ValueError):
            memo.lookup(memory, _BASES[1], boom)
        assert len(memo) == 0
        assert memo.lookup(memory, _BASES[1], lambda: 7) == 7

    def test_bounded_oldest_first(self):
        memory = PhysicalMemory(_MAP)
        memo = StampMemo(3)
        for round_no in range(10):
            for base in _BASES[:2]:
                memory.write_word(base, round_no)
            memory.checkpoint()
            for base in _BASES[:2]:
                memo.lookup(memory, base, memory.read_word, base)
            assert len(memo) <= 3
        # The newest entries survive.
        assert memo.lookup(memory, _BASES[1], lambda base: -1, _BASES[1]) == 9
