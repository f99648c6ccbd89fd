"""The redo journal: encoding, commit point, replay-or-discard recovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arm.bits import WORDSIZE
from repro.arm.machine import MachineState
from repro.arm.memory import WORDS_PER_PAGE
from repro.faults.injector import FaultInjected, FaultPlan, inject
from repro.monitor import journal
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import JE_PAGE, JE_WRITE, JE_ZERO, JOURNAL_MAGIC


@pytest.fixture
def state():
    return KomodoMonitor(secure_pages=8).state


def page(state, n):
    return state.memmap.page_base(n)


class TestEncoding:
    def test_roundtrip_mixed_ops(self, state):
        ops = [
            (JE_WRITE, 0x8000_0100, 0xDEAD_BEEF),
            (JE_ZERO, page(state, 1)),
            (JE_PAGE, page(state, 2), tuple(range(WORDS_PER_PAGE))),
            (JE_WRITE, 0x8000_0104, 7),
        ]
        assert journal.decode_ops(journal.encode_ops(ops)) == ops

    def test_corrupt_opcode_rejected(self):
        with pytest.raises(ValueError):
            journal.decode_ops([99, 0, 0])


class TestCommitProtocol:
    def test_stage_then_commit_then_clear(self, state):
        payload = journal.encode_ops([(JE_WRITE, page(state, 0), 42)])
        journal.stage(state, payload)
        assert journal.is_present(state)
        magic, committed, length = journal.read_header(state)
        assert (magic, committed, length) == (JOURNAL_MAGIC, 0, len(payload))
        assert journal.payload_words(state) == payload
        journal.mark_committed(state)
        assert journal.read_header(state)[1] == 1
        journal.clear(state)
        assert not journal.is_present(state)
        # The whole region is scrubbed, not just the magic word.
        words = state.memory.read_words(
            journal.journal_base(state), journal.JOURNAL_SIZE // WORDSIZE
        )
        assert not any(words)

    def test_overflow_rejected(self, state):
        with pytest.raises(RuntimeError):
            journal.stage(state, [0] * (journal.JOURNAL_CAPACITY_WORDS + 1))


class TestRecovery:
    def test_clean_when_no_journal(self, state):
        assert journal.recover(state) == journal.RECOVERY_CLEAN

    def test_uncommitted_journal_discarded(self, state):
        target = page(state, 0)
        before = state.memory.read_word(target)
        journal.stage(state, journal.encode_ops([(JE_WRITE, target, 0x1234)]))
        assert journal.recover(state) == journal.RECOVERY_DISCARDED
        assert state.memory.read_word(target) == before  # never applied
        assert not journal.is_present(state)

    def test_committed_journal_replayed(self, state):
        target = page(state, 0)
        ops = [(JE_WRITE, target, 0x1234), (JE_ZERO, page(state, 1))]
        state.memory.write_word(page(state, 1), 0xFFFF)
        journal.stage(state, journal.encode_ops(ops))
        journal.mark_committed(state)
        assert journal.recover(state) == journal.RECOVERY_REPLAYED
        assert state.memory.read_word(target) == 0x1234
        assert state.memory.read_word(page(state, 1)) == 0
        assert not journal.is_present(state)

    def test_recovery_idempotent(self, state):
        target = page(state, 0)
        journal.stage(state, journal.encode_ops([(JE_WRITE, target, 5)]))
        journal.mark_committed(state)
        assert journal.recover(state) == journal.RECOVERY_REPLAYED
        assert journal.recover(state) == journal.RECOVERY_CLEAN
        assert state.memory.read_word(target) == 5

    def test_crash_during_replay_rerun_completes(self, state):
        """Recovery itself may be interrupted; re-running it finishes
        the same replay (all redo entries are absolute)."""
        a, b = page(state, 0), page(state, 1)
        ops = [(JE_WRITE, a, 1), (JE_WRITE, b, 2)]
        journal.stage(state, journal.encode_ops(ops))
        journal.mark_committed(state)
        # Crash at the second apply: a written, b not, journal intact.
        plan = FaultPlan(abort_at=2, kinds={"apply"})
        with inject(state, plan):
            with pytest.raises(FaultInjected):
                journal.recover(state)
        assert state.memory.read_word(a) == 1
        assert journal.is_present(state)
        assert journal.recover(state) == journal.RECOVERY_REPLAYED
        assert state.memory.read_word(a) == 1
        assert state.memory.read_word(b) == 2


class TestMonitorTransaction:
    def test_read_your_writes(self, state):
        txn = journal.MonitorTransaction()
        addr = page(state, 0)
        txn.record_write(addr, 0xABCD)
        assert txn.read(addr) == 0xABCD
        assert txn.read(addr + WORDSIZE) is None
        merged = txn.read_words(state.memory, addr, 2)
        assert merged[0] == 0xABCD

    def test_record_zero_overlays_whole_page(self, state):
        base = page(state, 0)
        state.memory.write_word(base + 8, 0x77)
        txn = journal.MonitorTransaction()
        txn.record_zero(base)
        assert txn.read(base + 8) == 0
        # Physical memory untouched until commit.
        assert state.memory.read_word(base + 8) == 0x77

    def test_copy_page_snapshots_source_at_record_time(self, state):
        src = state.memmap.insecure.base
        dst = page(state, 0)
        state.memory.write_word(src, 0x1111)
        txn = journal.MonitorTransaction()
        txn.record_copy_page(state.memory, src, dst)
        # The OS scribbles over its page after the copy was recorded;
        # replay must still produce the value read at record time.
        state.memory.write_word(src, 0x2222)
        txn.commit(state)
        assert state.memory.read_word(dst) == 0x1111

    def test_commit_applies_buffered_ops(self, state):
        addr = page(state, 0)
        txn = journal.MonitorTransaction()
        txn.record_write(addr, 9)
        txn.commit(state)
        assert state.memory.read_word(addr) == 9
        assert not journal.is_present(state)


class TestRunTransactional:
    def test_discard_on_commit_if_false(self, state):
        addr = page(state, 0)
        before = state.memory.read_word(addr)

        def handler():
            state.mon_write_word(addr, 0xBAD)
            return "error"

        result = journal.run_transactional(
            state, handler, commit_if=lambda r: r == "ok"
        )
        assert result == "error"
        assert state.memory.read_word(addr) == before
        assert state.txn is None

    def test_commit_on_commit_if_true(self, state):
        addr = page(state, 0)
        journal.run_transactional(
            state,
            lambda: state.mon_write_word(addr, 0x600D),
            commit_if=lambda _: True,
        )
        assert state.memory.read_word(addr) == 0x600D

    def test_no_nesting(self, state):
        def nested():
            return journal.run_transactional(state, lambda: None, lambda _: False)

        with pytest.raises(RuntimeError, match="nest"):
            journal.run_transactional(state, nested, lambda _: False)
        assert state.txn is None

    def test_harness_exception_detaches_txn(self, state):
        with pytest.raises(ZeroDivisionError):
            journal.run_transactional(state, lambda: 1 // 0, lambda _: True)
        assert state.txn is None


class FlatOverlay:
    """Reference model: one flat address -> value overlay, the semantics
    the per-page pending state must reproduce."""

    def __init__(self) -> None:
        self.ops = []
        self.overlay = {}

    def record_write(self, address, value):
        value &= 0xFFFFFFFF
        self.ops.append((JE_WRITE, address, value))
        self.overlay[address] = value

    def record_zero(self, base):
        self.ops.append((JE_ZERO, base))
        for i in range(WORDS_PER_PAGE):
            self.overlay[base + i * WORDSIZE] = 0

    def record_copy_page(self, memory, src, dst):
        content = self.read_words(memory, src, WORDS_PER_PAGE)
        self.ops.append((JE_PAGE, dst, tuple(content)))
        for i, word in enumerate(content):
            self.overlay[dst + i * WORDSIZE] = word

    def read(self, address):
        return self.overlay.get(address)

    def read_words(self, memory, address, count):
        words = memory.read_words(address, count)
        for i in range(count):
            value = self.overlay.get(address + i * WORDSIZE)
            if value is not None:
                words[i] = value
        return words


#: The differential test works on this many consecutive secure pages.
WINDOW_PAGES = 4

_word_index = st.one_of(
    st.sampled_from([0, 1, WORDS_PER_PAGE - 1]),
    st.integers(0, WORDS_PER_PAGE - 1),
)
# Zero/copy bases are word aligned; most are page aligned, some straddle
# two pages (hence the last page of the window is never a base).
_page_base = st.tuples(
    st.integers(0, WINDOW_PAGES - 2), st.one_of(st.just(0), _word_index)
)
_op = st.one_of(
    st.tuples(
        st.just("write"),
        st.integers(0, WINDOW_PAGES - 1),
        _word_index,
        st.integers(0, 2**33),
    ),
    st.tuples(st.just("zero"), _page_base),
    st.tuples(st.just("copy"), _page_base, _page_base),
)
_span = st.tuples(
    st.integers(0, WINDOW_PAGES - 1),
    _word_index,
    st.one_of(
        st.sampled_from([0, 1, WORDS_PER_PAGE, WORDS_PER_PAGE + 1]),
        st.integers(0, 2 * WORDS_PER_PAGE),
    ),
)


class TestPerPageOverlay:
    """The per-page pending state against the flat reference model."""

    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(_op, max_size=12),
        spans=st.lists(_span, min_size=1, max_size=6),
        seed_words=st.lists(st.integers(0, 0xFFFFFFFF), min_size=8, max_size=8),
    )
    def test_matches_flat_overlay(self, ops, spans, seed_words):
        state = MachineState.boot(secure_pages=WINDOW_PAGES + 1)
        memory = state.memory
        base = state.memmap.page_base(0)
        # Non-zero memory, so a missed patch cannot read back as a match.
        for i, word in enumerate(seed_words):
            memory.write_word(base + i * 509 * WORDSIZE, word)

        def address(page, word):
            return base + page * 0x1000 + word * WORDSIZE

        txn = journal.MonitorTransaction()
        ref = FlatOverlay()
        probes = set()
        for op in ops:
            if op[0] == "write":
                _, page, word, value = op
                probes.add(address(page, word))
                txn.record_write(address(page, word), value)
                ref.record_write(address(page, word), value)
            elif op[0] == "zero":
                dst = address(*op[1])
                probes.update((dst - WORDSIZE, dst, dst + 0xFFC, dst + 0x1000))
                txn.record_zero(dst)
                ref.record_zero(dst)
            else:
                src, dst = address(*op[1]), address(*op[2])
                probes.update((dst - WORDSIZE, dst, dst + 0xFFC, dst + 0x1000))
                txn.record_copy_page(memory, src, dst)
                ref.record_copy_page(memory, src, dst)
        assert txn.ops == ref.ops
        for probe in probes:
            assert txn.read(probe) == ref.read(probe)
        limit = address(WINDOW_PAGES, 0) + 0x1000
        for page, word, count in spans:
            start = address(page, word)
            count = min(count, (limit - start) // WORDSIZE)
            before = memory.read_ops
            got = txn.read_words(memory, start, count)
            middle = memory.read_ops
            assert got == ref.read_words(memory, start, count)
            # One physical read transaction each, exactly as before.
            assert middle - before == memory.read_ops - middle
