"""Enclave measurement: incremental hashing, identity binding."""

import pytest

from repro.arm.machine import MachineState
from repro.arm.memory import WORDS_PER_PAGE
from repro.crypto.sha256 import SHA256
from repro.monitor.errors import KomErr
from repro.monitor.layout import SMC, PageType
from repro.monitor.measurement import (
    ABSORB_MEMO_SIZE,
    MEASURE_INITTHREAD,
    MEASURE_MAPSECURE,
    MeasurementContext,
    _absorb,
    measurement_of,
)
from repro.monitor.pagedb import PageDB
from repro.verification.refinement import CheckedMonitor, RefinementError


def _fresh_context():
    state = MachineState.boot(secure_pages=8)
    pagedb = PageDB(state)
    for pageno in range(pagedb.npages):
        pagedb.free_entry(pageno)
    pagedb.set_entry(0, PageType.ADDRSPACE, 0)
    measurement = MeasurementContext(pagedb, 0)
    measurement.init()
    return pagedb, measurement


@pytest.fixture
def ctx():
    return _fresh_context()


class TestIncrementalHashing:
    def test_init_stores_iv(self, ctx):
        pagedb, _ = ctx
        assert pagedb.hash_state(0) == SHA256().state_words
        assert pagedb.hash_length(0) == 0

    def test_record_advances_state(self, ctx):
        pagedb, measurement = ctx
        measurement.measure_record(MEASURE_INITTHREAD, 0x1000, 0)
        assert pagedb.hash_state(0) != SHA256().state_words
        assert pagedb.hash_length(0) == 64

    def test_page_contents_adds_64_blocks(self, ctx):
        pagedb, measurement = ctx
        measurement.measure_page_contents([0] * WORDS_PER_PAGE)
        assert pagedb.hash_length(0) == 4096

    def test_page_contents_requires_full_page(self, ctx):
        _, measurement = ctx
        with pytest.raises(ValueError):
            measurement.measure_page_contents([0] * 10)

    def test_finalise_matches_replay(self, ctx):
        """The concrete incremental hash equals a one-shot hash of the
        abstract measured sequence — the measurement refinement."""
        pagedb, measurement = ctx
        record = [MEASURE_MAPSECURE, 0x5007, 0] + [0] * 13
        contents = list(range(WORDS_PER_PAGE))
        measurement.measure_record(MEASURE_MAPSECURE, 0x5007, 0)
        measurement.measure_page_contents(contents)
        digest = measurement.finalise()
        replay = SHA256()
        words = record + contents
        for i in range(0, len(words), 16):
            replay.update_block_words(words[i : i + 16])
        assert digest == replay.digest_words()

    def test_finalise_stores_measurement(self, ctx):
        pagedb, measurement = ctx
        digest = measurement.finalise()
        assert pagedb.measurement(0) == digest

    def test_order_sensitivity(self):
        """Measuring the same records in a different order differs."""

        def measure(records):
            state = MachineState.boot(secure_pages=4)
            pagedb = PageDB(state)
            pagedb.set_entry(0, PageType.ADDRSPACE, 0)
            m = MeasurementContext(pagedb, 0)
            m.init()
            for tag, arg in records:
                m.measure_record(tag, arg, 0)
            return m.finalise()

        a = measure([(MEASURE_INITTHREAD, 1), (MEASURE_MAPSECURE, 2)])
        b = measure([(MEASURE_MAPSECURE, 2), (MEASURE_INITTHREAD, 1)])
        assert a != b

    def test_charges_cycles_per_block(self, ctx):
        pagedb, measurement = ctx
        before = pagedb.state.cycles
        measurement.measure_page_contents([0] * WORDS_PER_PAGE)
        charged = pagedb.state.cycles - before
        assert charged >= 64 * pagedb.state.costs.sha256_block


class TestMeasurementOf:
    def test_requires_addrspace(self, ctx):
        pagedb, measurement = ctx
        measurement.finalise()
        assert len(measurement_of(pagedb, 0)) == 8
        pagedb.set_entry(1, PageType.DATA, 0)
        with pytest.raises(ValueError):
            measurement_of(pagedb, 1)


def _observable(pagedb):
    state = pagedb.state
    return (
        pagedb.hash_state(0),
        pagedb.hash_length(0),
        state.cycles,
    )


class TestAbsorbMemo:
    """The memo changes how the chaining words are computed, nothing else."""

    def test_hit_and_miss_are_indistinguishable(self):
        contents = [(i * 2654435761) & 0xFFFFFFFF for i in range(WORDS_PER_PAGE)]
        _absorb.cache_clear()
        runs = []
        for _ in range(2):
            pagedb, context = _fresh_context()
            context.measure_record(MEASURE_MAPSECURE, 0x5007, 0)
            context.measure_page_contents(contents)
            runs.append(_observable(pagedb))
        info = _absorb.cache_info()
        assert (info.misses, info.hits) == (2, 2)
        assert runs[0] == runs[1]

    def test_out_of_range_words_hash_as_32_bit(self):
        """SMC arguments reach handlers unmasked; the record hashes their
        low 32 bits, as the pure hash's block interface does."""
        states = []
        for entry in (-1, 0xFFFFFFFF, 0x1_FFFF_FFFF):
            pagedb, context = _fresh_context()
            context.measure_record(MEASURE_INITTHREAD, entry, 0)
            states.append(pagedb.hash_state(0))
        assert states[0] == states[1] == states[2]

    def test_memo_is_bounded(self):
        pagedb, context = _fresh_context()
        for n in range(ABSORB_MEMO_SIZE + 8):
            context.measure_page_contents([n] * WORDS_PER_PAGE)
        assert _absorb.cache_info().currsize <= ABSORB_MEMO_SIZE
        assert pagedb.hash_length(0) == (ABSORB_MEMO_SIZE + 8) * 4096

    def test_replay_does_not_read_the_memo(self, monkeypatch):
        """A poisoned memo is caught by the uncached refinement replay."""
        checked = CheckedMonitor(secure_pages=8)
        assert checked.smc(SMC.INIT_ADDRSPACE, 0, 1)[0] is KomErr.SUCCESS
        monkeypatch.setattr(
            "repro.monitor.measurement._absorb", lambda chaining, blocks: (0,) * 8
        )
        with pytest.raises(RefinementError, match="hash chaining state diverged"):
            checked.smc(SMC.INIT_THREAD, 0, 2, 0x1000)
