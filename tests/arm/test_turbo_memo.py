"""The turbo compile memo (``uarch.compiled``) across snapshot restores.

``MachineState.restore`` empties every validated cache — block cache,
decode cache, micro-TLB — but keeps the content-keyed compile memo, so
a restored machine running the same code again, dispatching each
region it crosses through ``blocks.lookup``, skips only ``compile()``.  Every test here compares the turbo
engine with the reference engine run through the same sequence
(registers, cycles, memory, access trace) and pins the memo's own
contract: one compile per distinct region, fresh compiles for new code
at an old address, no function baked for another machine's memory, no
inline fast path over ``EncryptedMemory``, and the ``BLOCK_CACHE_CAP``
bound.
"""

import copy

import pytest

from repro.arm import blocks
from repro.arm.cpu import CPU, ExitReason
from repro.arm.modes import Mode
from repro.arm.registers import PSR

from tests.arm.test_engine_differential import (
    CODE_VA,
    DATA_VA,
    asm_words,
    make_state,
    observe,
)
from tests.arm.test_turbo_chaining import make_encrypted_state


def _store_loop(value):
    """A multi-block region: a loop of loads and stores over the data
    page, then ``value`` in r0."""

    def build(asm):
        asm.movw("r1", 0)
        asm.mov32("r4", DATA_VA)
        asm.label("loop")
        asm.ldr("r2", "r4", 0)
        asm.addi("r2", "r2", 3)
        asm.str_("r2", "r4", 0)
        asm.str_("r1", "r4", 4)
        asm.addi("r4", "r4", 8)
        asm.addi("r1", "r1", 1)
        asm.cmpi("r1", 12)
        asm.bne("loop")
        asm.movw("r0", value)
        asm.svc(0)

    return asm_words(build)


def _straight_stores(value):
    """One basic block storing ``value`` twice (a region with no hops,
    so plain and encrypted memory discover the same region)."""

    def build(asm):
        asm.mov32("r4", DATA_VA)
        asm.movw("r5", value)
        asm.str_("r5", "r4", 0)
        asm.ldr("r6", "r4", 0)
        asm.str_("r6", "r4", 4)
        asm.svc(0)

    return asm_words(build)


@pytest.fixture
def compiles(monkeypatch):
    """Count ``compile_region`` calls."""
    calls = []
    original = blocks.compile_region

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(blocks, "compile_region", counting)
    return calls


def run(state, engine, trace):
    cpu = CPU(state, engine=engine)
    cpu.access_trace = [] if trace else None
    result = cpu.run(CODE_VA, max_steps=10_000)
    return result, observe(state), cpu.access_trace


def restore_runs(engine, code_words, rounds, trace, between=None):
    """Snapshot a staged machine, then run it ``rounds`` times, each
    from a restore of the snapshot; ``between(state, i)`` may rewrite
    memory after the restore.  Returns the machine and every run's
    outcome."""
    state = make_state(code_words, data_words=[7] * 32)
    snap = state.snapshot()
    outcomes = []
    for i in range(rounds):
        state.restore(snap)
        if between is not None:
            between(state, i)
        outcomes.append(run(state, engine, trace))
    return state, outcomes


class TestCompileOncePerRegion:
    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    def test_restores_reuse_compiled_regions(self, compiles, trace):
        reference = restore_runs("reference", _store_loop(5), 4, trace)[1]
        state = make_state(_store_loop(5), data_words=[7] * 32)
        snap = state.snapshot()
        outcomes = []
        for i in range(4):
            state.restore(snap)
            assert state.uarch.bcache == {}  # validated caches start cold
            outcomes.append(run(state, "turbo", trace))
            if i == 0:
                # One compile per distinct (region, variant); a traced
                # miss builds both variants of the region it discovers.
                first = len(compiles)
                assert first == len(state.uarch.compiled) > 0
        assert len(compiles) == first
        assert outcomes[0][0].reason is ExitReason.SVC
        assert outcomes == reference


class TestNewCodeAtOldAddress:
    def test_rewritten_code_compiles_fresh_and_runs(self, compiles):
        """After a restore, other words at the same physical address are
        a different key: they compile afresh and the new code runs.  A
        later restore back to the old words hits the old entries."""
        code_page = make_state([]).memmap.page_base(2)
        marks = []

        def rewrite(state, i):
            marks.append(len(compiles))
            if i == 1:
                state.memory.write_words(code_page, _store_loop(9))

        reference = restore_runs("reference", _store_loop(5), 3, True, rewrite)[1]
        marks.clear()
        outcomes = restore_runs("turbo", _store_loop(5), 3, True, rewrite)[1]
        marks.append(len(compiles))
        per_run = [b - a for a, b in zip(marks, marks[1:])]
        assert per_run[0] > 0 and per_run[1] > 0  # the new words compiled
        assert per_run[2] == 0  # the old words again: every region a hit
        assert [o[1]["gprs"][0] for o in outcomes] == [5, 9, 5]
        assert outcomes == reference


def reenter(state):
    """Back to user mode for a second run after an exception exit."""
    state.regs.cpsr = PSR(mode=Mode.USR, irq_masked=False, fiq_masked=False)


class TestDeepCopyIsolation:
    @pytest.mark.parametrize("restored", [False, True], ids=["warm", "restored"])
    def test_copy_never_writes_into_the_donor(self, restored):
        """A deep copy of a machine holds its donor's compiled functions:
        in the memo, and in the block cache unless it was restored.
        Running a store-heavy region on the copy must leave the donor's
        memory byte-identical and match a cold machine."""

        def prepare(engine):
            state = make_state(_store_loop(5), data_words=[7] * 32)
            snap = state.snapshot()
            run(state, engine, False)
            if restored:
                state.restore(snap)
            else:
                reenter(state)
            return state

        donor = prepare("turbo")
        assert donor.uarch.compiled
        donor_bytes = bytes(donor.memory._buf)
        fork = copy.deepcopy(donor)
        got = run(fork, "turbo", False)
        assert bytes(donor.memory._buf) == donor_bytes
        for engine in ("turbo", "reference"):
            assert got == run(prepare(engine), engine, False), engine
        for entry in fork.uarch.bcache.values():
            baked = entry[blocks._FN].__globals__.get("_mem")
            assert baked is None or baked is fork.memory


class TestEncryptedMemory:
    def test_never_served_an_inline_function(self):
        """An ``EncryptedMemory`` machine whose memo holds inline
        functions compiled for plain memory (same address, same words,
        so the same keys) compiles its own, helper-only functions."""
        words = _straight_stores(0x77)
        plain = make_state(words)
        run(plain, "turbo", False)
        planted = dict(plain.uarch.compiled)
        assert any("_mw[" in fn.__source__ for fn in planted.values())
        plain_bytes = bytes(plain.memory._buf)

        enc = make_encrypted_state(words)
        snap = enc.snapshot()
        enc.uarch.compiled.update(planted)
        outcomes = []
        for _ in range(3):
            enc.restore(snap)
            outcomes.append(run(enc, "turbo", True))
            for entry in enc.uarch.bcache.values():
                for fn in (entry[blocks._FN], entry[blocks._FNT]):
                    assert "_mw[" not in fn.__source__
                    assert "_mem" not in fn.__globals__
        for key, fn in planted.items():
            assert enc.uarch.compiled[key] is not fn  # the key was hit
        assert bytes(plain.memory._buf) == plain_bytes
        assert outcomes[0] == run(make_encrypted_state(words), "reference", True)
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestMemoBound:
    def test_memo_never_exceeds_block_cache_cap(self, monkeypatch):
        """Each restore stages different code at the same address, so
        every round adds a key; the oldest are evicted at the cap."""
        monkeypatch.setattr(blocks, "BLOCK_CACHE_CAP", 4)
        code_page = make_state([]).memmap.page_base(2)
        sizes = []

        def restage(state, i):
            state.memory.write_words(code_page, _store_loop(i))

        reference = restore_runs("reference", [], 10, False, restage)[1]

        def restage_and_measure(state, i):
            sizes.append(len(state.uarch.compiled))
            restage(state, i)

        state, outcomes = restore_runs("turbo", [], 10, False, restage_and_measure)
        sizes.append(len(state.uarch.compiled))
        assert outcomes == reference
        assert [o[1]["gprs"][0] for o in outcomes] == list(range(10))
        assert max(sizes) == 4


@pytest.fixture
def discoveries(monkeypatch):
    """Count fresh ``discover_region`` runs (memo misses and bypasses)."""
    calls = []
    original = blocks.discover_region

    def counting(memory, paddr):
        calls.append(paddr)
        return original(memory, paddr)

    monkeypatch.setattr(blocks, "discover_region", counting)
    return calls


class TestRegionMemo:
    """``discover_region`` memoised on ``(paddr, page_stamp)``
    (``blocks._REGIONS``): a restore empties the block cache, but a
    clean code page's regions are not rediscovered."""

    def test_hit_equals_fresh_discovery(self, discoveries):
        reference = restore_runs("reference", _store_loop(5), 3, False)[1]
        discoveries.clear()
        marks = []
        state, outcomes = restore_runs(
            "turbo", _store_loop(5), 3, False, lambda s, i: marks.append(len(discoveries))
        )
        marks.append(len(discoveries))
        assert outcomes == reference
        assert marks[1] - marks[0] > 0  # the first run discovers
        assert marks[3] - marks[1] == 0  # later runs are all memo hits
        memory = state.memory
        hits = 0
        for (paddr, stamp), value in blocks._REGIONS._entries.items():
            if memory.page_stamp(paddr) == stamp and paddr in state.uarch.bcache:
                assert value == blocks.discover_region(memory, paddr)
                hits += 1
        assert hits == len(state.uarch.bcache) > 0

    def test_rewritten_code_page_is_rediscovered(self, discoveries):
        """A store into the code page makes it dirty: its regions are
        discovered afresh, and turbo recompiles and matches reference."""
        code_page = make_state([]).memmap.page_base(2)
        marks = []

        def rewrite(state, i):
            marks.append(len(discoveries))
            if i == 1:
                state.memory.write_words(code_page, _store_loop(9))

        reference = restore_runs("reference", _store_loop(5), 3, True, rewrite)[1]
        marks.clear()
        discoveries.clear()
        outcomes = restore_runs("turbo", _store_loop(5), 3, True, rewrite)[1]
        marks.append(len(discoveries))
        per_run = [b - a for a, b in zip(marks, marks[1:])]
        assert per_run[1] > 0  # the dirty page: fresh discovery
        assert per_run[2] == 0  # the restored page: memo hits again
        assert [o[1]["gprs"][0] for o in outcomes] == [5, 9, 5]
        assert outcomes == reference

    def test_encrypted_memory_bypasses_the_memo(self, discoveries):
        words = _store_loop(3)
        reference = run(make_encrypted_state(words), "reference", True)
        enc = make_encrypted_state(words)
        snap = enc.snapshot()
        before = dict(blocks._REGIONS._entries)
        for _ in range(3):
            enc.restore(snap)
            discoveries.clear()
            assert run(enc, "turbo", True) == reference
            assert len(discoveries) >= len(enc.uarch.bcache) > 0
        assert blocks._REGIONS._entries == before

    def test_memo_stays_at_its_cap(self, monkeypatch):
        """Each round stages and stamps new code at the same address,
        so every round adds a key; the oldest are dropped at the cap."""
        monkeypatch.setattr(blocks._REGIONS, "cap", 2)
        monkeypatch.setattr(blocks._REGIONS, "_entries", {})
        code_page = make_state([]).memmap.page_base(2)

        def rounds(engine):
            state = make_state([], data_words=[7] * 32)
            outcomes, sizes = [], []
            for i in range(6):
                state.memory.write_words(code_page, _store_loop(i))
                snap = state.snapshot()
                outcomes.append(run(state, engine, False))
                sizes.append(len(blocks._REGIONS))
                state.restore(snap)
            return outcomes, sizes

        outcomes, sizes = rounds("turbo")
        assert outcomes == rounds("reference")[0]
        assert [o[1]["gprs"][0] for o in outcomes] == list(range(6))
        assert max(sizes) == 2
