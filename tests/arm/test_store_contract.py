"""The store contract: physical memory owns what a store implies.

Paper section 5.1: a store into the live L1 table, or into an L2 table
it references, makes the TLB inconsistent.  ``PhysicalMemory``'s
mutators poison the TLB they watch themselves, so no writer has to
remember a follow-up call; ``EncryptedMemory`` poisons only once the
engine has tagged the stored words (the footprint re-walk reads them
back through the engine).  The watched footprint is memoised by L1
contents.  An AST scan keeps memory internals (the page-stamp table
included: consumers reach stamps only through ``page_stamp``) and
``note_store`` calls inside the modules that own them; a second scan
lets no module set an attribute of a memory object.  Both scans also
read the Python source the turbo engine generates (:func:`generated`),
which no file holds.  Each owner list is a ``{module: reason}``
allowlist judged by :func:`tests.scans.judge`, so an owner that no
longer needs its exemption fails the scan as well.
"""

import ast
import copy
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.isa_workloads import CODE_VA, DATA_VA, DATA_WORDS, WORKLOADS, stage
from repro.arm.assembler import Assembler
from repro.arm.cpu import CPU, ExitReason
from repro.arm.encryption import EncryptedMemory
from repro.arm.machine import MachineState
from repro.arm.memory import PAGE_SIZE, MemoryMap, PhysicalMemory
from repro.arm.pagetable import (
    DESC_L1_COARSE,
    L1_ENTRIES,
    entry_target,
    entry_type,
    make_l1_entry,
)
from repro.arm.tlb import FOOTPRINT_MEMO_SIZE, TLB, table_footprint
from repro.monitor.layout import SVC
from tests import scans
from tests.arm.test_turbo_chaining import make_encrypted_state

# L1 at secure page 2 referencing an L2 at page 3; pages 1 and 4 are
# unwatched neighbours, page 5 holds a source page for copies.
L1_PAGE, L2_PAGE, FREE_PAGE, SRC_PAGE = 2, 3, 4, 5


def watched_machine(memory_cls):
    """A memory whose live, flushed TLB watches an L1 and one L2."""
    memmap = MemoryMap(secure_pages=8)
    memory = memory_cls(memmap)
    l1_base, l2_base = memmap.page_base(L1_PAGE), memmap.page_base(L2_PAGE)
    memory.write_word(l1_base, make_l1_entry(l2_base))
    memory.write_word(memmap.page_base(SRC_PAGE) + 8, 0x1234)
    tlb = TLB()
    tlb.set_ttbr(memory, l1_base)
    tlb.flush()
    return memmap, memory, tlb


MUTATORS = {
    "write_word": lambda memory, memmap, base: memory.write_word(base + 8, 7),
    "write_words": lambda memory, memmap, base: memory.write_words(base + 8, [7, 8]),
    "zero_page": lambda memory, memmap, base: memory.zero_page(base),
    "copy_page": lambda memory, memmap, base: memory.copy_page(
        memmap.page_base(SRC_PAGE), base
    ),
}


@pytest.mark.parametrize("memory_cls", [PhysicalMemory, EncryptedMemory])
@pytest.mark.parametrize("mutator", sorted(MUTATORS))
class TestMutatorsPoison:
    @pytest.mark.parametrize("page", [L1_PAGE, L2_PAGE])
    def test_store_into_live_table_poisons_once(self, memory_cls, mutator, page):
        memmap, memory, tlb = watched_machine(memory_cls)
        version = tlb.version
        MUTATORS[mutator](memory, memmap, memmap.page_base(page))
        assert not tlb.consistent
        # One poison per page written, not per word, on either engine.
        assert tlb.version == version + 1

    def test_store_elsewhere_leaves_tlb_alone(self, memory_cls, mutator):
        memmap, memory, tlb = watched_machine(memory_cls)
        version = tlb.version
        MUTATORS[mutator](memory, memmap, memmap.page_base(FREE_PAGE))
        assert tlb.consistent and tlb.version == version


@pytest.mark.parametrize("memory_cls", [PhysicalMemory, EncryptedMemory])
class TestFootprintFollowsStores:
    def test_l1_store_installs_a_watched_l2(self, memory_cls):
        """A store into the live L1 re-walks it (through the engine, with
        the new word's tag already written), so the L2 it installs is
        watched before the next TTBR load."""
        memmap, memory, tlb = watched_machine(memory_cls)
        new_l2 = memmap.page_base(FREE_PAGE)
        memory.write_word(memmap.page_base(L1_PAGE) + 4, make_l1_entry(new_l2))
        assert tlb.watches(new_l2)
        tlb.flush()
        memory.write_word(new_l2 + 12, 1)
        assert not tlb.consistent

    def test_two_page_burst_poisons_its_second_page(self, memory_cls):
        memmap, memory, tlb = watched_machine(memory_cls)
        last_free_word = memmap.page_base(L1_PAGE) - 4  # end of page 1
        memory.write_words(last_free_word, [5, 0])
        assert not tlb.consistent

    def test_unwatched_store_makes_no_call(self, memory_cls, monkeypatch):
        memmap, memory, tlb = watched_machine(memory_cls)
        calls = []
        monkeypatch.setattr(tlb, "note_store", calls.append)
        memory.write_word(memmap.page_base(FREE_PAGE), 1)
        memory.write_words(memmap.page_base(FREE_PAGE), [1, 2, 3])
        memory.write_word(memmap.insecure.base, 1)
        assert calls == []
        memory.write_word(memmap.page_base(L2_PAGE), 1)
        assert calls == [memmap.page_base(L2_PAGE)]


def booted_with_tables():
    state = MachineState.boot(secure_pages=8)
    l1_base = state.memmap.page_base(L1_PAGE)
    state.memory.write_word(l1_base, make_l1_entry(state.memmap.page_base(L2_PAGE)))
    state.load_ttbr0(l1_base)
    state.flush_tlb()
    return state, l1_base


class TestOnlyTheLiveTlbIsPoisoned:
    def test_after_restore(self):
        state, l1_base = booted_with_tables()
        snap = state.snapshot()
        before = state.tlb
        state.restore(snap)
        live = state.tlb
        assert live is not before and live is not snap.tlb
        state.memory.write_word(l1_base + 4, 0)
        assert not live.consistent
        assert before.consistent and snap.tlb.consistent

    def test_after_deepcopy(self):
        donor, l1_base = booted_with_tables()
        dup = copy.deepcopy(donor)
        dup.memory.write_word(l1_base + 4, 0)
        assert not dup.tlb.consistent
        assert donor.tlb.consistent
        donor.memory.write_word(l1_base + 8, 0)
        assert not donor.tlb.consistent


def walk(l1_base, words):
    """The footprint by a fresh walk: the L1 page and every L2 target."""
    pages = {l1_base & ~(PAGE_SIZE - 1)}
    pages.update(entry_target(e) for e in words if entry_type(e) == DESC_L1_COARSE)
    return pages


_MAP = MemoryMap(secure_pages=8)
_entries = st.one_of(
    st.integers(0, 0xFFFFFFFF),
    st.sampled_from([_MAP.page_base(p) for p in range(8)]).map(make_l1_entry),
)


class TestFootprintMemo:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_entries, min_size=L1_ENTRIES, max_size=L1_ENTRIES))
    def test_memo_matches_a_fresh_walk(self, words):
        memory = PhysicalMemory(_MAP)
        l1_base = _MAP.page_base(L1_PAGE)
        memory.write_words(l1_base, words)
        tlb = TLB()
        for _ in range(2):  # a miss, then a memo hit
            tlb.set_ttbr(memory, l1_base)
            assert tlb._table_pages == walk(l1_base, words)

    def test_memo_costs_one_read_transaction(self, monkeypatch):
        """A memo hit reads the L1 table once, as one span, and walks
        nothing else."""
        memory = PhysicalMemory(_MAP)
        tlb = TLB()
        l1_base = _MAP.page_base(L1_PAGE)
        tlb.set_ttbr(memory, l1_base)
        reads = []
        region_bytes = memory.region_bytes
        monkeypatch.setattr(
            memory,
            "region_bytes",
            lambda base, size: reads.append((base, size)) or region_bytes(base, size),
        )
        monkeypatch.setattr(memory, "read_word", None)
        monkeypatch.setattr(memory, "read_words", None)
        hits = table_footprint.cache_info().hits
        tlb.set_ttbr(memory, l1_base)
        assert reads == [(l1_base, L1_ENTRIES * 4)]
        assert table_footprint.cache_info().hits == hits + 1

    def test_memo_is_bounded(self):
        for i in range(FOOTPRINT_MEMO_SIZE + 8):
            table_footprint(0x8000_0000, i.to_bytes(4, "little") * L1_ENTRIES)
        info = table_footprint.cache_info()
        assert info.maxsize == FOOTPRINT_MEMO_SIZE
        assert info.currsize <= FOOTPRINT_MEMO_SIZE

    def test_copied_page_table_is_walked_afresh(self):
        """Copying a whole table over the live L1 swaps its footprint."""
        memory = PhysicalMemory(_MAP)
        l1_base, other = _MAP.page_base(L1_PAGE), _MAP.page_base(SRC_PAGE)
        memory.write_word(other + 4 * (L1_ENTRIES - 1), make_l1_entry(other))
        tlb = TLB()
        tlb.set_ttbr(memory, l1_base)
        assert not tlb.watches(other)
        memory.copy_page(other, l1_base)
        assert tlb.watches(other)


#: Memory internals; consumers reach page stamps only through ``page_stamp``.
INTERNALS = {"_buf", "_dirty", "_snap_token", "_stamps", "_tags"}

#: Module -> why it may touch memory internals.
INTERNALS_OWNERS = {
    "arm/memory.py": "PhysicalMemory defines them",
    "arm/encryption.py": "EncryptedMemory keeps its tags and ciphertext in them",
    "arm/blocks.py": "turbo's compiled inline stores mark pages in mem._dirty",
}

#: Owner key of the region source the turbo engine generates and compiles
#: (``blocks.compile_region``), which no module file holds.
GENERATED = "arm/<compiled regions>"

#: Module -> why it may call ``note_store``.
NOTE_STORE_OWNERS = {
    "arm/memory.py": "the mutators poison the TLB they watch",
    GENERATED: "inline stores bypass the mutators, so they poison a watched table page themselves",
}

#: Module -> why it may set an attribute of a memory object.
MEMORY_STATE_OWNERS = {
    GENERATED: "inline stores bypass the mutators, so their count is flushed into _mem.generation",
}


def touches_internals(node):
    return node.attr in INTERNALS


def calls_note_store(node):
    return node.attr == "note_store"


def sets_memory_state(node):
    """A store to (or deletion of) an attribute of ``memory``, of any
    ``<expr>.memory`` (``state.memory``, ``self.memory``), or of
    ``_mem``, the memory a compiled region binds."""
    target = getattr(node.value, "id", getattr(node.value, "attr", None))
    return target in ("memory", "_mem") and isinstance(node.ctx, (ast.Store, ast.Del))


def find(trees, breach):
    """``module -> ["line: .attribute", ...]`` of the modules under
    ``src/repro`` whose attribute nodes ``breach`` flags, and every
    module seen."""
    found, seen = {}, set()
    for path, tree in trees.items():
        module = path.relative_to(scans.SRC / "repro").as_posix()
        seen.add(module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and breach(node):
                found.setdefault(module, []).append(f"{node.lineno}: .{node.attr}")
    return found, seen


def store_program():
    """Double ``r0`` data words in place: the staged workloads only load,
    and inline stores are where compiled code touches memory state."""
    asm = Assembler()
    asm.mov32("r4", DATA_VA)
    asm.label("loop")
    asm.ldr("r2", "r4", 0)
    asm.add("r2", "r2", "r2")
    asm.str_("r2", "r4", 0)
    asm.addi("r4", "r4", 4)
    asm.subi("r0", "r0", 1)
    asm.cmpi("r0", 0)
    asm.bne("loop")
    asm.svc(SVC.EXIT)
    return asm


#: Staged program -> a small r0 for it.
PROGRAMS = {
    "checksum": (WORKLOADS["checksum"][0], 8),
    "notary": (WORKLOADS["notary"][0], 150),
    "sha256": (WORKLOADS["sha256"][0], 1),
    "store": (store_program, 4),
}


def encrypted(staged):
    """``staged``'s program, data and r0 over ``EncryptedMemory``."""
    memmap = staged.memmap
    state = make_encrypted_state(
        staged.memory.read_words(memmap.page_base(2), PAGE_SIZE // 4),
        data_words=staged.memory.read_words(memmap.page_base(3), DATA_WORDS),
    )
    state.regs.write_gpr(0, staged.regs.read_gpr(0))
    return state


@functools.lru_cache(maxsize=None)
def generated():
    """``{path: module}`` holding every region source the turbo engine
    compiles for :data:`PROGRAMS` staged by ``isa_workloads.stage``:
    untraced and traced with the inline memory path, and over
    ``EncryptedMemory`` without it.  The path reads as :data:`GENERATED`."""
    sources = []
    for factory, r0 in PROGRAMS.values():
        for variant in ("inline", "traced", "encrypted"):
            state = stage(factory(), r0)
            if variant == "encrypted":
                state = encrypted(state)
            cpu = CPU(state, engine="turbo")
            if variant == "traced":
                cpu.access_trace = []
            assert cpu.run(CODE_VA, max_steps=100_000).reason is ExitReason.SVC
            sources.extend(fn.__source__ for fn in state.uarch.compiled.values())
    return {scans.SRC / "repro" / GENERATED: ast.parse("\n\n".join(sources))}


def _check(breach, owners):
    found, seen = find({**scans.trees("src"), **generated()}, breach)
    unexplained, stale = scans.judge(found, seen, owners)
    assert not unexplained and not stale, ({m: found[m] for m in unexplained}, stale)


def test_store_contract_has_one_owner():
    _check(touches_internals, INTERNALS_OWNERS)
    _check(calls_note_store, NOTE_STORE_OWNERS)


def test_only_memory_sets_its_own_state():
    """Memory keeps its own bookkeeping: no other module assigns (or
    deletes) an attribute of a memory object, so no caller can save and
    restore memory state around its own reads or writes."""
    _check(sets_memory_state, MEMORY_STATE_OWNERS)
