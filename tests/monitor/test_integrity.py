"""The memory-integrity engine: tags, repair, quarantine, scrub."""

import re

import pytest

from repro.arm.assembler import Assembler
from repro.arm.bits import WORDSIZE
from repro.arm.encryption import EncryptedMemory
from repro.arm.machine import MachineState
from repro.arm.memory import WORDS_PER_PAGE, MemoryMap, PhysicalMemory
from repro.faults.audit import audit_monitor, integrity_consistency
from repro.monitor import integrity
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import (
    AS_REFCOUNT_WORD,
    AS_STATE_WORD,
    SMC,
    SVC,
    AddrspaceState,
    PageType,
    itag_dirty_addr,
    itag_entry_sum_addr,
    itag_page_tag_addr,
    itag_quarantine_addr,
    itag_replica_addr,
    pagedb_entry_addr,
)
from repro.osmodel.kernel import OSKernel
from repro.sdk.builder import CODE_VA, DATA_VA, EnclaveBuilder


@pytest.fixture
def env():
    monitor = KomodoMonitor(secure_pages=16)
    return monitor, OSKernel(monitor)


def exit_assembler() -> Assembler:
    asm = Assembler()
    asm.movw("r0", 0x42)
    asm.svc(SVC.EXIT)
    return asm


def build_enclave(kernel):
    return (
        EnclaveBuilder(kernel)
        .add_code(exit_assembler())
        .add_thread(CODE_VA)
        .build()
    )


class TestChecksums:
    def test_entry_checksum_detects_any_single_bit(self):
        base = integrity.entry_checksum(2, 5)
        for bit in range(32):
            assert integrity.entry_checksum(2 ^ (1 << bit), 5) != base
            assert integrity.entry_checksum(2, 5 ^ (1 << bit)) != base

    def test_page_checksum_detects_any_single_bit(self):
        words = list(range(WORDS_PER_PAGE))
        base = integrity.page_checksum(words)
        for word, bit in ((0, 0), (17, 13), (WORDS_PER_PAGE - 1, 31)):
            flipped = list(words)
            flipped[word] ^= 1 << bit
            assert integrity.page_checksum(flipped) != base


class TestBoot:
    def test_engine_enabled_after_boot(self, env):
        monitor, _ = env
        assert integrity.enabled(monitor.state)

    def test_boot_state_is_consistent(self, env):
        monitor, _ = env
        assert integrity.consistency_problems(monitor.state) == []
        assert integrity.quarantined_pages(monitor.state) == []

    def test_scrub_is_in_the_smc_table(self):
        assert int(SMC.SCRUB) == 25

    def test_tag_region_capacity_guard(self):
        # 1 + 6n words must fit between ITAG_OFFSET and the journal.
        with pytest.raises(ValueError):
            KomodoMonitor(secure_pages=700)


class TestTransactionalTags:
    def test_lifecycle_keeps_tags_consistent(self, env):
        monitor, kernel = env
        enclave = build_enclave(kernel)
        assert integrity.consistency_problems(monitor.state) == []
        assert enclave.call() == (KomErr.SUCCESS, 0x42)
        assert integrity.consistency_problems(monitor.state) == []
        enclave.teardown()
        assert integrity.consistency_problems(monitor.state) == []

    def test_precheck_on_clean_state_is_free(self, env):
        monitor, kernel = env
        build_enclave(kernel)
        before = monitor.state.cycles
        report = integrity.precheck(monitor)
        assert monitor.state.cycles == before
        assert monitor.state.txn is None
        assert (report.repaired, report.quarantined) == (0, [])


class TestPagedbRedundancy:
    def _flip_and_precheck(self, monitor, address, bit=3):
        monitor.state.flip_bit(address, bit)
        report = integrity.precheck(monitor)
        assert report.quarantined == []
        assert report.repaired == 1
        assert integrity.consistency_problems(monitor.state) == []
        assert audit_monitor(monitor) == []

    def test_primary_type_word_repaired(self, env):
        monitor, kernel = env
        enclave = build_enclave(kernel)
        base = monitor.state.memmap.monitor_image.base
        self._flip_and_precheck(
            monitor, pagedb_entry_addr(base, enclave.as_page)
        )
        assert monitor.pagedb.page_type(enclave.as_page) is PageType.ADDRSPACE

    def test_primary_owner_word_repaired(self, env):
        monitor, kernel = env
        enclave = build_enclave(kernel)
        base = monitor.state.memmap.monitor_image.base
        thread_entry = pagedb_entry_addr(base, enclave.thread)
        self._flip_and_precheck(monitor, thread_entry + WORDSIZE)
        assert monitor.pagedb.owner(enclave.thread) == enclave.as_page

    def test_replica_word_repaired(self, env):
        monitor, kernel = env
        enclave = build_enclave(kernel)
        base = monitor.state.memmap.monitor_image.base
        self._flip_and_precheck(monitor, itag_replica_addr(base, enclave.as_page))

    def test_checksum_word_repaired(self, env):
        monitor, kernel = env
        enclave = build_enclave(kernel)
        state = monitor.state
        base = state.memmap.monitor_image.base
        npages = state.memmap.secure_pages
        self._flip_and_precheck(
            monitor, itag_entry_sum_addr(base, npages, enclave.as_page)
        )


class TestQuarantine:
    def test_metadata_corruption_quarantines_and_stops_owner(self, env):
        monitor, kernel = env
        victim = build_enclave(kernel)
        bystander = build_enclave(kernel)
        thread_base = monitor.state.memmap.page_base(victim.thread)
        monitor.state.flip_bit(thread_base + 5 * WORDSIZE, 9)
        err, value = monitor.smc(SMC.FINALISE, victim.as_page)
        assert err is KomErr.PAGE_QUARANTINED
        assert value == victim.thread
        # The page is zeroed, flagged, and its entry retained.
        assert not any(
            monitor.state.memory.read_words(thread_base, WORDS_PER_PAGE)
        )
        assert integrity.quarantined_pages(monitor.state) == [victim.thread]
        assert monitor.pagedb.page_type(victim.thread) is PageType.THREAD
        as_base = monitor.state.memmap.page_base(victim.as_page)
        state_word = monitor.state.memory.read_word(
            as_base + AS_STATE_WORD * WORDSIZE
        )
        assert state_word == int(AddrspaceState.STOPPED)
        # Containment: the bystander still runs; audits stay clean.
        assert monitor.pagedb.live_addrspaces() == [
            victim.as_page,
            bystander.as_page,
        ]
        assert bystander.call() == (KomErr.SUCCESS, 0x42)
        assert audit_monitor(monitor) == []
        assert integrity_consistency(monitor.state) == []

    def test_addrspace_page_corruption_sanitized_in_place(self, env):
        monitor, kernel = env
        victim = build_enclave(kernel)
        as_base = monitor.state.memmap.page_base(victim.as_page)
        monitor.state.flip_bit(as_base + 7 * WORDSIZE, 21)
        err, value = monitor.smc(SMC.FINALISE, victim.as_page)
        assert (err, value) == (KomErr.PAGE_QUARANTINED, victim.as_page)
        memory = monitor.state.memory
        assert memory.read_word(as_base + AS_STATE_WORD * WORDSIZE) == int(
            AddrspaceState.STOPPED
        )
        # Refcount rebuilt from the PageDB so teardown still balances.
        owned = [
            p
            for p in range(monitor.pagedb.npages)
            if p != victim.as_page
            and monitor.pagedb.page_type(p) is not PageType.FREE
            and monitor.pagedb.owner(p) == victim.as_page
        ]
        assert memory.read_word(as_base + AS_REFCOUNT_WORD * WORDSIZE) == len(owned)
        assert audit_monitor(monitor) == []
        assert integrity_consistency(monitor.state) == []

    def test_remove_retires_quarantine_flag(self, env):
        monitor, kernel = env
        victim = build_enclave(kernel)
        thread_base = monitor.state.memmap.page_base(victim.thread)
        monitor.state.flip_bit(thread_base, 0)
        err, _ = monitor.smc(SMC.FINALISE, victim.as_page)
        assert err is KomErr.PAGE_QUARANTINED
        kernel.smc_checked(SMC.REMOVE, victim.thread)
        assert integrity.quarantined_pages(monitor.state) == []
        assert integrity_consistency(monitor.state) == []

    def test_data_corruption_caught_lazily_on_enter(self, env):
        monitor, kernel = env
        enclave = build_enclave(kernel)
        code_page = enclave.data_pages[CODE_VA]
        code_base = monitor.state.memmap.page_base(code_page)
        monitor.state.flip_bit(code_base, 12)
        # A call that does not enter this enclave trusts nothing of its
        # DATA pages — no quarantine yet.
        err, _ = monitor.smc(SMC.STOP, 0xFFFF)
        assert err is KomErr.INVALID_PAGENO
        assert integrity.quarantined_pages(monitor.state) == []
        # Entering it does: the corrupted code would otherwise run.
        err, value = monitor.smc(SMC.ENTER, enclave.thread, 0, 0, 0)
        assert (err, value) == (KomErr.PAGE_QUARANTINED, code_page)
        assert audit_monitor(monitor) == []
        assert integrity_consistency(monitor.state) == []


class TestDirtyFlagProtocol:
    def _dirty_flag(self, monitor, asno):
        state = monitor.state
        return state.memory.read_word(
            itag_dirty_addr(
                state.memmap.monitor_image.base, state.memmap.secure_pages, asno
            )
        )

    def test_suspension_keeps_flag_set_until_final_exit(self, env):
        monitor, kernel = env
        asm = Assembler()
        asm.movw("r0", 0)
        asm.label("loop")
        asm.addi("r0", "r0", 1)
        asm.cmpi("r0", 40)
        asm.bne("loop")
        asm.svc(SVC.EXIT)
        enclave = (
            EnclaveBuilder(kernel).add_code(asm).add_thread(CODE_VA).build()
        )
        assert self._dirty_flag(monitor, enclave.as_page) == 0
        monitor.schedule_interrupt(5)
        err, _ = monitor.smc(SMC.ENTER, enclave.thread, 0, 0, 0)
        assert err is KomErr.INTERRUPTED
        # Suspended mid-run: tags must not be trusted.
        assert self._dirty_flag(monitor, enclave.as_page) == 1
        err, value = kernel.resume(enclave.thread)
        while err is KomErr.INTERRUPTED:
            err, value = kernel.resume(enclave.thread)
        assert (err, value) == (KomErr.SUCCESS, 40)
        assert self._dirty_flag(monitor, enclave.as_page) == 0
        assert integrity.consistency_problems(monitor.state) == []

    def test_enclave_stores_retagged_at_exit(self, env):
        monitor, kernel = env
        asm = Assembler()
        asm.movw("r1", DATA_VA & 0xFFFF)
        asm.movt("r1", DATA_VA >> 16)
        asm.movw("r2", 0xBEEF)
        asm.str_("r2", "r1")
        asm.movw("r0", 1)
        asm.svc(SVC.EXIT)
        enclave = (
            EnclaveBuilder(kernel)
            .add_code(asm)
            .add_data([0] * 4)
            .add_thread(CODE_VA)
            .build()
        )
        assert enclave.call() == (KomErr.SUCCESS, 1)
        # The store changed a DATA page; its tag was refreshed in the
        # exit window, so the engine still agrees with memory.
        assert self._dirty_flag(monitor, enclave.as_page) == 0
        assert integrity.consistency_problems(monitor.state) == []


class TestScrub:
    def test_scrub_on_clean_state_reports_nothing(self, env):
        monitor, kernel = env
        build_enclave(kernel)
        assert kernel.scrub() == (0, 0)

    def test_scrub_heals_free_page_residue(self, env):
        monitor, kernel = env
        free_page = 7
        assert monitor.pagedb.page_type(free_page) is PageType.FREE
        base = monitor.state.memmap.page_base(free_page)
        monitor.state.flip_bit(base + 11 * WORDSIZE, 4)
        fixed, quarantined = kernel.scrub()
        assert (fixed, quarantined) == (1, 0)
        assert not any(monitor.state.memory.read_words(base, WORDS_PER_PAGE))
        assert audit_monitor(monitor) == []

    def test_scrub_heals_bogus_quarantine_flag(self, env):
        monitor, kernel = env
        enclave = build_enclave(kernel)
        state = monitor.state
        address = itag_quarantine_addr(
            state.memmap.monitor_image.base,
            state.memmap.secure_pages,
            enclave.thread,
        )
        state.flip_bit(address, 0)
        fixed, quarantined = kernel.scrub()
        assert (fixed, quarantined) == (1, 0)
        assert integrity.quarantined_pages(state) == []
        # The flag was a lie (owner never stopped); the enclave still runs.
        assert enclave.call() == (KomErr.SUCCESS, 0x42)

    def test_scrub_heals_bogus_dirty_flag(self, env):
        monitor, kernel = env
        state = monitor.state
        free_page = 9
        assert monitor.pagedb.page_type(free_page) is PageType.FREE
        address = itag_dirty_addr(
            state.memmap.monitor_image.base, state.memmap.secure_pages, free_page
        )
        state.flip_bit(address, 0)
        fixed, quarantined = kernel.scrub()
        assert (fixed, quarantined) == (1, 0)
        assert integrity.consistency_problems(state) == []

    def test_scrub_quarantines_idle_data_corruption(self, env):
        monitor, kernel = env
        enclave = build_enclave(kernel)
        code_page = enclave.data_pages[CODE_VA]
        monitor.state.flip_bit(monitor.state.memmap.page_base(code_page), 30)
        fixed, quarantined = kernel.scrub()
        assert quarantined == 1
        assert integrity.quarantined_pages(monitor.state) == [code_page]
        assert audit_monitor(monitor) == []
        assert integrity_consistency(monitor.state) == []

    def test_scrub_cost_is_the_dispatch_overhead_only(self, env):
        # The sweep itself models a hardware pipeline stage: the SMC
        # costs exactly what a null call (Query) costs.
        monitor, kernel = env
        build_enclave(kernel)
        before = monitor.state.cycles
        kernel.smc_checked(SMC.QUERY)
        null_cost = monitor.state.cycles - before
        before = monitor.state.cycles
        kernel.scrub()
        assert monitor.state.cycles - before == null_cost


class TestTagAddressing:
    def test_itag_arrays_do_not_overlap(self, env):
        monitor, _ = env
        state = monitor.state
        base = state.memmap.monitor_image.base
        npages = state.memmap.secure_pages
        addresses = set()
        for pageno in range(npages):
            addresses.add(itag_replica_addr(base, pageno))
            addresses.add(itag_replica_addr(base, pageno) + WORDSIZE)
            addresses.add(itag_entry_sum_addr(base, npages, pageno))
            addresses.add(itag_page_tag_addr(base, npages, pageno))
            addresses.add(itag_quarantine_addr(base, npages, pageno))
            addresses.add(itag_dirty_addr(base, npages, pageno))
        assert len(addresses) == 6 * npages


def _flag_quarantined(state, pageno):
    state.flip_bit(
        itag_quarantine_addr(
            state.memmap.monitor_image.base, state.memmap.secure_pages, pageno
        ),
        0,
    )


class TestSharedRules:
    """``scrub`` and the audit walk apply one stray-flag rule and one
    tag-mismatch rule, and verification never counts a read."""

    @pytest.mark.parametrize(
        "where", [("free",), ("live",), ("stopped",), ("free", "live", "stopped")]
    )
    def test_audit_names_exactly_the_flags_scrub_heals(self, env, where):
        monitor, kernel = env
        stopped = build_enclave(kernel)
        live = build_enclave(kernel)
        kernel.smc_checked(SMC.STOP, stopped.as_page)
        free_page = monitor.state.memmap.secure_pages - 1
        assert monitor.pagedb.page_type(free_page) is PageType.FREE
        # A FREE entry's owner word is 0: the stopped addrspace, so only
        # the FREE clause makes that flag stray.
        assert (monitor.pagedb.owner(free_page), stopped.as_page) == (0, 0)
        pages = {"free": free_page, "live": live.thread, "stopped": stopped.thread}
        state = monitor.state
        for name in where:
            _flag_quarantined(state, pages[name])
        named = sorted(
            int(re.search(r"page (\d+)", problem).group(1))
            for problem in integrity.consistency_problems(state)
        )
        flagged = set(integrity.quarantined_pages(state))
        fixed, quarantined = kernel.scrub()
        healed = sorted(flagged - set(integrity.quarantined_pages(state)))
        assert quarantined == 0
        assert named == healed == sorted(pages[n] for n in where if n != "stopped")
        assert fixed == len(healed)
        assert integrity.consistency_problems(state) == []

    def test_stray_rule_checks_the_owner_type_first(self, env):
        """An owner word naming no page (primary and replica corrupted
        alike, so the repair rewrites the checksum) makes a flag stray;
        the missing owner's state word is never read."""
        monitor, kernel = env
        enclave = build_enclave(kernel)
        state = monitor.state
        base = state.memmap.monitor_image.base
        bogus = state.memmap.secure_pages + 5
        thread = enclave.thread
        for entry in (pagedb_entry_addr(base, thread), itag_replica_addr(base, thread)):
            state.memory.write_word(entry + WORDSIZE, bogus)
        _flag_quarantined(state, thread)
        assert integrity.consistency_problems(state) == [
            "pagedb redundancy disagrees (1 pending fixes)",
            f"quarantined page {thread}: owner {bogus} is not a stopped addrspace",
        ]

    def test_survey_lists_metadata_before_data(self, env):
        """The survey's order is the quarantine order (and so the
        journal's): always-tagged pages first, then DATA pages."""
        monitor, kernel = env
        enclave = build_enclave(kernel)
        state = monitor.state
        code_page = enclave.data_pages[CODE_VA]
        assert code_page < enclave.thread
        for page in (code_page, enclave.thread):
            state.flip_bit(state.memmap.page_base(page), 1)
        types, owners, _fixes, _repaired = integrity.check_pagedb(state)
        owned = {enclave.as_page}
        suspects = integrity._survey(state, types, owners, lambda _metadata: owned)
        assert suspects == [enclave.thread, code_page]

    def test_scrub_leaves_data_of_a_metadata_suspect_to_its_quarantine(self, env):
        monitor, kernel = env
        enclave = build_enclave(kernel)
        state = monitor.state
        code_page = enclave.data_pages[CODE_VA]
        state.flip_bit(state.memmap.page_base(enclave.as_page) + 7 * WORDSIZE, 3)
        state.flip_bit(state.memmap.page_base(code_page), 5)
        _fixed, quarantined = kernel.scrub()
        assert quarantined == 1
        assert integrity.quarantined_pages(state) == [enclave.as_page]

    @pytest.mark.parametrize("encrypted", [False, True], ids=["plain", "encrypted"])
    def test_clean_verification_counts_no_reads(self, encrypted):
        """Engine reads are not CPU reads: a clean precheck, audit walk
        and quarantine listing charge no cycles (the cost model counts
        CPU reads in cycles) and write nothing."""
        memmap = MemoryMap(secure_pages=16)
        memory = EncryptedMemory(memmap) if encrypted else PhysicalMemory(memmap)
        monitor = KomodoMonitor(state=MachineState(memmap=memmap, memory=memory))
        enclave = build_enclave(OSKernel(monitor))
        before = (memory.generation, set(memory._dirty), monitor.state.cycles)
        report = integrity.precheck(monitor, enter_thread=enclave.thread)
        assert (report.repaired, report.quarantined) == (0, [])
        assert integrity.consistency_problems(monitor.state) == []
        assert integrity.quarantined_pages(monitor.state) == []
        assert (memory.generation, memory._dirty, monitor.state.cycles) == before
