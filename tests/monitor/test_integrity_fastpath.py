"""``check_pagedb``'s all-copies-agree fast path decides exactly what the
per-entry repair loop decides, for every single-bit flip in the PageDB
redundancy, and its checksum memo stays bounded."""

import pytest

from repro.arm.assembler import Assembler
from repro.arm.bits import WORDSIZE
from repro.faults.bitflip import BitflipCampaign
from repro.monitor import integrity
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import (
    PAGEDB_ENTRY_WORDS,
    SVC,
    itag_entry_sum_addr,
    itag_replica_addr,
    pagedb_entry_addr,
)
from repro.osmodel.kernel import OSKernel
from repro.sdk.builder import CODE_VA, EnclaveBuilder


@pytest.fixture(scope="module")
def monitor():
    monitor = KomodoMonitor(secure_pages=16)
    asm = Assembler()
    asm.movw("r0", 0x42)
    asm.svc(SVC.EXIT)
    enclave = EnclaveBuilder(OSKernel(monitor)).add_code(asm).add_thread(CODE_VA).build()
    assert enclave.call()[1] == 0x42
    return monitor


def redundancy_words(state):
    """Every word address of the PageDB primary, replica and entry sums."""
    base = state.memmap.monitor_image.base
    npages = state.memmap.secure_pages
    entry_words = npages * PAGEDB_ENTRY_WORDS
    return (
        [pagedb_entry_addr(base, 0) + i * WORDSIZE for i in range(entry_words)]
        + [itag_replica_addr(base, 0) + i * WORDSIZE for i in range(entry_words)]
        + [itag_entry_sum_addr(base, npages, i) for i in range(npages)]
    )


def full_loop(state):
    """The per-entry arbitration, run on the same peeked words."""
    base = state.memmap.monitor_image.base
    npages = state.memmap.secure_pages
    memory = state.memory
    return integrity._repair_pagedb(
        state,
        memory.read_words(pagedb_entry_addr(base, 0), npages * 2),
        memory.read_words(itag_replica_addr(base, 0), npages * 2),
        memory.read_words(itag_entry_sum_addr(base, npages, 0), npages),
    )


def test_clean_state_needs_no_repair(monitor):
    types, owners, fixes, repaired = integrity.check_pagedb(monitor.state)
    assert (fixes, repaired) == ([], 0)
    assert (types, owners, fixes, repaired) == full_loop(monitor.state)


def test_every_single_flip_matches_the_full_loop(monitor):
    state = monitor.state
    memory = state.memory
    addresses = redundancy_words(state)
    for index, address in enumerate(addresses):
        original = memory.read_word(address)
        memory.write_word(address, original ^ (1 << (index % 32)))
        try:
            fast = integrity.check_pagedb(state)
            assert fast == full_loop(state), hex(address)
            assert fast[3] == 1, hex(address)
        finally:
            memory.write_word(address, original)
    assert integrity.check_pagedb(state)[2:] == ([], 0)


def test_entry_checksum_memo_is_bounded():
    integrity.entry_checksum.cache_clear()
    report = BitflipCampaign(stride=29, engine="fast", targets=["pagedb"]).run()
    assert report.ok, report.violations[:5]
    info = integrity.entry_checksum.cache_info()
    assert info.maxsize == integrity.ENTRY_MEMO_SIZE
    assert 0 < info.currsize <= integrity.ENTRY_MEMO_SIZE
    for owner in range(integrity.ENTRY_MEMO_SIZE + 100):
        integrity.entry_checksum(0xFFFF, owner)
    assert integrity.entry_checksum.cache_info().currsize == integrity.ENTRY_MEMO_SIZE
