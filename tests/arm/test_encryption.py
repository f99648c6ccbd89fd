"""Memory encryption engine: the physical-attack threat variant."""

import pytest
from hypothesis import given, settings

from repro.arm.encryption import EncryptedMemory, IntegrityViolation
from repro.arm.memory import WORDS_PER_PAGE, MemoryMap, PhysicalMemory
from repro.crypto.rng import HardwareRNG
from repro.monitor.komodo import KomodoMonitor
from tests.arm.test_memory import (
    assert_region_bytes_matches_read_words,
    assert_region_bytes_touches_no_counters,
    spans_and_stores,
)

_MAP = MemoryMap(secure_pages=8)


@pytest.fixture
def env():
    memmap = MemoryMap(secure_pages=8)
    return memmap, EncryptedMemory(memmap, device_key=0xABCD)


class TestCpuView:
    def test_transparent_to_software(self, env):
        memmap, memory = env
        address = memmap.page_base(2)
        memory.write_word(address, 0xCAFEBABE)
        assert memory.read_word(address) == 0xCAFEBABE

    def test_never_written_reads_zero(self, env):
        memmap, memory = env
        assert memory.read_word(memmap.page_base(3)) == 0

    def test_insecure_region_not_encrypted(self, env):
        """Only the protected regions pay for the engine, as on SGX."""
        memmap, memory = env
        memory.write_word(memmap.insecure.base, 0x1234)
        assert memory.physical_read(memmap.insecure.base) == 0x1234

    def test_page_operations_work(self, env):
        memmap, memory = env
        base = memmap.page_base(1)
        memory.write_word(base + 8, 7)
        memory.zero_page(base)
        assert all(w == 0 for w in memory.read_words(base, WORDS_PER_PAGE))

    def test_bulk_ops_go_through_the_engine(self, env):
        """Every bulk helper stores ciphertext and reads verified
        plaintext, word by word: none is a raw slice of the store."""
        memmap, memory = env
        base, other = memmap.page_base(1), memmap.page_base(2)
        memory.write_words(base, [7, 8, 9])
        assert memory.read_words(base, 3) == [7, 8, 9]
        assert [memory.physical_read(base + 4 * i) for i in range(3)] != [7, 8, 9]
        memory.copy_page(base, other)
        assert memory.read_words(other, 3) == [7, 8, 9]
        assert memory.physical_read(other) != memory.physical_read(base)
        memory.physical_write(other + 4, memory.physical_read(other + 4) ^ 1)
        with pytest.raises(IntegrityViolation):
            memory.read_words(other, 3)
        memory.zero_page(other)
        assert memory.read_words(other, WORDS_PER_PAGE) == [0] * WORDS_PER_PAGE


class TestPhysicalAttacker:
    def test_cold_boot_sees_only_ciphertext(self, env):
        memmap, memory = env
        address = memmap.page_base(2)
        secret = 0xDEADBEEF
        memory.write_word(address, secret)
        assert memory.physical_read(address) != secret

    def test_identical_plaintexts_differ_across_addresses(self, env):
        """Per-address keystream: no ECB-style pattern leakage."""
        memmap, memory = env
        a = memmap.page_base(2)
        b = memmap.page_base(2) + 4
        memory.write_word(a, 0x11111111)
        memory.write_word(b, 0x11111111)
        assert memory.physical_read(a) != memory.physical_read(b)

    def test_tamper_detected(self, env):
        memmap, memory = env
        address = memmap.page_base(2)
        memory.write_word(address, 5)
        memory.physical_write(address, memory.physical_read(address) ^ 1)
        with pytest.raises(IntegrityViolation):
            memory.read_word(address)

    def test_forged_plaintext_detected(self, env):
        """Writing chosen raw bits (hoping they decrypt usefully) fails
        the tag check."""
        memmap, memory = env
        address = memmap.page_base(2)
        memory.physical_write(address, 0x41414141)
        with pytest.raises(IntegrityViolation):
            memory.read_word(address)

    def test_splicing_detected(self, env):
        """Relocating ciphertext+tag to another address fails: tags are
        address-bound."""
        memmap, memory = env
        src = memmap.page_base(2)
        dst = memmap.page_base(2) + 4
        memory.write_word(src, 99)
        memory.physical_move(src, dst)
        with pytest.raises(IntegrityViolation):
            memory.read_word(dst)

    def test_iommu_only_variant_exposes_plaintext(self):
        """The contrast the paper draws: without encryption (physical
        attacks out of scope), a RAM dump reads enclave secrets."""
        memmap = MemoryMap(secure_pages=8)
        plain = PhysicalMemory(memmap)
        address = memmap.page_base(2)
        plain.write_word(address, 0x5EC12E7)
        # The "physical" view of plain memory is the memory itself.
        assert plain.read_word(address) == 0x5EC12E7


class TestRegionBytes:
    @settings(max_examples=50)
    @given(spans_and_stores(_MAP))
    def test_equals_packed_plaintext_read_words(self, case):
        memory = EncryptedMemory(_MAP, device_key=0xABCD)
        assert_region_bytes_matches_read_words(memory, *case)

    def test_touches_no_counters_or_dirty_tracking(self, env):
        memmap, memory = env
        assert_region_bytes_touches_no_counters(memory, memmap)

    def test_tampered_secure_word_raises(self, env):
        memmap, memory = env
        address = memmap.page_base(2) + 12
        memory.write_word(address, 5)
        memory.physical_write(address, memory.physical_read(address) ^ 1)
        with pytest.raises(IntegrityViolation):
            memory.region_bytes(memmap.secure.base, memmap.secure.size)


class TestMonitorOnEncryptedMemory:
    def test_full_enclave_lifecycle(self):
        """The monitor is oblivious to the engine: an entire enclave
        lifecycle runs unchanged on encrypted memory, while the physical
        view of the code page shows no program words."""
        from repro.arm.assembler import Assembler
        from repro.arm.machine import MachineState
        from repro.monitor.errors import KomErr
        from repro.monitor.layout import SVC
        from repro.osmodel.kernel import OSKernel
        from repro.sdk.builder import CODE_VA, EnclaveBuilder

        memmap = MemoryMap(secure_pages=32)
        state = MachineState(memmap=memmap, memory=EncryptedMemory(memmap))
        monitor = KomodoMonitor(state=state, rng=HardwareRNG(seed=3))
        kernel = OSKernel(monitor)
        asm = Assembler()
        asm.add("r0", "r0", "r1")
        asm.svc(SVC.EXIT)
        enclave = EnclaveBuilder(kernel).add_code(asm).add_thread(CODE_VA).build()
        assert enclave.call(40, 2) == (KomErr.SUCCESS, 42)
        code_words = asm.assemble()
        code_base = monitor.pagedb.page_base(enclave.data_pages[CODE_VA])
        physical = [
            state.memory.physical_read(code_base + i * 4)
            for i in range(len(code_words))
        ]
        assert physical != code_words  # cold boot reads ciphertext
