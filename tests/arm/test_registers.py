"""Register file: banking, PSR encoding, scrubbing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arm.modes import Mode, World, mode_from_encoding
from repro.arm.registers import PSR, RegisterFile

words = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestModes:
    def test_privilege(self):
        assert not Mode.USR.privileged
        for mode in (Mode.SVC, Mode.MON, Mode.IRQ, Mode.FIQ, Mode.ABT, Mode.UND):
            assert mode.privileged

    def test_encoding_roundtrip(self):
        for mode in Mode:
            assert mode_from_encoding(mode.encoding) is mode

    def test_bad_encoding_rejected(self):
        with pytest.raises(ValueError):
            mode_from_encoding(0b00000)

    def test_worlds(self):
        assert World.SECURE is not World.NORMAL


class TestPSR:
    def test_word_roundtrip(self):
        psr = PSR(n=True, z=False, c=True, v=False, irq_masked=True,
                  fiq_masked=False, mode=Mode.IRQ)
        decoded = PSR.from_word(psr.to_word())
        assert decoded == psr

    def test_mode_field(self):
        psr = PSR(mode=Mode.MON)
        assert psr.to_word() & 0b11111 == Mode.MON.encoding

    @given(st.booleans(), st.booleans(), st.booleans(), st.booleans())
    def test_flags_roundtrip(self, n, z, c, v):
        psr = PSR(n=n, z=z, c=c, v=v)
        decoded = PSR.from_word(psr.to_word())
        assert (decoded.n, decoded.z, decoded.c, decoded.v) == (n, z, c, v)

    def test_copy_is_independent(self):
        psr = PSR(n=True)
        dup = psr.copy()
        dup.n = False
        assert psr.n


class TestBanking:
    def test_sp_banked_per_mode(self):
        regs = RegisterFile()
        regs.write_sp(0x1000, Mode.USR)
        regs.write_sp(0x2000, Mode.MON)
        regs.write_sp(0x3000, Mode.IRQ)
        assert regs.read_sp(Mode.USR) == 0x1000
        assert regs.read_sp(Mode.MON) == 0x2000
        assert regs.read_sp(Mode.IRQ) == 0x3000

    def test_sys_shares_usr_bank(self):
        regs = RegisterFile()
        regs.write_sp(0xAAAA, Mode.SYS)
        assert regs.read_sp(Mode.USR) == 0xAAAA

    def test_current_mode_selects_bank(self):
        regs = RegisterFile()
        regs.cpsr.mode = Mode.SVC
        regs.write_sp(0x42)
        assert regs.read_sp(Mode.SVC) == 0x42
        assert regs.read_sp(Mode.USR) == 0

    def test_lr_banked(self):
        regs = RegisterFile()
        regs.write_lr(1, Mode.SVC)
        regs.write_lr(2, Mode.IRQ)
        assert regs.read_lr(Mode.SVC) == 1
        assert regs.read_lr(Mode.IRQ) == 2

    def test_spsr_banked_and_usr_has_none(self):
        regs = RegisterFile()
        regs.write_spsr(PSR(n=True), Mode.IRQ)
        assert regs.read_spsr(Mode.IRQ).n
        assert not regs.read_spsr(Mode.SVC).n
        with pytest.raises(KeyError):
            regs.read_spsr(Mode.USR)

    def test_gprs_not_banked(self):
        regs = RegisterFile()
        regs.cpsr.mode = Mode.USR
        regs.write_gpr(5, 99)
        regs.cpsr.mode = Mode.MON
        assert regs.read_gpr(5) == 99


class TestOperandAccess:
    def test_write_truncates(self):
        regs = RegisterFile()
        regs.write_gpr(0, 0x1_2345_6789)
        assert regs.read_gpr(0) == 0x2345_6789


class TestSnapshots:
    def test_copy_is_deep(self):
        regs = RegisterFile()
        regs.write_gpr(0, 1)
        regs.write_sp(2, Mode.MON)
        dup = regs.copy()
        dup.write_gpr(0, 99)
        dup.write_sp(98, Mode.MON)
        assert regs.read_gpr(0) == 1
        assert regs.read_sp(Mode.MON) == 2

    def test_scrub_keeps_listed(self):
        regs = RegisterFile()
        for i in range(13):
            regs.write_gpr(i, 7)
        regs.scrub_gprs(keep=("r0", "r1"))
        assert regs.read_gpr(0) == 7
        assert regs.read_gpr(1) == 7
        assert all(regs.read_gpr(i) == 0 for i in range(2, 13))
