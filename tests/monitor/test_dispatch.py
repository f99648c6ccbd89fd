"""Top-level SMC dispatch: the smchandler frame conditions (section 5.2).

The specification's top-level predicate requires, across *every* SMC:
non-volatile registers preserved, other non-return registers zeroed,
insecure memory invariant (for non-executing calls), and return in the
correct mode.  These tests pin each condition against the implementation
directly (the refinement checker re-checks them on every call too).
"""

import pytest

from repro.arm.modes import Mode, World
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import KOM_MAGIC, SMC


@pytest.fixture
def mon():
    return KomodoMonitor(secure_pages=16)


class TestResultMarshalling:
    def test_results_in_r0_r1(self, mon):
        err, value = mon.smc(SMC.QUERY)
        assert mon.state.regs.read_gpr(0) == int(err)
        assert mon.state.regs.read_gpr(1) == value == KOM_MAGIC

    def test_error_code_in_r0(self, mon):
        mon.smc(SMC.FINALISE, 5)  # valid pageno, but free, not an addrspace
        assert mon.state.regs.read_gpr(0) == int(KomErr.INVALID_ADDRSPACE)


class TestRegisterDiscipline:
    def test_non_return_registers_scrubbed(self, mon):
        mon.state.regs.write_gpr(2, 0x1111)
        mon.state.regs.write_gpr(3, 0x2222)
        mon.state.regs.write_gpr(12, 0x3333)
        mon.smc(SMC.GET_PHYSPAGES)
        for index in (2, 3, 12):
            assert mon.state.regs.read_gpr(index) == 0

    def test_non_volatiles_preserved(self, mon):
        for index in range(4, 12):
            mon.state.regs.write_gpr(index, 0x100 + index)
        mon.smc(SMC.QUERY)
        for index in range(5, 12):  # r4 carries the 4th argument slot
            assert mon.state.regs.read_gpr(index) == 0x100 + index

    def test_smc_counts(self, mon):
        mon.smc(SMC.QUERY)
        mon.smc(SMC.GET_PHYSPAGES)
        assert mon.smc_count == 2


class TestModeAndWorld:
    def test_returns_to_normal_world_same_mode(self, mon):
        before_mode = mon.state.regs.cpsr.mode
        mon.smc(SMC.GET_PHYSPAGES)
        assert mon.state.world is World.NORMAL
        assert mon.state.regs.cpsr.mode is before_mode

    def test_smc_requires_normal_world(self, mon):
        mon.state.world = World.SECURE
        with pytest.raises(RuntimeError):
            mon.smc(SMC.QUERY)

    def test_monitor_mode_during_dispatch_not_observable(self, mon):
        """After return, no trace of monitor mode in the PSR."""
        mon.smc(SMC.QUERY)
        assert mon.state.regs.cpsr.mode is not Mode.MON


class TestInsecureMemoryInvariance:
    @pytest.mark.parametrize(
        "callno,args",
        [
            (SMC.QUERY, ()),
            (SMC.GET_PHYSPAGES, ()),
            (SMC.INIT_ADDRSPACE, (0, 1)),
            (SMC.FINALISE, (0,)),
            (SMC.STOP, (0,)),
            (SMC.REMOVE, (5,)),
        ],
    )
    def test_non_executing_calls_leave_insecure_memory(self, mon, callno, args):
        base = mon.state.memmap.insecure.base
        mon.state.memory.write_word(base, 0xAA55)
        insecure = mon.state.memmap.insecure
        before = mon.state.memory.region_bytes(insecure.base, insecure.size)
        mon.smc(callno, *args)
        assert mon.state.memory.region_bytes(insecure.base, insecure.size) == before


class TestInterruptScheduling:
    def test_deadline_is_one_shot(self, mon):
        mon.schedule_interrupt(5)
        assert mon.consume_interrupt_deadline() == 5
        assert mon.consume_interrupt_deadline() is None

    def test_negative_deadline_rejected(self, mon):
        with pytest.raises(ValueError):
            mon.schedule_interrupt(-1)


class TestCycleAccounting:
    def test_every_smc_costs_cycles(self, mon):
        for callno in (SMC.QUERY, SMC.GET_PHYSPAGES, SMC.REMOVE):
            before = mon.state.cycles
            mon.smc(callno, 0)
            assert mon.state.cycles > before

    def test_null_smc_anchor(self, mon):
        """The Table 3 calibration anchor: a null SMC is ~123 cycles."""
        before = mon.state.cycles
        mon.smc(SMC.GET_PHYSPAGES)
        assert abs((mon.state.cycles - before) - 123) <= 25
