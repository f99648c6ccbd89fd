"""Snapshot checkpoints: machine rewind semantics + campaign parity.

Two layers are pinned here.  ``MachineState.snapshot()/restore()`` must
rewind everything architecturally visible and cold-start the
microarchitectural caches, so a restored machine is indistinguishable
from a fresh deep copy.  ``CampaignSnapshot`` extends that to a
(monitor, kernel) pair; a single restore is checked against a
``copy.deepcopy`` fork as the reference.  Whole-campaign reports are
pinned by digest in tests/faults/test_report_digests.py.
"""

import copy

import pytest

from repro.arm.machine import MachineState
from repro.faults.audit import secure_state_digest
from repro.faults.bitflip import BitflipCampaign
from repro.faults.snapshot import CampaignSnapshot
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.monitor.layout import SMC, SVC
from repro.osmodel.kernel import OSKernel


def machine_observables(state):
    return (
        bytes(state.memory._buf),  # a _store slice would alias, not copy
        state.memory.generation,
        dict(state.regs.gprs),
        state.regs.cpsr.to_word(),
        state.cycles,
        state.world,
        state.ttbr0,
        state.pending_interrupt,
        secure_state_digest(state),
    )


class TestMachineSnapshot:
    def test_restore_rewinds_everything_visible(self):
        state = MachineState.boot(secure_pages=8)
        snap = state.snapshot()
        before = machine_observables(state)

        state.memory.write_word(state.memmap.page_base(2), 0x12345678)
        state.flip_bit(state.memmap.page_base(3) + 8, 17)
        state.regs.write_gpr(3, 0x77)
        state.cycles += 1000
        state.load_ttbr0(state.memmap.page_base(0))
        state.flush_tlb()
        assert machine_observables(state) != before

        state.restore(snap)
        assert machine_observables(state) == before

    def test_restore_is_repeatable(self):
        state = MachineState.boot(secure_pages=8)
        snap = state.snapshot()
        before = machine_observables(state)
        for _ in range(3):
            state.memory.write_word(state.memmap.page_base(2), 0xDEAD)
            state.restore(snap)
            assert machine_observables(state) == before

    def test_restore_preserves_memory_identity(self):
        """The TLB and page-table walker hold references to the memory
        object; restore must rewind it in place, never swap it out."""
        state = MachineState.boot(secure_pages=8)
        memory = state.memory
        snap = state.snapshot()
        state.memory.write_word(state.memmap.page_base(2), 1)
        state.restore(snap)
        assert state.memory is memory
        assert state.tlb._memory is memory

    def test_restore_cold_starts_uarch_caches(self):
        state = MachineState.boot(secure_pages=8)
        snap = state.snapshot()
        state.uarch.icache[0x1000] = object()
        state.uarch.utlb[1] = object()
        state.uarch.bcache[0x2000] = object()
        state.restore(snap)
        assert state.uarch.icache == {}
        assert state.uarch.utlb == {}
        assert state.uarch.bcache == {}

    def test_snapshot_rejects_open_transaction(self):
        state = MachineState.boot(secure_pages=8)
        state.txn = object()
        with pytest.raises(ValueError):
            state.snapshot()

    def test_restore_clears_fault_plan_and_txn(self):
        state = MachineState.boot(secure_pages=8)
        snap = state.snapshot()
        state.fault_plan = object()
        state.txn = object()
        state.restore(snap)
        assert state.fault_plan is None
        assert state.txn is None


def run_workload(monitor, kernel):
    """A deterministic monitor workload: a plain SMC plus one full
    enclave build and run."""
    from repro.arm.assembler import Assembler
    from repro.sdk.builder import CODE_VA as SDK_CODE_VA
    from repro.sdk.builder import EnclaveBuilder

    monitor.smc(SMC.GET_PHYSPAGES)
    exit_asm = Assembler()
    exit_asm.movw("r0", 0x600D)
    exit_asm.svc(SVC.EXIT)
    enclave = (
        EnclaveBuilder(kernel).add_code(exit_asm).add_thread(SDK_CODE_VA).build()
    )
    return enclave.enter()


def build_counter_enclave(kernel):
    """An enclave whose every entry loads, bumps and stores a counter in
    its data page and returns it: turbo compiles it with inline stores."""
    from repro.arm.assembler import Assembler
    from repro.sdk.builder import CODE_VA as SDK_CODE_VA
    from repro.sdk.builder import DATA_VA as SDK_DATA_VA
    from repro.sdk.builder import EnclaveBuilder

    asm = Assembler()
    asm.mov32("r4", SDK_DATA_VA)
    asm.ldr("r0", "r4", 0)
    asm.addi("r0", "r0", 1)
    asm.str_("r0", "r4", 0)
    asm.str_("r0", "r4", 4)
    asm.svc(SVC.EXIT)
    return (
        EnclaveBuilder(kernel)
        .add_code(asm)
        .add_data([0] * 8)
        .add_thread(SDK_CODE_VA)
        .build()
    )


def pair_observables(monitor, kernel):
    return (
        secure_state_digest(monitor.state),
        monitor.state.cycles,
        monitor.rng._counter,
        list(monitor.rng._pool),
        list(kernel._free_pages),
        kernel._insecure_next,
    )


class TestCampaignSnapshot:
    def fresh_pair(self):
        monitor = KomodoMonitor(secure_pages=16)
        return monitor, OSKernel(monitor)

    def test_restore_returns_same_objects(self):
        monitor, kernel = self.fresh_pair()
        checkpoint = CampaignSnapshot(monitor, kernel)
        run_workload(monitor, kernel)
        restored_monitor, restored_kernel = checkpoint.restore()
        assert restored_monitor is monitor
        assert restored_kernel is kernel

    def test_restore_matches_deepcopy_fork(self):
        """The snapshot rewind must be a drop-in for the deep-copy trial
        factory: the same workload from a restored pair and from a deep
        copy lands on identical digests, cycles, and OS state."""
        monitor, kernel = self.fresh_pair()
        run_workload(monitor, kernel)  # a non-trivial prefix

        monitor.state.uarch.reset()
        deep_monitor, deep_kernel = copy.deepcopy((monitor, kernel))
        checkpoint = CampaignSnapshot(monitor, kernel)

        deep_result = run_workload(deep_monitor, deep_kernel)
        deep_after = pair_observables(deep_monitor, deep_kernel)

        for _ in range(2):  # restore is reusable
            live_result = run_workload(monitor, kernel)
            checkpoint.restore()
            assert live_result == deep_result

        run_workload(monitor, kernel)
        assert pair_observables(monitor, kernel) == deep_after

    def test_deepcopy_fork_with_a_warm_compile_memo(self):
        """The same fork on turbo, with the compile memo warm when the
        copy is taken: ``uarch.reset`` keeps the memo, so the copy holds
        functions baked for the donor's memory.  Re-entering the enclave
        on the copy must store into the copy only, and land where the
        live pair and its restores do."""
        monitor = KomodoMonitor(secure_pages=16, cpu_engine="turbo")
        kernel = OSKernel(monitor)
        enclave = build_counter_enclave(kernel)
        assert enclave.enter() == (KomErr.SUCCESS, 1)

        monitor.state.uarch.reset()
        assert monitor.state.uarch.compiled
        donor_bytes = bytes(monitor.state.memory._buf)
        deep_monitor, deep_kernel, deep_enclave = copy.deepcopy(
            (monitor, kernel, enclave)
        )
        checkpoint = CampaignSnapshot(monitor, kernel)

        assert deep_enclave.enter() == (KomErr.SUCCESS, 2)
        assert bytes(monitor.state.memory._buf) == donor_bytes
        deep_after = pair_observables(deep_monitor, deep_kernel)
        for _ in range(2):
            assert enclave.enter() == (KomErr.SUCCESS, 2)
            assert pair_observables(monitor, kernel) == deep_after
            checkpoint.restore()

    def test_restore_rewinds_rng_position(self):
        monitor, kernel = self.fresh_pair()
        checkpoint = CampaignSnapshot(monitor, kernel)
        before = (monitor.rng._counter, list(monitor.rng._pool))
        run_workload(monitor, kernel)
        monitor.rng.read_words(11)  # an enclave draw; crosses a refill
        assert (monitor.rng._counter, monitor.rng._pool) != before
        checkpoint.restore()
        assert (monitor.rng._counter, monitor.rng._pool) == before

    def test_rejects_live_native_threads(self):
        monitor, kernel = self.fresh_pair()
        monitor._native_threads = {7: object()}
        with pytest.raises(ValueError):
            CampaignSnapshot(monitor, kernel)

    def test_rejects_foreign_kernel(self):
        monitor, _ = self.fresh_pair()
        _, other_kernel = self.fresh_pair()
        with pytest.raises(ValueError):
            CampaignSnapshot(monitor, other_kernel)

    def test_monitor_only_snapshot(self):
        monitor = KomodoMonitor(secure_pages=16)
        checkpoint = CampaignSnapshot(monitor)
        digest = secure_state_digest(monitor.state)
        monitor.smc(SMC.GET_PHYSPAGES)
        restored, kernel = checkpoint.restore()
        assert restored is monitor and kernel is None
        assert secure_state_digest(monitor.state) == digest


class TestBackoffReset:
    """A rewound trial can never inherit a stale backoff session (and
    with it a stale deadline) from a previous trial whose crash unwound
    mid-``retry_with_backoff``: the session lives in the call's locals."""

    def crash_mid_retry(self, monitor, kernel):
        """Drive retry_with_backoff into its wait loop, then blow it up
        the way an injected monitor crash does: an exception escaping
        ``issue()`` before the loop's normal exit."""
        from repro.monitor.errors import KomErr

        boom = RuntimeError("injected crash mid-retry")
        outcomes = iter([(KomErr.PAGE_QUARANTINED, 0)])

        def issue():
            try:
                return next(outcomes)
            except StopIteration:
                raise boom from None

        with pytest.raises(RuntimeError):
            kernel.retry_with_backoff(
                issue, attempts=4, seed=5, deadline=monitor.state.cycles + 10_000
            )

    def test_crash_mid_retry_leaves_the_kernel_unchanged(self):
        monitor = KomodoMonitor(secure_pages=16)
        kernel = OSKernel(monitor)
        before = dict(vars(kernel))
        cycles = monitor.state.cycles
        self.crash_mid_retry(monitor, kernel)
        assert monitor.state.cycles > cycles  # the loop did back off once
        assert vars(kernel) == before

    def test_rewound_trial_backoff_is_bit_identical_to_fresh(self):
        """A retry loop in the rewound trial charges exactly what it
        charges on a pristine kernel."""
        from repro.monitor.errors import KomErr

        def charge_profile(monitor, kernel):
            before = monitor.state.cycles
            kernel.retry_with_backoff(
                lambda: (KomErr.PAGE_QUARANTINED, 0), attempts=4, seed=7
            )
            return monitor.state.cycles - before

        pristine_monitor = KomodoMonitor(secure_pages=16)
        pristine = charge_profile(pristine_monitor, OSKernel(pristine_monitor))

        monitor = KomodoMonitor(secure_pages=16)
        kernel = OSKernel(monitor)
        checkpoint = CampaignSnapshot(monitor, kernel)
        self.crash_mid_retry(monitor, kernel)
        checkpoint.restore()
        assert charge_profile(monitor, kernel) == pristine


class TestCampaignReportParity:
    """Whole-campaign reports are pinned by digest in
    tests/faults/test_report_digests.py; engines must agree here."""

    def test_bitflip_turbo_engine_report_identical_to_fast(self):
        kwargs = dict(stride=311, targets=["pagedb"], secure_pages=16)
        fast = BitflipCampaign(engine="fast", **kwargs).run()
        turbo = BitflipCampaign(engine="turbo", **kwargs).run()
        assert fast.ok and turbo.ok
        assert [s.trial_digests for s in fast.steps] == [
            s.trial_digests for s in turbo.steps
        ]
        assert [s.trial_cycles for s in fast.steps] == [
            s.trial_cycles for s in turbo.steps
        ]
