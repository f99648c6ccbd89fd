"""Fault plans: deterministic counting, aborting, and detachment."""

import pytest

from repro.faults.audit import audit_monitor, secure_state_digest
from repro.faults.injector import FaultInjected, FaultPlan, inject
from repro.monitor.errors import KomErr
from repro.monitor.komodo import KomodoMonitor
from repro.osmodel.kernel import OSKernel
from repro.monitor.layout import SMC


@pytest.fixture
def monitor():
    return KomodoMonitor(secure_pages=8)


class TestFaultPlan:
    def test_discovery_counts_operations(self, monitor):
        plan = FaultPlan()
        with inject(monitor.state, plan):
            err, _ = monitor.smc(SMC.INIT_ADDRSPACE, 0, 1)
        assert err is KomErr.SUCCESS
        assert plan.count > 0
        assert len(plan.trace) == plan.count
        assert plan.trace[-1][0] == "txn-boundary"
        assert not plan.fired

    def test_abort_fires_at_exact_index(self, monitor):
        with inject(monitor.state, FaultPlan(abort_at=3)) as plan:
            with pytest.raises(FaultInjected) as excinfo:
                monitor.smc(SMC.INIT_ADDRSPACE, 0, 1)
        assert plan.fired
        assert plan.count == 3
        assert excinfo.value.op_index == 3

    def test_abort_fires_only_once(self, monitor):
        """After firing, the plan keeps counting without re-raising, so
        recovery and audits can run under the same attached state."""
        plan = FaultPlan(abort_at=1)
        with inject(monitor.state, plan):
            with pytest.raises(FaultInjected):
                monitor.smc(SMC.INIT_ADDRSPACE, 0, 1)
            monitor.recover()
            err, _ = monitor.smc(SMC.INIT_ADDRSPACE, 0, 1)
        assert err is KomErr.SUCCESS
        assert plan.count > 1

    def test_kinds_filter(self, monitor):
        plan = FaultPlan(kinds={"txn-boundary"})
        with inject(monitor.state, plan):
            monitor.smc(SMC.INIT_ADDRSPACE, 0, 1)
        assert plan.count == 1  # only the quiescent marker

    def test_boundary_hook_sees_quiescent_states(self, monitor):
        digests = []
        plan = FaultPlan(
            on_boundary=lambda state: digests.append(secure_state_digest(state))
        )
        with inject(monitor.state, plan):
            monitor.smc(SMC.INIT_ADDRSPACE, 0, 1)
        assert digests == [secure_state_digest(monitor.state)]

    def test_abort_at_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultPlan(abort_at=0)


class TestInject:
    def test_detaches_on_exit(self, monitor):
        with inject(monitor.state, FaultPlan()):
            assert monitor.state.fault_plan is not None
        assert monitor.state.fault_plan is None

    def test_detaches_when_fault_propagates(self, monitor):
        with pytest.raises(FaultInjected):
            with inject(monitor.state, FaultPlan(abort_at=1)):
                monitor.smc(SMC.INIT_ADDRSPACE, 0, 1)
        assert monitor.state.fault_plan is None

    def test_double_attach_rejected(self, monitor):
        with inject(monitor.state, FaultPlan()):
            with pytest.raises(RuntimeError):
                with inject(monitor.state, FaultPlan()):
                    pass


class TestCrashRecoverScenario:
    def test_every_abort_point_of_init_addrspace_recovers(self, monitor):
        """Direct (non-campaign) crash loop: whatever the abort index,
        recovery lands in the pre-call state or the completed state."""
        import copy

        pre = secure_state_digest(monitor.state)
        done = copy.deepcopy(monitor)
        err, _ = done.smc(SMC.INIT_ADDRSPACE, 0, 1)
        assert err is KomErr.SUCCESS
        post = secure_state_digest(done.state)
        count_plan = FaultPlan()
        probe = copy.deepcopy(monitor)
        with inject(probe.state, count_plan):
            probe.smc(SMC.INIT_ADDRSPACE, 0, 1)
        for abort_at in range(1, count_plan.count + 1):
            trial = copy.deepcopy(monitor)
            with inject(trial.state, FaultPlan(abort_at=abort_at)):
                with pytest.raises(FaultInjected):
                    trial.smc(SMC.INIT_ADDRSPACE, 0, 1)
            report = trial.recover()
            assert report.journal in ("clean", "discarded", "replayed")
            assert audit_monitor(trial) == []
            assert secure_state_digest(trial.state) in (pre, post)

    def test_every_abort_point_of_enter_recovers_on_turbo(self):
        """The same crash loop over deep copies of a turbo monitor whose
        compile memo is warm (each copy's memo holds functions baked for
        the donor's memory): every trial recovers to an audited state
        and no trial's enclave stores reach the donor."""
        import copy

        from tests.faults.test_snapshot import build_counter_enclave

        monitor = KomodoMonitor(secure_pages=16, cpu_engine="turbo")
        enclave = build_counter_enclave(OSKernel(monitor))
        assert enclave.enter() == (KomErr.SUCCESS, 1)
        assert monitor.state.uarch.compiled
        donor_bytes = bytes(monitor.state.memory._buf)
        probe, probe_enclave = copy.deepcopy((monitor, enclave))
        count_plan = FaultPlan()
        with inject(probe.state, count_plan):
            assert probe_enclave.enter() == (KomErr.SUCCESS, 2)
        for abort_at in range(1, count_plan.count + 1):
            trial, trial_enclave = copy.deepcopy((monitor, enclave))
            with inject(trial.state, FaultPlan(abort_at=abort_at)):
                with pytest.raises(FaultInjected):
                    trial_enclave.enter()
            trial.recover()
            assert audit_monitor(trial) == []
        assert bytes(monitor.state.memory._buf) == donor_bytes
