"""The pipeline chaos campaign: strided kill sweeps, typed exhaustion,
engine invariance, and digest determinism."""

import pytest

from repro.faults.injector import FaultPlan
from repro.pipeline.campaign import (
    PipelineCampaign,
    RepeatingFaultPlan,
    outcome_digest,
    tri_engine_digests,
)
from repro.pipeline.errors import StageRetryExhausted


class TestRepeatingFaultPlan:
    def test_period_validated(self):
        with pytest.raises(ValueError):
            RepeatingFaultPlan(abort_at=5, period=0)

    def test_max_fires_bounds_the_rearming(self):
        plan = RepeatingFaultPlan(abort_at=1, period=1, max_fires=3)
        assert plan.fires == 0 and plan.max_fires == 3


class TestSweep:
    def test_strided_sweep_passes_and_counts(self):
        campaign = PipelineCampaign("counter-notary", stride=61)
        report = campaign.run()
        assert report.ok, report.violations
        assert report.pipeline == "counter-notary"
        assert report.ops > 0
        # Golden trial + one trial per sampled kill point, the last op
        # always included.
        assert len(report.trials) == report.kill_points + 1
        assert report.trials[0].kill_point == 0
        assert report.trials[-1].kill_point == report.ops
        assert report.bit_exact + report.retryable == len(report.trials)
        assert report.golden_digest

    def test_sweep_records_the_crashed_operation(self):
        campaign = PipelineCampaign("counter-notary", stride=997)
        report = campaign.run()
        fired = [t for t in report.trials if t.kill_point > 0]
        assert fired
        assert all(t.op is not None for t in fired)

    def test_stride_validated(self):
        with pytest.raises(ValueError):
            PipelineCampaign("counter-notary", stride=0)


class TestRecoveryQuiescence:
    def test_kill_points_around_the_last_ack_reconverge(self):
        # Kill points 357-361 of attest-sign-seal crash the sign stage's
        # last poll before it handles the seal stage's ack, while the
        # reply is already on the egress.  The saga must keep the stages
        # polling until the links are idle, so that ack still moves the
        # sign stage from forwarding to done instead of leaving its
        # committed slot stale.
        campaign = PipelineCampaign("attest-sign-seal")
        discovery = FaultPlan()
        golden = campaign._run_once(discovery)
        assert discovery.count == 380
        golden_digest = outcome_digest(campaign.pipeline, golden)
        for kill_point in range(350, 366):
            plan = FaultPlan(abort_at=kill_point)
            outcome = campaign._run_once(plan)
            assert plan.fired, kill_point
            digest = outcome_digest(campaign.pipeline, outcome)
            assert digest == golden_digest, kill_point
            assert campaign.pipeline.check_invariants() == [], kill_point


class TestExhaustion:
    def test_repeated_crashes_surface_typed_then_recover(self):
        # A watchdog that keeps firing must end in StageRetryExhausted —
        # a typed retryable verdict, not a hang — and the next restored
        # trial must still reproduce the golden digest exactly.
        campaign = PipelineCampaign("counter-notary")
        golden = campaign._run_once(FaultPlan())
        golden_digest = outcome_digest(campaign.pipeline, golden)
        plan = RepeatingFaultPlan(abort_at=5, period=5, max_fires=200)
        with pytest.raises(StageRetryExhausted):
            campaign._run_once(plan)
        assert plan.fires > 1  # the recovery itself kept crashing
        retried = campaign._run_once(None)
        assert outcome_digest(campaign.pipeline, retried) == golden_digest


class TestDeterminism:
    def test_same_seed_same_golden_digest(self):
        digests = set()
        for _ in range(2):
            campaign = PipelineCampaign("counter-notary", seed=0x51BE)
            outcome = campaign._run_once(FaultPlan())
            digests.add(outcome_digest(campaign.pipeline, outcome))
        assert len(digests) == 1

    def test_tri_engine_golden_agreement(self):
        digests = tri_engine_digests("counter-notary")
        assert set(digests) == {"reference", "fast", "turbo"}
        assert len(set(digests.values())) == 1
