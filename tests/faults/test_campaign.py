"""Lifecycle fault campaigns: determinism, recovery, differential mode."""

import pytest

from repro.faults.campaign import LifecycleCampaign, compare_reports
from repro.faults.parallel import differential


class TestBoundedCampaign:
    def test_strided_campaign_is_clean(self):
        """A bounded smoke campaign (every 7th op) over the whole
        lifecycle: every injection recovers, audits clean, and the OS
        retry path tears everything down to free pages."""
        report = LifecycleCampaign(stride=7, secure_pages=16).run()
        assert report.ok, report.violations
        assert report.total_trials > 0
        assert [s.name for s in report.steps][:6] == [
            "init_addrspace",
            "init_l2ptable",
            "map_secure",
            "init_thread",
            "finalise",
            "execute",
        ]
        # Every step has at least one machine-visible operation.
        assert all(step.fault_points > 0 for step in report.steps)

    def test_inject_steps_prefix_match(self):
        report = LifecycleCampaign(
            inject_steps=["stop"], stride=1, secure_pages=16
        ).run()
        assert report.ok, report.violations
        by_name = {step.name: step for step in report.steps}
        assert by_name["stop"].trials == by_name["stop"].fault_points > 0
        assert by_name["map_secure"].trials == 0  # ran, but not injected

    def test_deterministic_in_seed(self):
        first = LifecycleCampaign(
            seed=0x5EED, inject_steps=["finalise"], secure_pages=16
        ).run()
        second = LifecycleCampaign(
            seed=0x5EED, inject_steps=["finalise"], secure_pages=16
        ).run()
        assert [s.post_digest for s in first.steps] == [
            s.post_digest for s in second.steps
        ]
        assert [s.fault_points for s in first.steps] == [
            s.fault_points for s in second.steps
        ]

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError):
            LifecycleCampaign(stride=0)


class TestDifferential:
    def test_engines_agree_on_crash_recovery(self):
        """Injected aborts must not desynchronise the fast engine's
        decode cache / micro-TLB from flat memory: both engines report
        identical op counts, digests, and cycle counters."""
        fast, reference, mismatches = differential(
            [
                LifecycleCampaign(
                    engine=engine, inject_steps=["stop"], stride=2, secure_pages=16
                )
                for engine in ("fast", "reference")
            ],
            compare_reports,
        )
        assert mismatches == []
        assert fast.ok and reference.ok
        assert fast.engine == "fast" and reference.engine == "reference"
