"""The bit-flip campaign: every injection contained, engines agree."""

import pytest

from repro.faults.bitflip import (
    TARGET_FAMILIES,
    BitflipCampaign,
    compare_reports,
)
from repro.faults.parallel import differential


class TestCampaign:
    def test_strided_sweep_is_fully_contained(self):
        report = BitflipCampaign(stride=149, engine="fast").run()
        assert report.ok, report.violations[:5]
        assert report.total_trials > 100
        assert [s.name for s in report.steps] == ["built", "finalised", "ran"]
        # All three outcome classes appear in even a strided sweep.
        counts = report.outcome_counts
        assert counts["quarantined"] > 0
        assert counts["repaired"] > 0
        assert sum(counts.values()) == report.total_trials

    def test_pagedb_flips_are_repaired_not_quarantined(self):
        report = BitflipCampaign(
            stride=29, engine="fast", targets=["pagedb"]
        ).run()
        assert report.ok, report.violations[:5]
        counts = report.outcome_counts
        # Triple redundancy means PageDB corruption never costs a page.
        assert counts["quarantined"] == 0
        assert counts["repaired"] == report.total_trials

    def test_data_flips_all_quarantine_or_heal(self):
        report = BitflipCampaign(stride=17, engine="fast", targets=["data"]).run()
        assert report.ok, report.violations[:5]
        assert report.outcome_counts["benign"] == 0

    def test_deterministic_in_seed(self):
        first = BitflipCampaign(stride=211, engine="fast", seed=5).run()
        second = BitflipCampaign(stride=211, engine="fast", seed=5).run()
        assert [s.trial_digests for s in first.steps] == [
            s.trial_digests for s in second.steps
        ]
        assert [s.trial_cycles for s in first.steps] == [
            s.trial_cycles for s in second.steps
        ]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BitflipCampaign(stride=0)
        with pytest.raises(ValueError):
            BitflipCampaign(targets=["pagedb", "nonsense"])
        assert set(TARGET_FAMILIES) == {"pagedb", "itag", "metadata", "data"}


class TestDifferential:
    def test_engines_agree_bit_for_bit(self):
        fast, reference, mismatches = differential(
            [
                BitflipCampaign(engine=engine, stride=257)
                for engine in ("fast", "reference")
            ],
            compare_reports,
        )
        assert mismatches == []
        assert fast.ok and reference.ok
        assert fast.total_trials == reference.total_trials > 0
