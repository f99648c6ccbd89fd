"""Pinned campaign report digests.

Every campaign is a deterministic function of its parameters, so its
``report_digest`` is a fixed value.  These pins are the byte-identity
oracle for any change to how campaigns fork, shard, or record trials:
a refactor is behaviour-preserving only if none of them moves.
"""

from repro.faults.bitflip import BitflipCampaign
from repro.faults.campaign import LifecycleCampaign, compare_reports
from repro.faults.parallel import differential, report_digest
from repro.pipeline.campaign import run_campaign

LIFECYCLE = "0d280fd0a789acc820614eb00677aa1c3535e1ac8e2b2bc2e8a6e8cdf7fe3e78"
DIFFERENTIAL = {
    "fast": "a9990314b1dc1055d353cf9143dce00ebc635c28e93a2b4d26fc58156b22e573",
    "reference": "16e8115e6211d9e11049e227c3b33afbc5d812677f2fdcbf0a4d6c0ad0af8f8c",
    "turbo": "5b8b94700027fdf47849f89925698025af0462981417e9c1fbe684739c8d8d4d",
}
BITFLIP = "aeec2e374086a2dbbe3e4e11803081a6afa8cab5b25e6bede0d5db4cc04090d4"
BITFLIP_CONTENT = "40e5be899e1d439ba47293b69a1de23af60a8f43c0c5ef24633fc628acf7adeb"
PIPELINE = "b4357cb11e84c314794589d5b3c3f6d632421031446d6137a4c4e71725c7a5a4"


def test_lifecycle_report_digest_is_pinned():
    report = LifecycleCampaign(seed=0x5EED, stride=13).run()
    assert report.ok, report.violations[:5]
    assert report_digest(report) == LIFECYCLE


def test_lifecycle_differential_digests_are_pinned():
    engines = tuple(DIFFERENTIAL)
    *reports, mismatches = differential(
        [LifecycleCampaign(engine=e, seed=0x5EED, stride=13) for e in engines],
        compare_reports,
    )
    assert mismatches == []
    assert {
        engine: report_digest(report) for engine, report in zip(engines, reports)
    } == DIFFERENTIAL


def test_bitflip_report_digest_is_pinned():
    report = BitflipCampaign(stride=173, targets=["pagedb", "itag"]).run()
    assert report.ok, report.violations[:5]
    assert report.total_trials > 0
    assert report_digest(report) == BITFLIP


def test_content_bitflip_report_digest_is_pinned():
    """Flips into metadata and DATA pages: every trial takes the
    tag-mismatch quarantine path, whose order sets the journal's ops."""
    report = BitflipCampaign(stride=173, targets=["metadata", "data"]).run()
    assert report.ok, report.violations[:5]
    assert report.total_trials == 84
    assert report.outcome_counts["quarantined"] == 84
    assert report_digest(report) == BITFLIP_CONTENT


def test_pipeline_report_digest_is_pinned():
    report = run_campaign("counter-notary", engine="turbo", stride=19)
    assert report.ok, report.violations[:5]
    assert report_digest(report) == PIPELINE
