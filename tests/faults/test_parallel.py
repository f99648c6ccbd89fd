"""Sharded campaign execution: fork scaffolding + byte-identical merges.

The contract under test: a campaign sharded across ``--jobs N`` workers
and merged back must be *indistinguishable* from the serial run — equal
as a dataclass tree and equal under :func:`report_digest`, the oracle
the CLIs' ``--verify-serial`` flag and CI pin this claim with.  The
merge must also refuse, loudly, to combine shards that disagree on any
state every shard is required to reproduce (discovery, golden runs,
clean-run audits).
"""

import dataclasses
import os

import pytest

from repro.faults.bitflip import BitflipCampaign
from repro.faults.campaign import LifecycleCampaign, compare_reports
from repro.faults.parallel import (
    MergeError,
    ShardError,
    merge_reports,
    report_digest,
    run_sharded,
    run_shards,
    check_witnesses_sharded,
    differential,
)
from repro.pipeline.campaign import PipelineCampaign, run_campaign


class TestRunShards:
    def test_single_job_runs_inline(self):
        calls = []

        def fn(index, count):
            calls.append((index, count))
            return index * 10

        assert run_shards(fn, 1) == [0]
        assert calls == [(0, 1)]

    def test_results_come_back_in_shard_order(self):
        def fn(index, count):
            return (index, count)

        assert run_shards(fn, 3) == [(0, 3), (1, 3), (2, 3)]

    def test_worker_exception_raises_shard_error(self):
        def fn(index, count):
            if index == 1:
                raise ValueError("boom in shard one")
            return index

        with pytest.raises(ShardError, match="shard 1/2.*boom in shard one"):
            run_shards(fn, 2)

    def test_worker_death_raises_shard_error(self):
        def fn(index, count):
            if index == 1:
                os._exit(3)
            return index

        with pytest.raises(ShardError, match="shard 1/2.*died without reporting"):
            run_shards(fn, 2)

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            run_shards(lambda i, c: i, 0)


class TestReportDigest:
    def test_digest_is_content_addressed(self):
        @dataclasses.dataclass
        class Row:
            name: str
            values: list

        assert report_digest(Row("a", [1, 2])) == report_digest(Row("a", [1, 2]))
        assert report_digest(Row("a", [1, 2])) != report_digest(Row("a", [2, 1]))


class TestShardedEqualsSerial:
    def test_lifecycle_sharded_report_is_byte_identical(self):
        kwargs = dict(seed=0xC0FFEE, engine="turbo", stride=17, secure_pages=16)
        serial = LifecycleCampaign(**kwargs).run()
        sharded = run_sharded(LifecycleCampaign(**kwargs), 2)
        assert serial.ok, serial.violations[:5]
        assert sharded == serial
        assert report_digest(sharded) == report_digest(serial)

    def test_bitflip_sharded_report_is_byte_identical(self):
        kwargs = dict(stride=211, targets=("pagedb", "itag"), secure_pages=16)
        serial = BitflipCampaign(engine="turbo", **kwargs).run()
        sharded = run_sharded(BitflipCampaign(engine="turbo", **kwargs), 2)
        assert serial.total_trials > 0
        assert sharded == serial
        assert report_digest(sharded) == report_digest(serial)

    def test_pipeline_sharded_report_is_byte_identical(self):
        serial = run_campaign("counter-notary", engine="turbo", stride=19)
        sharded = run_sharded(
            PipelineCampaign("counter-notary", engine="turbo", stride=19), 2
        )
        assert len(serial.trials) > 1  # golden + kill trials
        assert sharded == serial
        assert report_digest(sharded) == report_digest(serial)

    def test_more_shards_than_trials_still_merges_exactly(self):
        kwargs = dict(seed=0xC0FFEE, engine="turbo", stride=200, secure_pages=16)
        serial = LifecycleCampaign(**kwargs).run()
        sharded = run_sharded(LifecycleCampaign(**kwargs), 4)
        assert sharded == serial

    def test_lifecycle_differential_sharded_matches_serial(self):
        kwargs = dict(seed=0xC0FFEE, stride=37, secure_pages=16)
        engines = ("fast", "turbo")
        *serial_reports, serial_mismatches = differential(
            [LifecycleCampaign(engine=e, **kwargs) for e in engines], compare_reports
        )
        *sharded_reports, sharded_mismatches = differential(
            [LifecycleCampaign(engine=e, **kwargs) for e in engines],
            compare_reports,
            jobs=2,
        )
        assert sharded_mismatches == serial_mismatches == []
        for sharded, serial in zip(sharded_reports, serial_reports):
            assert report_digest(sharded) == report_digest(serial)


class TestMergeGuards:
    def shards(self, count=2, stride=29):
        return [
            LifecycleCampaign(
                seed=0xC0FFEE,
                engine="turbo",
                stride=stride,
                secure_pages=16,
                shard=(index, count),
            ).run()
            for index in range(count)
        ]

    def test_merge_rejects_divergent_clean_run_state(self):
        shards = self.shards()
        shards[1].steps[0].post_digest = "0" * 64
        where = r"disagree on report\.steps\[0\]\.post_digest"
        with pytest.raises(MergeError, match=where):
            merge_reports(shards)

    def test_merge_rejects_duplicate_ordinals(self):
        shard = self.shards(count=2)[0]
        with pytest.raises(MergeError, match="duplicate trial ordinals"):
            merge_reports([shard, shard])

    def test_merge_rejects_mismatched_identity(self):
        shards = self.shards()
        shards[1].seed ^= 1
        with pytest.raises(MergeError, match=r"disagree on report\.seed"):
            merge_reports(shards)

    def test_merge_rejects_empty_input(self):
        with pytest.raises(MergeError, match="no shard reports"):
            merge_reports([])

    def test_merge_rejects_divergent_pipeline_golden_trial(self):
        shards = [
            PipelineCampaign("counter-notary", stride=97, shard=(index, 2)).run()
            for index in range(2)
        ]
        assert merge_reports(shards).trials[0] == shards[0].trials[0]
        shards[1].trials[0].violations.append("golden run diverged")
        with pytest.raises(MergeError, match=r"disagree on report\.trials"):
            merge_reports(shards)

    def test_merge_rejects_duplicate_pipeline_kill_points(self):
        shard = PipelineCampaign("counter-notary", stride=97, shard=(0, 2)).run()
        with pytest.raises(MergeError, match="duplicate trial ordinals"):
            merge_reports([shard, shard])


class TestShardedWitnessReplay:
    def test_sharded_replay_matches_serial_failure_list(self):
        from repro.analysis.symbex.explore import explore_smc
        from repro.analysis.symbex.replay import ReplayHarness
        from repro.analysis.symbex.witness import build_witnesses

        witnesses = build_witnesses(explore_smc("stop"))
        assert witnesses
        serial = ReplayHarness(engines=("turbo",)).check(witnesses)
        sharded = check_witnesses_sharded(witnesses, 2, engines=("turbo",))
        assert sharded == serial == []
