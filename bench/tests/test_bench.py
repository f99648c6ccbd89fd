"""Tests of the benchmark itself: inputs, tracing neutrality, accounting,
run comparison, and failure outside a full checkout.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q``.  Request
counts and campaign strides are small and passed as arguments.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from bench import campaign, serve
from bench.cli import BENCHMARK_JSON
from bench.compare import compare, judge
from bench.trace import LAYERS, Tracer, _class_holders, _module_holders
from bench.calibrate import REFERENCE_S
from bench.workloads import HEAVY_WORDS, SERVE_HEAVY, SERVE_LIGHT, requests, warmup_requests
from repro.cloud.worker import get_template, serve_request

# Modules that import a traced function by name; loaded so the tracer
# must patch (and restore) their copies too.
import repro.cloud.template  # noqa: F401
import repro.faults.bitflip  # noqa: F401
import repro.faults.campaign  # noqa: F401
import repro.pipeline.campaign  # noqa: F401
import repro.sdk.native  # noqa: F401

BENCHMARK = json.loads(BENCHMARK_JSON.read_text())
PER_LAYER = {spec["name"] for spec in BENCHMARK["per_layer"]}


@pytest.fixture(scope="module")
def template():
    template = get_template(serve.SPEC)
    for workload in (SERVE_LIGHT, SERVE_HEAVY):
        for request in warmup_requests(workload):
            serve_request(template, request)
    return template


@pytest.fixture(scope="module")
def mixed_requests():
    return requests(SERVE_LIGHT, 3, 24) + requests(SERVE_HEAVY, 3, 9)


def test_request_list_is_a_pure_function_of_workload_and_seed():
    first = requests(SERVE_HEAVY, 7, 40)
    assert first == requests(SERVE_HEAVY, 7, 40)
    assert first != requests(SERVE_HEAVY, 8, 40)
    assert requests(SERVE_LIGHT, 7, 40) != requests(SERVE_HEAVY, 7, 40)
    assert len({request.key for request in first}) == len(first)
    for workload in (SERVE_LIGHT, SERVE_HEAVY):
        reqs = requests(workload, 7, 2 * workload.block)
        for start in (0, workload.block):
            block = reqs[start : start + workload.block]
            for kind in workload.kinds:
                assert [r.kind for r in block].count(kind) == workload.per_block
    # Seal and unseal lengths are dealt from decks of HEAVY_WORDS.
    sealed = [len(r.payload) for r in requests(SERVE_HEAVY, 7, 90) if r.kind != "pipeline"]
    for deck in range(0, len(sealed), len(HEAVY_WORDS)):
        assert sorted(sealed[deck : deck + len(HEAVY_WORDS)]) == list(HEAVY_WORDS)


def _bindings():
    """Every (holder, name) -> object the tracer may replace."""
    found = {}
    for _, entries in LAYERS:
        for owner, name, _ in entries:
            holders = (
                _class_holders(owner, name)
                if isinstance(owner, type)
                else _module_holders(owner, name)
            )
            for holder in holders:
                found[(holder, name)] = vars(holder)[name]
    return found


def test_tracer_restores_every_patched_attribute():
    before = _bindings()
    by_name_copies = [
        (repro.faults.campaign, "audit_monitor"),
        (repro.faults.bitflip, "integrity_consistency"),
        (repro.pipeline.campaign, "audit_monitor"),
        (repro.cloud.template, "secure_state_digest"),
        (repro.sdk.native, "dispatch_svc"),
    ]
    assert all(key in before for key in by_name_copies)
    with pytest.raises(RuntimeError):
        with Tracer():
            for (holder, name), original in before.items():
                assert vars(holder)[name] is not original, (holder, name)
            raise RuntimeError("leave the context by an exception")
    for (holder, name), original in before.items():
        assert vars(holder)[name] is original, (holder, name)


def test_tracing_leaves_serve_outputs_and_cycles_unchanged(template, mixed_requests):
    plain = serve.replay(template, mixed_requests)
    with Tracer() as tracer:
        traced = serve.replay(template, mixed_requests, tracer)
    assert traced["digests"] == plain["digests"]
    assert traced["cycles"] == plain["cycles"]
    golden = [template.expected(request).digest() for request in mixed_requests]
    assert traced["digests"] == golden
    assert tracer.sim_cycles > 0


def test_layer_self_times_account_for_the_traced_wall(template, mixed_requests):
    with Tracer() as tracer:
        traced = serve.replay(template, mixed_requests, tracer)
    accounted = sum(tracer.self_s.values())
    assert accounted == pytest.approx(traced["wall_s"], rel=0.05)
    metrics = tracer.layer_metrics(len(mixed_requests), traced["wall_s"])
    assert metrics["bench.unattributed_share"] <= 0.10
    assert metrics["cloud.template.calls_per_op"] == 1.0


@pytest.fixture(scope="module")
def traced_serve():
    return serve.run_traced(SERVE_LIGHT, 5, count=40)


@pytest.fixture(scope="module")
def traced_campaign():
    return campaign.run_traced(5, lifecycle_stride=13, bitflip_stride=601)


def test_traced_serve_run_checks_served_against_replayed(traced_serve):
    assert traced_serve.problems == []
    assert traced_serve.failed == 0
    assert traced_serve.values["cloud.template.p50_ms.sign"] > 0


def _processes():
    """(pid, parent pid, command line) of every process."""
    found = []
    for proc in pathlib.Path("/proc").glob("[0-9]*"):
        try:
            ppid = int((proc / "stat").read_text().rsplit(")", 1)[1].split()[1])
            cmdline = (proc / "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except (OSError, IndexError):
            continue  # exited while we looked
        found.append((int(proc.name), ppid, cmdline))
    return found


def test_serve_rounds_leave_no_process_behind(traced_serve):
    left = [
        (pid, cmdline) for pid, ppid, cmdline in _processes()
        if ppid == os.getpid() or "-m bench.serve" in cmdline
    ]
    assert left == []


def test_traced_campaign_run_keeps_report_digests(traced_campaign):
    assert traced_campaign.problems == []
    assert traced_campaign.failed == 0
    assert traced_campaign.values["faults.audit.calls_per_op"] > 0
    pins = traced_campaign.pins
    assert pins["lifecycle_report_digest"] != pins["bitflip_report_digest"]


def test_every_per_layer_metric_is_measured(traced_serve, traced_campaign):
    assert PER_LAYER <= set(traced_serve.values) | set(traced_campaign.values)


def test_trial_times_skip_golden_runs_step_advances_and_calibration():
    # Per checkpoint: golden fork at 0, trials forked at 1 and 3, the
    # base machine put back at 6; the next step's checkpoint starts at
    # 10.  Each fork calibrates for 0.5 s first, at the reference speed
    # except around the last trial, where the host ran at half speed.
    def forks(*starts, slow=()):
        return [(t, t + 0.5, REFERENCE_S * (2 if t in slow else 1)) for t in starts]

    checkpoints = [forks(0.0, 1.0, 3.0, 6.0), forks(10.0, 12.0), forks(20.0, 21.0, 25.0, slow=(21.0, 25.0))]
    assert campaign.trial_seconds(checkpoints) == [1.5, 2.5, 1.75]


def test_campaign_run_times_every_trial_of_every_round():
    result = campaign.run(5, 0.0, lifecycle_stride=13, bitflip_stride=601)
    assert result.problems == []
    assert result.failed == 0
    rounds = len(result.rounds["ops_per_s"])
    assert rounds == campaign.MIN_ROUNDS
    assert result.attempted == result.samples["ops_per_s"]
    assert result.attempted % rounds == 0
    assert result.values["p50_ms"] <= result.values["p99_ms"]
    assert len(result.rounds["setup_s"]) == rounds * campaign.SETUPS_PER_ROUND
    assert set(result.values) == {spec["name"] for spec in BENCHMARK["end_to_end"]}


def _doc(ops_rounds, p50=5.0, failed=0):
    metrics = {
        "ops_per_s": {"value": max(ops_rounds), "rounds": ops_rounds},
        "p50_ms": {"value": p50, "rounds": [p50]},
        "p99_ms": {"value": 9.0, "rounds": [9.0]},
        "setup_s": {"value": 1.0, "rounds": [1.0]},
    }
    return {"workloads": {"serve-light": {
        "correct": True, "attempted": 1000, "failed": failed, "metrics": metrics,
    }}}


def test_compare_applies_direction_bound_and_spread():
    spec = BENCHMARK["end_to_end"][0]
    assert spec["name"] == "ops_per_s" and spec["better"] == "higher"
    low, high = 100.0 * (1 - 2 * spec["bound"]), 100.0 * (1 + 2 * spec["bound"])
    steady = {"value": 100.0, "rounds": [99.0, 100.0, 101.0]}
    assert judge(spec, steady, {"value": low, "rounds": [low]})[0] == "worse"
    assert judge(spec, steady, {"value": 97.0, "rounds": [97.0]})[0] == "within"
    assert judge(spec, steady, {"value": high, "rounds": [high]})[0] == "better"
    noisy = {"value": 100.0, "rounds": [low, 100.0, high]}
    assert judge(spec, noisy, {"value": low, "rounds": [low]})[0] == "unresolved"
    assert judge(spec, noisy, {"value": 2 * high, "rounds": [2 * high]})[0] == "better"

    base = _doc([99.0, 100.0, 101.0])
    rows, ok = compare(BENCHMARK, base, _doc([99.0, 100.0, 101.0]))
    assert ok and rows[0].split()[1] == "within"
    assert rows[1].split()[1] == "unresolved"  # serve-heavy is in neither run
    rows, ok = compare(BENCHMARK, base, _doc([99.0, 100.0, 101.0], p50=10.0))
    assert not ok and rows[0].split()[1] == "worse"
    rows, ok = compare(BENCHMARK, base, _doc([99.0, 100.0, 101.0], failed=1))
    assert not ok and "failed share rose" in rows[0]


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(pathlib.Path(serve.__file__).parent, tmp_path / "bench")
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
