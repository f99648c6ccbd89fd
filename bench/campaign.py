"""campaign: the serial crash and bitflip campaigns, seeded from --seed.

No service and no IPC: the time goes to snapshot restore, crash
recovery, audits, the measurement-midstate hashing path and the
integrity engine's detect-and-quarantine path, so a change that helps
serving but slows or breaks these shows here.

An op is one trial.  A round runs ``LifecycleCampaign(stride=1)`` (every
fault point) then ``BitflipCampaign(stride=287)`` (every seventh of the
stride-41 flips) serially in this process, pinned to one CPU, and every
round runs the same trials in the same order.

A trial is timed from its fork (a ``CampaignSnapshot.restore``) to the
next restore of the same checkpoint, and read at the reference speed
from calibrations taken just before each fork (``bench.calibrate``).
A step's first restore forks its golden run or discovery probe and its
last puts the base machine back, so neither interval is a trial.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from bench.calibrate import calibrate, cpus, pinned, scale
from bench.trace import Tracer
from bench.workloads import CAMPAIGN, Result, ms
from repro.faults.bitflip import BitflipCampaign
from repro.faults.campaign import LifecycleCampaign
from repro.faults.parallel import report_digest
from repro.faults.snapshot import CampaignSnapshot

ENGINE = "turbo"
LIFECYCLE_STRIDE = 1
BITFLIP_STRIDE = 287
MIN_ROUNDS = 2
MAX_ROUNDS = 8
#: Zero-trial campaign passes timed for ``setup_s`` before each round.
SETUPS_PER_ROUND = 3

#: (calibration start, calibration end, calibration seconds) of a fork.
Fork = Tuple[float, float, float]


class ForkClock:
    """While open, every ``CampaignSnapshot.restore`` first calibrates
    the host, then runs.  ``checkpoints`` holds the forks of each run of
    consecutive restores of one snapshot."""

    def __init__(self) -> None:
        self.checkpoints: List[List[Fork]] = []
        self._last: Optional[CampaignSnapshot] = None
        self._original = CampaignSnapshot.restore

    def __enter__(self) -> "ForkClock":
        clock, original = self, self._original

        def restore(snapshot, *args, **kwargs):
            if snapshot is not clock._last:
                clock._last = snapshot
                clock.checkpoints.append([])
            start = perf_counter()
            seconds = calibrate()
            clock.checkpoints[-1].append((start, perf_counter(), seconds))
            return original(snapshot, *args, **kwargs)

        CampaignSnapshot.restore = restore
        return self

    def __exit__(self, *exc) -> None:
        CampaignSnapshot.restore = self._original
        self._last = None


def trial_seconds(checkpoints: Sequence[Sequence[Fork]]) -> List[float]:
    """Each trial's seconds at the reference speed: from the end of its
    fork's calibration to the start of the next fork's, scaled by the
    two.  Per checkpoint the first interval (golden run or discovery)
    and the time after the last fork (the base machine moving on) are
    not trials."""
    return [
        (end - begin) * scale(before, after)
        for forks in checkpoints
        for (_, begin, before), (end, _, after) in zip(forks[1:-1], forks[2:])
    ]


def _campaigns(seed: int, lifecycle_stride: int, bitflip_stride: int) -> Dict:
    """Run both campaigns; return their digests, failed trials,
    violations, and each campaign's trials per second of wall."""
    start = perf_counter()
    lifecycle = LifecycleCampaign(seed=seed, engine=ENGINE, stride=lifecycle_stride).run()
    middle = perf_counter()
    bitflip = BitflipCampaign(seed=seed, engine=ENGINE, stride=bitflip_stride).run()
    end = perf_counter()
    failed = sum(
        1 for step in lifecycle.steps for r in step.trial_records if r.violations
    ) + sum(1 for step in bitflip.steps for r in step.flip_records if r.violations)
    return {
        "digests": {
            "lifecycle_report_digest": report_digest(lifecycle),
            "bitflip_report_digest": report_digest(bitflip),
        },
        "total_trials": lifecycle.total_trials + bitflip.total_trials,
        "seconds": end - start,
        "rates": {
            "lifecycle": lifecycle.total_trials / (middle - start),
            "bitflip": bitflip.total_trials / (end - middle),
        },
        "failed": failed,
        "violations": lifecycle.violations + bitflip.violations,
    }


def _timed_round(seed: int, lifecycle_stride: int, bitflip_stride: int) -> Dict:
    with ForkClock() as clock:
        outcome = _campaigns(seed, lifecycle_stride, bitflip_stride)
    outcome["trials"] = trial_seconds(clock.checkpoints)
    if len(outcome["trials"]) != outcome["total_trials"]:
        raise RuntimeError(
            f"timed {len(outcome['trials'])} forks for {outcome['total_trials']} trials"
        )
    return outcome


def setup_time(seed: int) -> float:
    """One zero-trial pass of both campaigns (boot, enclave builds,
    golden lifecycles and clean-run audits, without any trial), in
    seconds at the reference speed."""
    before = calibrate()
    start = perf_counter()
    for report in (
        LifecycleCampaign(seed=seed, engine=ENGINE, inject_steps=()).run(),
        BitflipCampaign(seed=seed, engine=ENGINE, targets=()).run(),
    ):
        if not report.ok:
            raise RuntimeError(f"zero-trial campaign reported {report.violations[0]}")
    return (perf_counter() - start) * scale(before, calibrate())


def _check(result: Result, outcomes: List[Dict]) -> None:
    first = outcomes[0]
    for index, outcome in enumerate(outcomes):
        result.problems.extend(
            f"round {index}: violation: {v}" for v in outcome["violations"][:1]
        )
        if outcome["digests"] != first["digests"]:
            result.problems.append(f"round {index} report digests disagree with round 0")


def run(seed: int, seconds: float, lifecycle_stride: int = LIFECYCLE_STRIDE, bitflip_stride: int = BITFLIP_STRIDE) -> Result:
    """Untraced run: rounds until ``seconds`` of round wall (at least
    MIN_ROUNDS).  ``ops_per_s`` is trials over their scaled seconds;
    ``p50_ms`` and ``p99_ms`` are over each trial's fastest scaled time
    of the rounds, which all run the same trials in the same order; and
    ``setup_s`` is the median scaled zero-trial pass."""
    result = Result(CAMPAIGN)
    setups: List[float] = []
    outcomes: List[Dict] = []
    with pinned(cpus()[0]):
        while len(outcomes) < MAX_ROUNDS and (
            len(outcomes) < MIN_ROUNDS or sum(o["seconds"] for o in outcomes) < seconds
        ):
            setups.extend(setup_time(seed) for _ in range(SETUPS_PER_ROUND))
            outcomes.append(_timed_round(seed, lifecycle_stride, bitflip_stride))
    _check(result, outcomes)
    trials = [t for o in outcomes for t in o["trials"]]
    fastest = [min(each) for each in zip(*(o["trials"] for o in outcomes))]
    result.values = {
        "ops_per_s": len(trials) / sum(trials),
        "p50_ms": ms(fastest, 0.50),
        "p99_ms": ms(fastest, 0.99),
        "setup_s": statistics.median(setups),
    }
    result.rounds = {
        "ops_per_s": [len(o["trials"]) / sum(o["trials"]) for o in outcomes],
        "p50_ms": [ms(o["trials"], 0.50) for o in outcomes],
        "p99_ms": [ms(o["trials"], 0.99) for o in outcomes],
        "setup_s": setups,
    }
    result.samples = {
        "ops_per_s": len(trials),
        "p50_ms": len(fastest),
        "p99_ms": len(fastest),
        "setup_s": len(setups),
    }
    result.attempted = len(trials)
    result.failed = sum(o["failed"] for o in outcomes)
    result.pins = dict(outcomes[0]["digests"])
    return result


def run_traced(seed: int, lifecycle_stride: int = LIFECYCLE_STRIDE, bitflip_stride: int = BITFLIP_STRIDE, spans: Optional[str] = None) -> Result:
    """Traced run: one untraced round, then the same round traced; the
    report digests must agree."""
    result = Result(CAMPAIGN)
    with pinned(cpus()[0]):
        plain = _campaigns(seed, lifecycle_stride, bitflip_stride)
        with Tracer() as tracer:
            start = perf_counter()
            with tracer.op():
                traced = _campaigns(seed, lifecycle_stride, bitflip_stride)
            wall_s = perf_counter() - start
    if spans:
        tracer.write_spans(spans)
    _check(result, [plain, traced])
    ops = plain["total_trials"]
    result.attempted = 2 * ops
    result.failed = plain["failed"] + traced["failed"]
    values = tracer.layer_metrics(ops=ops, wall_s=wall_s)
    for name, rate in plain["rates"].items():
        values[f"faults.{name}.trials_per_s"] = rate
    values["bench.trace_overhead"] = wall_s / plain["seconds"] - 1
    values["bench.ops"] = float(ops)
    result.values = values
    result.samples = {name: ops for name in values}
    result.pins = dict(plain["digests"])
    return result
