"""serve-light / serve-heavy: closed-loop rounds against a fresh CloudService.

Each round runs in a fresh Python process: ``get_template`` caches the
booted template per process, so a second ``start()`` in one process
would cost nothing and hide the cold start ``setup_s`` exists to show.
One worker, because a supervisor plus two workers would oversubscribe a
2-core host.  The supervisor and its clients run on one CPU and the
worker on the other, so each block's calibration (``bench.calibrate``)
is taken on the CPU that served it.

The traced path replays a served request list in this process the way
``worker_main`` handles a request (``from_wire`` -> ``serve_request``
-> ``to_wire``), once untraced and once under a :class:`Tracer`.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import pathlib
import signal
import statistics
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from bench.calibrate import calibrate, calibrate_on, cpus, pinned, scale
from bench.trace import Tracer
from bench.workloads import (
    SERVE_WORKLOADS,
    Result,
    ServeWorkload,
    describe,
    ms,
    request_blocks,
    requests,
    sample_indices,
    warmup_requests,
)
from repro.cloud.api import CloudRequest, CloudResponse, results_digest
from repro.cloud.service import CloudService
from repro.cloud.template import EnclaveTemplate
from repro.cloud.worker import get_template, serve_request

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: The template every round serves from (CloudService's defaults).
SPEC = {"engine": "turbo", "seed": 0xC10D, "secure_pages": 48, "step_budget": 2_000_000}
#: Closed-loop clients: each sends its next request when the last returns.
CLIENTS = 2
#: Fresh-process rounds per untraced run, all serving the same requests.
ROUNDS = 3
#: ``results_digest`` (pinned in expected.json) covers this many of a
#: round's first requests.
PINNED_OPS = 120
#: A traced replay calibrates the host after every this many requests.
REPLAY_BLOCK = 20
#: A round that has not reported by then has hung.
ROUND_TIMEOUT_S = 60.0

STATS_KEYS = ("retries", "crashes", "degraded", "timeouts")


async def _drive(service: CloudService, reqs: Sequence[CloudRequest], responses: List, latencies: List[float], first: int) -> None:
    """Serve ``reqs[first:]`` from CLIENTS closed-loop clients."""
    cursor = iter(range(first, len(reqs)))

    async def client() -> None:
        for i in cursor:
            sent = perf_counter()
            responses[i] = await service.submit(reqs[i])
            latencies[i] = perf_counter() - sent

    await asyncio.gather(*(client() for _ in range(CLIENTS)))


async def _serve(workload: ServeWorkload, seed: int, round_index: int, seconds: float, count: int) -> Dict:
    """One round: a cold start, a warm-up request per kind, then whole
    blocks until ``count`` requests (when nonzero) or ``seconds`` of
    timed serving and at least the PINNED_OPS requests.  Times are read
    at the reference speed."""
    home, worker_cpu = cpus()
    os.sched_setaffinity(0, {home})
    service = CloudService(workers=1, **SPEC)
    reqs: List[CloudRequest] = []
    responses: List[Optional[CloudResponse]] = []
    latencies: List[float] = []
    wall_s = scaled_s = 0.0
    problems = []
    try:
        before = calibrate()
        start = perf_counter()
        await service.start()
        setup_s = (perf_counter() - start) * scale(before, calibrate())
        # The pump and executor threads inherited ``home``; the forked
        # worker moves to the other CPU.
        for worker in multiprocessing.active_children():
            os.sched_setaffinity(worker.pid, {worker_cpu})
        for request in warmup_requests(workload):
            if not (await service.submit(request)).ok:
                problems.append(f"warm-up {request.kind} request failed")
        blocks = request_blocks(workload, seed)
        before = calibrate_on(worker_cpu)
        while (len(reqs) < count) if count else (wall_s < seconds or len(reqs) < PINNED_OPS):
            first = len(reqs)
            reqs.extend(next(blocks)[: (count - first) if count else None])
            responses.extend([None] * (len(reqs) - first))
            latencies.extend([0.0] * (len(reqs) - first))
            start = perf_counter()
            await _drive(service, reqs, responses, latencies, first)
            elapsed = perf_counter() - start
            # Drained: the worker's CPU runs nothing of ours but this.
            after = calibrate_on(worker_cpu)
            factor = scale(before, after)
            before = after
            wall_s += elapsed
            scaled_s += elapsed * factor
            for i in range(first, len(reqs)):
                latencies[i] *= factor
        stats = service.stats()
    finally:
        await service.close()
    # After the timed phase: check a seeded sample against the golden,
    # computed in this process on the template start() booted.
    template = get_template(SPEC)
    for i in sample_indices(workload.name, seed, round_index, len(reqs)):
        if responses[i].digest() != template.expected(reqs[i]).digest():
            problems.append(
                f"{describe(reqs[i], i)}: served response differs from "
                "EnclaveTemplate.expected"
            )
            break
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "scaled_s": scaled_s,
        "latencies": latencies,
        "ok": sum(r.ok for r in responses),
        "digests": [r.digest() for r in responses],
        "results_digest": results_digest(responses[:PINNED_OPS]),
        "stats": {key: stats[key] for key in STATS_KEYS},
        "problems": problems,
    }


def _round_main(argv: List[str]) -> None:
    """Child side of :func:`serve_round`: serve one round, print its
    record as one JSON line."""
    name, seed, round_index, seconds, count = argv
    record = asyncio.run(
        _serve(SERVE_WORKLOADS[name], int(seed), int(round_index), float(seconds), int(count))
    )
    print(json.dumps(record))


def serve_round(workload: ServeWorkload, seed: int, round_index: int, seconds: float, count: int = 0) -> Dict:
    """Run one round in a fresh Python process and return its record.

    A plain subprocess rather than a ``multiprocessing`` spawn, which
    would leave its resource-tracker process behind the benchmark.  The
    child leads its own process group, so a hung round is killed with
    the service workers it forked.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")))
    )
    command = [sys.executable, "-m", "bench.serve", workload.name,
               str(seed), str(round_index), repr(seconds), str(count)]
    with subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as process:
        try:
            out, err = process.communicate(timeout=ROUND_TIMEOUT_S)
        except BaseException as exc:
            os.killpg(process.pid, signal.SIGKILL)
            if isinstance(exc, subprocess.TimeoutExpired):
                raise RuntimeError(f"{workload.name} round {round_index} hung") from None
            raise
    if process.returncode != 0:
        raise RuntimeError(f"{workload.name} round {round_index} failed:\n{err}")
    return json.loads(out.splitlines()[-1])


def _handle(template: EnclaveTemplate, wire: Dict) -> Dict:
    """What ``worker_main`` does with one request message."""
    return serve_request(template, CloudRequest.from_wire(wire)).to_wire()


def replay(template: EnclaveTemplate, reqs: List[CloudRequest], tracer: Optional[Tracer] = None) -> Dict:
    """Serve ``reqs`` in-process, each as one op; with ``tracer``, each
    inside a root span.  The host is calibrated between blocks of
    REPLAY_BLOCK requests, outside the ops.  Returns the ops' wall time,
    raw and at the reference speed, response digests and the simulated
    cycle counter after each request."""
    wires = [request.to_wire() for request in reqs]
    state = template.monitor.state
    outs, cycles = [], []
    wall_s = scaled_s = 0.0
    before = calibrate()
    for first in range(0, len(wires), REPLAY_BLOCK):
        block_s = 0.0
        for i in range(first, min(first + REPLAY_BLOCK, len(wires))):
            start = perf_counter()
            with tracer.op(i) if tracer is not None else nullcontext():
                outs.append(_handle(template, wires[i]))
            block_s += perf_counter() - start
            cycles.append(state.cycles)
        after = calibrate()
        wall_s += block_s
        scaled_s += block_s * scale(before, after)
        before = after
    return {
        "wall_s": wall_s,
        "scaled_s": scaled_s,
        "digests": [CloudResponse.from_wire(out).digest() for out in outs],
        "ok": sum(out["ok"] for out in outs),
        "cycles": cycles,
    }


def _first_difference(left: Sequence, right: Sequence) -> Optional[int]:
    for i, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return i
    return None


def _describe_index(workload: ServeWorkload, seed: int, index: int) -> str:
    return describe(requests(workload, seed, index + 1)[index], index)


def run(workload: ServeWorkload, seed: int, seconds: float, count: int = 0) -> Result:
    """The untraced run: ROUNDS fresh-process rounds of the same
    requests.  Round 0 serves whole blocks for ``seconds / ROUNDS`` (or
    ``count`` requests); the later rounds serve as many.

    ``ops_per_s`` is requests over scaled serving time.  ``p50_ms`` and
    ``p99_ms`` are over each request's fastest scaled latency of the
    rounds: every round is a fresh process serving the same requests in
    the same order, so the program does the same work in each, and a
    stall from another tenant rarely hits one request in every round.
    ``setup_s`` is the median scaled cold start.
    """
    result = Result(workload.name)
    records = [serve_round(workload, seed, 0, seconds / ROUNDS, count)]
    count = len(records[0]["latencies"])
    records += [serve_round(workload, seed, index, 0.0, count) for index in range(1, ROUNDS)]
    fastest = [min(each) for each in zip(*(r["latencies"] for r in records))]
    ops = ROUNDS * count
    result.values = {
        "ops_per_s": ops / sum(r["scaled_s"] for r in records),
        "p50_ms": ms(fastest, 0.50),
        "p99_ms": ms(fastest, 0.99),
        "setup_s": statistics.median(r["setup_s"] for r in records),
    }
    result.rounds = {
        "ops_per_s": [len(r["latencies"]) / r["scaled_s"] for r in records],
        "p50_ms": [ms(r["latencies"], 0.50) for r in records],
        "p99_ms": [ms(r["latencies"], 0.99) for r in records],
        "setup_s": [r["setup_s"] for r in records],
    }
    result.samples = {"ops_per_s": ops, "p50_ms": count, "p99_ms": count, "setup_s": ROUNDS}
    result.attempted = ops
    result.failed = ops - sum(r["ok"] for r in records)
    if count < PINNED_OPS:
        result.problems.append(
            f"the rounds served {count} requests, fewer than the "
            f"{PINNED_OPS} results_digest covers"
        )
    for index, record in enumerate(records):
        result.problems.extend(f"round {index}: {p}" for p in record["problems"])
        differs = _first_difference(records[0]["digests"], record["digests"])
        if differs is not None:
            result.problems.append(
                f"round {index} disagrees with round 0 at "
                f"{_describe_index(workload, seed, differs)}"
            )
    result.pins = {"results_digest": records[0]["results_digest"]}
    return result


def run_traced(workload: ServeWorkload, seed: int, count: int = 0, spans: Optional[str] = None) -> Result:
    """The traced run: one served round of ``count`` (default
    ``workload.trace_ops``) requests, for the service's share and the
    served responses, then an untraced and a traced in-process replay
    of the same requests; every response must agree."""
    result = Result(workload.name)
    n = count or workload.trace_ops
    reqs = requests(workload, seed, n)
    served = serve_round(workload, seed, 0, 0.0, n)
    result.problems.extend(f"served round: {p}" for p in served["problems"])
    template = get_template(SPEC)
    with pinned(cpus()[0]):
        for request in warmup_requests(workload):
            serve_request(template, request)
        plain = replay(template, reqs)
        with Tracer() as tracer:
            traced = replay(template, reqs, tracer)
    if spans:
        tracer.write_spans(spans)

    for label, left, right in (
        ("replayed response differs from the served one", served["digests"], traced["digests"]),
        ("traced replay response differs from the untraced one", plain["digests"], traced["digests"]),
        ("traced replay simulated cycles differ from the untraced", plain["cycles"], traced["cycles"]),
    ):
        differs = _first_difference(left, right)
        if differs is not None:
            result.problems.append(f"{describe(reqs[differs], differs)}: {label}")
    result.attempted = 2 * n
    result.failed = (n - served["ok"]) + (n - traced["ok"])

    values = tracer.layer_metrics(ops=n, wall_s=traced["wall_s"])
    # Served and replayed seconds per request, both at the reference speed.
    served_s, replay_s = served["scaled_s"] / n, plain["scaled_s"] / n
    values["cloud.service.self_ms_per_op"] = (served_s - replay_s) * 1e3
    values["cloud.service.share"] = (served_s - replay_s) / served_s
    for key in STATS_KEYS:
        values[f"cloud.service.{key}"] = float(served["stats"][key])
    for kind, durations in tracer.execute_s.items():
        values[f"cloud.template.p50_ms.{kind}"] = statistics.median(durations) * 1e3
    values["bench.trace_overhead"] = traced["scaled_s"] / plain["scaled_s"] - 1
    values["bench.ops"] = float(n)
    result.values = values
    result.samples = {name: n for name in values}
    result.pins = {
        "results_digest": served["results_digest"],
        "sim_cycles": tracer.sim_cycles,
    }
    return result


if __name__ == "__main__":
    _round_main(sys.argv[1:])
