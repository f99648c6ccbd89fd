"""CloudService: supervised pool serving under crashes and timeouts.

Each test drives its own service inside ``asyncio.run``; workers are
forked from the session-cached template, so spawns are cheap.
"""

import asyncio
import multiprocessing
import os
import signal
import time

from repro.cloud import service as service_module
from repro.cloud.api import CloudRequest
from repro.cloud.service import CloudService
from repro.cloud.worker import get_template
from tests.cloud.conftest import TIGHT_BUDGET


def run(coro):
    return asyncio.run(coro)


def mixed_requests(count_per_kind=2):
    requests = []
    for kind, payload in (
        ("attest", tuple(range(8))),
        ("seal", (0x51, 0x52, 0x53)),
        ("unseal", (0x61, 0x62)),
        ("sign", tuple(range(10))),
        ("checksum", (0x71, 0x72, 0x73, 0x74)),
        ("spin", (48,)),
        ("pipeline", (0x81, 0x82, 0x83, 0x84)),
    ):
        for nonce in range(count_per_kind):
            requests.append(CloudRequest(kind=kind, payload=payload, nonce=nonce))
    return requests


#: A request whose wall-clock far exceeds any test timeout but whose
#: step budget permits it — the "wedged worker" stand-in.  The spin is
#: just under the template's default 2,000,000-step budget.
def wedge_request(nonce=0):
    return CloudRequest("spin", (1_990_000,), nonce=nonce)


class TestServing:
    def test_pool_serves_mixed_workload_bit_exact(self, template):
        async def body():
            service = CloudService(workers=2)
            await service.start()
            try:
                requests = mixed_requests()
                responses = await asyncio.gather(
                    *(service.submit(r) for r in requests)
                )
                for request, response in zip(requests, responses):
                    assert response.ok, (request.kind, response.error)
                    assert (
                        response.digest() == template.expected(request).digest()
                    ), request.kind
                stats = service.stats()
                assert stats["completed"] == len(requests)
                assert stats["crashes"] == 0
                assert stats["workers_alive"] == 2
            finally:
                await service.close()

        run(body())

    def test_duplicate_submits_share_one_execution(self):
        async def body():
            service = CloudService(workers=2)
            await service.start()
            try:
                request = CloudRequest("seal", (7, 7, 7))
                first, second = await asyncio.gather(
                    service.submit(request), service.submit(request)
                )
                assert first.digest() == second.digest()
                assert service.stats()["submitted"] == 1  # one execution
            finally:
                await service.close()

        run(body())

    def test_malformed_request_resolves_typed_bad_request(self):
        async def body():
            service = CloudService(workers=1)
            await service.start()
            try:
                response = await service.submit(CloudRequest("attest", (1, 2)))
                assert not response.ok
                assert response.error_code == "bad_request"
                assert not response.retryable
            finally:
                await service.close()

        run(body())

    def test_step_budget_exhaustion_is_typed_and_non_retryable(
        self, tight_template
    ):
        async def body():
            service = CloudService(workers=1, step_budget=TIGHT_BUDGET)
            await service.start()
            try:
                response = await service.submit(CloudRequest("spin", (50_000,)))
                assert not response.ok
                assert response.error_code == "deadline_exceeded"
                assert not response.retryable
                # The worker survives a budget failure: next request OK.
                ok = await service.submit(CloudRequest("spin", (16,)))
                assert ok.ok and service.stats()["crashes"] == 0
            finally:
                await service.close()

        run(body())


class TestDedupWindow:
    """Idempotency holds per window: the ``DEDUP_WINDOW`` most recently
    completed keys are remembered, pending ones always."""

    def test_window_bounds_the_table_and_forgets_the_oldest(self, monkeypatch):
        monkeypatch.setattr(service_module, "DEDUP_WINDOW", 4)

        async def body():
            service = CloudService(workers=2)
            await service.start()
            try:
                first = CloudRequest("spin", (8,), nonce=0)
                response = await service.submit(first)
                # A duplicate of a recent key shares the cached response.
                assert await service.submit(first) is response
                assert service.stats()["submitted"] == 1
                tasks = [
                    asyncio.ensure_future(
                        service.submit(CloudRequest("spin", (8,), nonce=n))
                    )
                    for n in range(1, 11)
                ]
                await asyncio.sleep(0)  # every submit has registered
                while not all(task.done() for task in tasks):
                    pending = sum(
                        not entry.future.done()
                        for entry in service._entries.values()
                    )
                    assert len(service._entries) <= 4 + pending
                    await asyncio.sleep(0.001)
                assert all(task.result().ok for task in tasks)
                assert len(service._entries) == 4
                # The first key fell out of the window: it executes again.
                again = await service.submit(first)
                assert again is not response
                assert again.digest() == response.digest()
                assert service.stats()["submitted"] == 12
            finally:
                await service.close()

        run(body())


class TestCrashSupervision:
    def test_killed_worker_is_respawned_and_request_retried(self, template):
        async def body():
            service = CloudService(workers=2)
            await service.start()
            try:
                request = CloudRequest("seal", (0xAA, 0xBB), nonce=9)
                response = await service.submit(request, chaos_kill_at=5)
                assert response.ok
                assert response.attempts == 2  # died once, retried once
                assert response.digest() == template.expected(request).digest()
                stats = service.stats()
                assert stats["crashes"] == 1
                assert stats["respawns"] == 1
                assert stats["retries"] == 1
                assert stats["workers_alive"] == 2  # pool healed
            finally:
                await service.close()

        run(body())

    def test_kill_on_dequeue_and_kill_before_reply(self, template):
        async def body():
            service = CloudService(workers=2)
            await service.start()
            try:
                early = CloudRequest("attest", tuple(range(8)), nonce=1)
                late = CloudRequest("sign", tuple(range(10)), nonce=2)
                first, second = await asyncio.gather(
                    service.submit(early, chaos_kill_at=0),
                    service.submit(late, chaos_kill_at=-1),
                )
                assert first.ok and second.ok
                assert first.digest() == template.expected(early).digest()
                assert second.digest() == template.expected(late).digest()
                assert service.stats()["crashes"] == 2
            finally:
                await service.close()

        run(body())

    def test_duplicate_submits_dedup_across_worker_respawn(self, template):
        # Two submits of the same idempotency key while the only worker
        # dies mid-execution: the dedup map must keep both callers on
        # the one retried execution, never run the request twice.
        async def body():
            service = CloudService(workers=1)
            await service.start()
            try:
                request = CloudRequest("pipeline", (3, 1, 4, 1), nonce=11)
                first, second = await asyncio.gather(
                    service.submit(request, chaos_kill_at=6),
                    service.submit(request),
                )
                assert first.ok and second.ok
                assert first.digest() == second.digest()
                golden = template.expected(request)
                assert first.digest() == golden.digest()
                stats = service.stats()
                assert stats["submitted"] == 1  # one execution, shared
                assert stats["crashes"] == 1
                assert stats["respawns"] == 1
            finally:
                await service.close()

        run(body())

    def test_pipeline_request_survives_mid_transaction_kill(self, template):
        # The composite two-enclave commit killed mid-transaction must
        # come back bit-exact on the respawned worker: the retry starts
        # from the pristine snapshot, so no partial cross-enclave state
        # can leak into the reply.
        async def body():
            service = CloudService(workers=2)
            await service.start()
            try:
                request = CloudRequest("pipeline", (9, 8, 7, 6), nonce=12)
                response = await service.submit(request, chaos_kill_at=25)
                assert response.ok
                assert response.attempts == 2
                assert response.digest() == template.expected(request).digest()
                assert service.stats()["crashes"] == 1
            finally:
                await service.close()

        run(body())

    def test_idle_worker_death_is_detected_and_healed(self):
        # Nothing in flight and no request timeout: only the event
        # loop's watch on the worker's sentinel (and pipe) notices this.
        async def body():
            service = CloudService(workers=1)
            await service.start()
            try:
                assert (await service.submit(CloudRequest("spin", (8,)))).ok
                (worker,) = multiprocessing.active_children()
                os.kill(worker.pid, signal.SIGKILL)
                deadline = time.monotonic() + 5.0
                while service.stats()["respawns"] < 1:
                    assert time.monotonic() < deadline, service.stats()
                    await asyncio.sleep(0.01)
                stats = service.stats()
                assert stats["crashes"] == 1
                assert stats["respawns"] == 1
                assert stats["workers_alive"] == 1
                response = await service.submit(
                    CloudRequest("spin", (8,), nonce=1)
                )
                assert response.ok
                assert response.attempts == 1
            finally:
                await service.close()

        run(body())

    def test_exhausted_attempts_resolve_typed_retryable(self):
        async def body():
            service = CloudService(workers=1, max_attempts=1)
            await service.start()
            try:
                response = await service.submit(
                    CloudRequest("seal", (1,), nonce=3), chaos_kill_at=1
                )
                assert not response.ok
                assert response.error_code == "worker_crashed"
                assert response.retryable
                assert response.attempts == 1
            finally:
                await service.close()

        run(body())

    def test_audits_stay_clean_after_crash_traffic(self, template):
        async def body():
            service = CloudService(workers=2)
            await service.start()
            try:
                await asyncio.gather(
                    service.submit(
                        CloudRequest("unseal", (5, 6), nonce=4), chaos_kill_at=3
                    ),
                    service.submit(CloudRequest("checksum", (9, 9), nonce=5)),
                )
                audits = await service.audit_workers()
                assert audits  # at least the idle workers answered
                for violations, digest in audits.values():
                    assert violations == []
                    assert digest == template.template_digest
            finally:
                await service.close()

        run(body())


class TestDegradation:
    def test_open_breaker_sheds_to_degraded_but_correct_path(self, template):
        async def body():
            # One crash opens the breaker; the long cooldown keeps it open.
            service = CloudService(
                workers=1, breaker_threshold=1, breaker_cooldown=60.0
            )
            await service.start()
            try:
                killed = CloudRequest("seal", (2, 3, 4), nonce=6)
                response = await service.submit(killed, chaos_kill_at=4)
                # The retry of the killed request already rides the
                # degraded path (breaker opened on its first death).
                assert response.ok and response.degraded
                assert response.digest() == template.expected(killed).digest()
                follow_up = CloudRequest("attest", tuple(range(8)), nonce=7)
                degraded = await service.submit(follow_up)
                assert degraded.ok and degraded.degraded
                assert degraded.worker == -1
                assert (
                    degraded.digest() == template.expected(follow_up).digest()
                )
                assert service.stats()["degraded"] >= 2
                assert service.stats()["breaker"] == "open"
            finally:
                await service.close()

        run(body())


class TestTimeoutsAndShutdown:
    def test_wedged_worker_is_killed_and_timeout_is_typed(self):
        async def body():
            service = CloudService(
                workers=1,
                request_timeout=0.1,
                max_attempts=2,
                breaker_threshold=1_000_000,
            )
            await service.start()
            try:
                response = await service.submit(wedge_request(nonce=8))
                assert not response.ok
                assert response.error_code == "request_timeout"
                assert response.retryable
                stats = service.stats()
                assert stats["timeouts"] == 2  # both attempts wedged
                assert stats["crashes"] == 2
                assert stats["workers_alive"] == 1  # pool healed anyway
            finally:
                await service.close()

        run(body())

    def test_close_resolves_pending_requests_as_pool_closed(self):
        async def body():
            service = CloudService(workers=1)
            await service.start()
            task = asyncio.ensure_future(service.submit(wedge_request(nonce=9)))
            await asyncio.sleep(0.1)  # let it dispatch and wedge
            await service.close()
            response = await task
            assert not response.ok
            assert response.error_code == "pool_closed"
            assert response.retryable

        run(body())

    def test_submit_after_close_is_pool_closed(self):
        async def body():
            service = CloudService(workers=1)
            await service.start()
            await service.close()
            response = await service.submit(CloudRequest("spin", (8,)))
            assert response.error_code == "pool_closed"

        run(body())
