"""Admission control and micro-batching units (no sockets involved).

The token bucket runs on an injected fake clock so refill behaviour is
deterministic; the batcher tests drive a real event loop via
``asyncio.run`` (the suite has no async plugin, deliberately — the
production entry points are synchronous too).
"""

import asyncio

import pytest

from repro.obs import MetricsRegistry, set_registry
from repro.robust import (
    degradation_summary,
    reset_degradations,
)
from repro.serve.admission import (
    AdmissionController,
    TokenBucket,
)
from repro.serve.batching import MicroBatcher
from repro.serve.protocol import Overloaded, RateLimited


@pytest.fixture()
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_empty(self):
        clock = FakeClock()
        bucket = TokenBucket(10.0, 3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True,
            True,
            True,
            False,
        ]

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(10.0, 3.0, clock=clock)
        for _ in range(3):
            bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.11)  # ~one token at 10/s (float-safe margin)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(10.0, 2.0, clock=clock)
        clock.advance(60.0)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_unlimited_when_rate_none(self):
        bucket = TokenBucket(None)
        assert all(bucket.try_acquire() for _ in range(1000))
        assert bucket.available == float("inf")

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0)
        with pytest.raises(ValueError):
            TokenBucket(-1.0)


class TestAdmissionController:
    def test_rate_rejection_is_typed_429(self, registry):
        clock = FakeClock()
        controller = AdmissionController(
            rate=10.0, burst=1.0, max_queue=8, clock=clock
        )
        controller.admit("optimize")
        with pytest.raises(RateLimited):
            controller.admit("optimize")
        assert (
            registry.counter_value(
                "serve.admission.rejected", code=429, endpoint="optimize"
            )
            == 1
        )

    def test_queue_bound_rejection_is_typed_503(self, registry):
        controller = AdmissionController(max_queue=2)
        tickets = [controller.admit("simulate") for _ in range(2)]
        with pytest.raises(Overloaded):
            controller.admit("simulate")
        assert (
            registry.counter_value(
                "serve.admission.rejected", code=503, endpoint="simulate"
            )
            == 1
        )
        # Releasing a slot re-opens the gate.
        tickets[0].release()
        ticket = controller.admit("simulate")
        ticket.release()
        tickets[1].release()
        assert controller.depth == 0

    def test_release_is_idempotent(self):
        controller = AdmissionController(max_queue=4)
        ticket = controller.admit("optimize")
        ticket.release()
        ticket.release()
        assert controller.depth == 0

    def test_context_manager_releases(self):
        controller = AdmissionController(max_queue=1)
        with controller.admit("optimize"):
            assert controller.depth == 1
        assert controller.depth == 0

    def test_drain_rejects_everything(self, registry):
        controller = AdmissionController(max_queue=8)
        controller.drain()
        with pytest.raises(Overloaded, match="shutting down"):
            controller.admit("optimize")

    def test_depth_gauge_tracks(self, registry):
        controller = AdmissionController(max_queue=8)
        ticket = controller.admit("optimize")
        assert registry.snapshot()["gauges"]["serve.queue.depth"] == 1
        ticket.release()
        assert registry.snapshot()["gauges"]["serve.queue.depth"] == 0


class HeldRunner:
    """Batch runner whose first pass waits on ``release``.

    That pass then returns its payloads, or raises ``error`` when given;
    every later pass returns its payloads at once.  Create it inside the
    running loop.
    """

    def __init__(self, error: BaseException | None = None) -> None:
        self.batches: list[list] = []
        self.entered = asyncio.Event()
        self.release = asyncio.Event()
        self.error = error

    async def __call__(self, key, payloads):
        self.batches.append(list(payloads))
        if len(self.batches) == 1:
            self.entered.set()
            await self.release.wait()
            if self.error is not None:
                raise self.error
        return list(payloads)

    async def hold(self, batcher):
        """Submit payload 1 and return its task once its pass is held."""
        first = asyncio.ensure_future(batcher.submit("k", 1))
        await self.entered.wait()
        return first


class TestMicroBatcher:
    def test_coalesces_within_window(self, registry):
        # The window is one event-loop turn: every submit made before an
        # idle key's flush callback runs joins the same group.
        batches = []

        async def run_batch(key, payloads):
            batches.append(list(payloads))
            return [p * 10 for p in payloads]

        async def scenario():
            batcher = MicroBatcher(run_batch)
            results = await asyncio.gather(
                batcher.submit("k", 1),
                batcher.submit("k", 2),
                batcher.submit("k", 3),
            )
            await batcher.close()
            return results

        assert asyncio.run(scenario()) == [10, 20, 30]
        assert batches == [[1, 2, 3]]
        assert registry.counter_value("serve.batches") == 1

    def test_incompatible_keys_do_not_mix(self):
        batches = []

        async def run_batch(key, payloads):
            batches.append((key, list(payloads)))
            return list(payloads)

        async def scenario():
            batcher = MicroBatcher(run_batch)
            await asyncio.gather(
                batcher.submit("a", 1), batcher.submit("b", 2)
            )
            await batcher.close()

        asyncio.run(scenario())
        assert sorted(batches) == [("a", [1]), ("b", [2])]

    def test_max_batch_flushes_immediately(self, registry):
        batches = []

        async def run_batch(key, payloads):
            batches.append(list(payloads))
            return list(payloads)

        async def scenario():
            # All three submits land in one turn; only the size trigger
            # can split them into two passes.
            batcher = MicroBatcher(run_batch, max_batch=2)
            results = await asyncio.wait_for(
                asyncio.gather(
                    batcher.submit("k", 1),
                    batcher.submit("k", 2),
                    batcher.submit("k", 3),
                ),
                timeout=5.0,
            )
            await batcher.close()
            return results

        assert asyncio.run(scenario()) == [1, 2, 3]
        assert batches == [[1, 2], [3]]

    def test_lone_submit_needs_no_timer(self, registry):
        async def run_batch(key, payloads):
            return list(payloads)

        timers = []

        async def scenario():
            loop = asyncio.get_running_loop()
            call_at = loop.call_at

            def recording_call_at(when, *args, **kwargs):
                timers.append(when)
                return call_at(when, *args, **kwargs)

            # asyncio.sleep(delay > 0) and call_later both go through
            # call_at, so a clock-driven flush would be recorded here.
            loop.call_at = recording_call_at
            try:
                batcher = MicroBatcher(run_batch)
                result = await batcher.submit("k", 7)
                await batcher.close()
            finally:
                del loop.call_at
            return result

        assert asyncio.run(scenario()) == 7
        assert timers == []
        assert registry.counter_value("serve.batches") == 1
        waits = registry.histogram_summary("serve.batch.wait.seconds")
        assert waits["count"] == 1

    def test_submits_during_a_pass_form_one_next_group(self, registry):
        async def scenario():
            runner = HeldRunner()
            batcher = MicroBatcher(runner)
            first = await runner.hold(batcher)
            rest = []
            for payload in (2, 3, 4):
                # One loop turn apart: backlog, not timing, groups them.
                rest.append(asyncio.ensure_future(batcher.submit("k", payload)))
                await asyncio.sleep(0)
            assert runner.batches == [[1]]
            runner.release.set()
            results = await asyncio.wait_for(
                asyncio.gather(first, *rest), timeout=5.0
            )
            await batcher.close()
            return results, runner.batches

        assert asyncio.run(scenario()) == ([1, 2, 3, 4], [[1], [2, 3, 4]])
        waits = registry.histogram_summary("serve.batch.wait.seconds")
        assert waits["count"] == 4

    def test_max_batch_flushes_while_a_pass_is_in_flight(self, registry):
        async def scenario():
            runner = HeldRunner()
            batcher = MicroBatcher(runner, max_batch=2)
            first = await runner.hold(batcher)
            # The full group runs beside the held pass, not behind it.
            full = await asyncio.wait_for(
                asyncio.gather(batcher.submit("k", 2), batcher.submit("k", 3)),
                timeout=5.0,
            )
            assert not first.done()
            runner.release.set()
            result = await first
            await batcher.close()
            return result, full, runner.batches

        assert asyncio.run(scenario()) == (1, [2, 3], [[1], [2, 3]])

    def test_failed_pass_still_flushes_the_waiting_group(self, registry):
        async def scenario():
            runner = HeldRunner(error=ValueError("bad placement"))
            batcher = MicroBatcher(runner)
            first = await runner.hold(batcher)
            waiting = asyncio.gather(
                batcher.submit("k", 2), batcher.submit("k", 3)
            )
            await asyncio.sleep(0)
            runner.release.set()
            with pytest.raises(ValueError):
                await first
            results = await asyncio.wait_for(waiting, timeout=5.0)
            await batcher.close()
            return results, runner.batches

        assert asyncio.run(scenario()) == ([2, 3], [[1], [2, 3]])

    def test_close_flushes_the_waiting_group(self, registry):
        async def scenario():
            runner = HeldRunner()
            batcher = MicroBatcher(runner)
            first = await runner.hold(batcher)
            second = asyncio.ensure_future(batcher.submit("k", 2))
            await asyncio.sleep(0)
            assert runner.batches == [[1]]
            await batcher.close()
            # Flushed by close, while the first pass is still held.
            assert await asyncio.wait_for(second, timeout=5.0) == 2
            assert not first.done()
            runner.release.set()
            return await first, runner.batches

        assert asyncio.run(scenario()) == (1, [[1], [2]])

    def test_recoverable_batch_failure_degrades_to_single(self, registry):
        reset_degradations()
        calls = []

        async def run_batch(key, payloads):
            calls.append(list(payloads))
            if len(payloads) > 1:
                raise OSError("injected infra failure")  # recoverable
            return [p + 100 for p in payloads]

        async def scenario():
            batcher = MicroBatcher(run_batch)
            results = await asyncio.gather(
                batcher.submit("k", 1), batcher.submit("k", 2)
            )
            await batcher.close()
            return results

        try:
            assert asyncio.run(scenario()) == [101, 102]
            # One failed batched pass, then one single pass per rider.
            assert calls == [[1, 2], [1], [2]]
            assert degradation_summary().get("serve:batched->single") == 1
        finally:
            reset_degradations()

    def test_semantic_failure_propagates_to_all_riders(self):
        async def run_batch(key, payloads):
            raise ValueError("bad placement")  # not recoverable

        async def scenario():
            batcher = MicroBatcher(run_batch)
            results = await asyncio.gather(
                batcher.submit("k", 1),
                batcher.submit("k", 2),
                return_exceptions=True,
            )
            await batcher.close()
            return results

        results = asyncio.run(scenario())
        assert all(isinstance(r, ValueError) for r in results)

    def test_single_rider_failure_is_not_retried(self):
        calls = []

        async def run_batch(key, payloads):
            calls.append(list(payloads))
            raise OSError("still down")

        async def scenario():
            batcher = MicroBatcher(run_batch)
            try:
                await batcher.submit("k", 1)
            finally:
                await batcher.close()

        with pytest.raises(OSError):
            asyncio.run(scenario())
        assert calls == [[1]]

    def test_closed_batcher_rejects_submissions(self):
        async def run_batch(key, payloads):
            return list(payloads)

        async def scenario():
            batcher = MicroBatcher(run_batch)
            await batcher.close()
            with pytest.raises(RuntimeError):
                await batcher.submit("k", 1)

        asyncio.run(scenario())

    def test_batch_size_histogram_recorded(self, registry):
        async def run_batch(key, payloads):
            return list(payloads)

        async def scenario():
            batcher = MicroBatcher(run_batch)
            await asyncio.gather(*(batcher.submit("k", i) for i in range(4)))
            await batcher.close()

        asyncio.run(scenario())
        snapshot = registry.snapshot()
        history = snapshot["histograms"]["serve.batch.size"]
        assert history["count"] == 1
        assert history["max"] == 4
