"""Admission control units (no sockets involved).

The token bucket runs on an injected fake clock so refill behaviour is
deterministic.
"""

import pytest

from repro.obs import MetricsRegistry, set_registry
from repro.serve.admission import (
    AdmissionController,
    TokenBucket,
)
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
