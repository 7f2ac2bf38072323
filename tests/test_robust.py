"""Tests for the unified graceful-degradation layer (``repro.robust``)."""

from __future__ import annotations

import os
import signal
import warnings

import pytest

from repro import robust
from repro.errors import (
    CacheArtifactError,
    ConfigError,
    InjectedFaultError,
    SimulationError,
    TraceFormatError,
)


@pytest.fixture(autouse=True)
def _clean_slate():
    robust.reset_degradations()
    yield
    robust.reset_degradations()


class TestRecoverability:
    @pytest.mark.parametrize(
        "exc",
        [
            InjectedFaultError("chaos"),
            TraceFormatError("torn"),
            CacheArtifactError("corrupt shard"),
            OSError("disk"),
            IOError("io"),
            MemoryError(),
            TimeoutError(),
            EOFError(),
        ],
    )
    def test_infrastructure_failures_are_recoverable(self, exc):
        assert robust.is_recoverable(exc)

    @pytest.mark.parametrize(
        "exc",
        [
            ConfigError("bad geometry"),
            SimulationError("inconsistent counters"),
            TypeError("a plain bug"),
            KeyboardInterrupt(),
        ],
    )
    def test_semantic_failures_propagate(self, exc):
        assert not robust.is_recoverable(exc)

    def test_pool_errors_are_recoverable(self):
        from repro.analysis.pool import PoolCrashError, PoolDispatchError

        assert robust.is_recoverable(PoolCrashError("worker died"))
        assert robust.is_recoverable(PoolDispatchError("send failed"))


class TestAccounting:
    def test_record_counts_and_summarises(self):
        robust.record_degradation("map", "pooled", "serial", "t", warn=False)
        robust.record_degradation("map", "pooled", "serial", "t", warn=False)
        robust.record_degradation(
            "engine", "streaming", "vectorized", warn=False
        )
        assert robust.degradation_summary() == {
            "map:pooled->serial": 2,
            "engine:streaming->vectorized": 1,
        }
        assert len(robust.degradation_events()) == 3

    def test_counter_reaches_obs_registry(self):
        from repro.obs import get_registry

        before = get_registry().counter_value(
            "robust.degradations", domain="cache", edge="entry->quarantine+recompute"
        )
        robust.record_degradation(
            "cache", "entry", "quarantine+recompute", warn=False
        )
        after = get_registry().counter_value(
            "robust.degradations", domain="cache", edge="entry->quarantine+recompute"
        )
        assert after == before + 1

    def test_warns_once_per_edge(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            robust.record_degradation("kernel", "compiled", "numpy", "x")
            robust.record_degradation("kernel", "compiled", "numpy", "y")
        assert len(caught) == 1
        assert "kernel" in str(caught[0].message)

    def test_reset_rearms_warnings(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            robust.record_degradation("stream", "parallel", "sequential")
            robust.reset_degradations()
            robust.record_degradation("stream", "parallel", "sequential")
        assert len(caught) == 2
        assert robust.degradation_summary() == {
            "stream:parallel->sequential": 1
        }

    def test_chains_cover_every_documented_domain(self):
        assert set(robust.DEGRADATION_CHAINS) == {
            "engine", "stream", "kernel", "ilp", "map", "cache", "trace",
        }
        for chain in robust.DEGRADATION_CHAINS.values():
            assert len(chain) >= 2


@pytest.mark.skipif(
    not hasattr(signal, "SIGTERM"), reason="no SIGTERM on this platform"
)
def test_sigterm_handler_raises_keyboard_interrupt():
    previous = signal.getsignal(signal.SIGTERM)
    try:
        robust.install_sigterm_handler()
        with pytest.raises(KeyboardInterrupt):
            os.kill(os.getpid(), signal.SIGTERM)
    finally:
        signal.signal(signal.SIGTERM, previous)
