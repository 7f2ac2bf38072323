"""End-to-end tests for the asyncio placement service.

The in-process tests run a real :class:`PlacementServer` (real sockets,
real HTTP) on a background thread and drive it through the stdlib
client; the teardown tests spawn the actual ``repro serve`` CLI as a
subprocess and kill it.  No async test plugin is used — the event loop
lives entirely inside the server thread.
"""

import concurrent.futures
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.analysis.cache import ResultCache
from repro.dwm.config import DWMConfig
from repro.memory import shm
from repro.memory.batch_sim import simulate_vectorized
from repro.obs import MetricsRegistry, set_registry
from repro.serve.client import ServeClient, wait_for_server
from repro.serve.protocol import (
    BadRequest,
    NotFound,
    Overloaded,
    RateLimited,
)
from repro.serve.server import PlacementServer
from repro.trace.model import AccessTrace

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def registry():
    """Metrics isolation: every test gets a fresh process registry."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


def make_accesses(seed: int = 5, items: int = 12, length: int = 600):
    rng = random.Random(seed)
    return [
        (f"v{rng.randrange(items)}", rng.choice("RW")) for _ in range(length)
    ]


@contextmanager
def running_server(**kwargs):
    server = PlacementServer(**kwargs)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    try:
        port = server.wait_until_listening(timeout=15.0)
        client = wait_for_server("127.0.0.1", port)
        yield server, client
    finally:
        server.request_shutdown()
        assert server.wait_until_stopped(timeout=30.0)
        thread.join(timeout=10.0)


CONFIG = {"words_per_dbc": 8, "num_ports": 1}


class TestRoundTrip:
    def test_upload_optimize_simulate_status(self):
        with running_server() as (server, client):
            health = client.health()
            assert health["status"] == "ok"

            accesses = make_accesses()
            uploaded = client.upload_trace("rt", accesses)
            trace_id = uploaded["trace_id"]
            assert uploaded["num_accesses"] == len(accesses)
            assert not uploaded["reused"]

            info = client.trace_info(trace_id)
            assert info["kind"] == "jsonl"
            assert info["num_items"] == uploaded["num_items"]

            optimized = client.optimize(trace_id, config=CONFIG)
            assert optimized["state"] == "done"
            placement = optimized["result"]["placement"]

            simulated = client.simulate(trace_id, placement, config=CONFIG)
            assert simulated["shifts"] == optimized["result"]["total_shifts"]

            status = client.job(optimized["job_id"])
            assert status["state"] == "done"
            assert (
                status["result"]["total_shifts"]
                == optimized["result"]["total_shifts"]
            )

            metrics = client.metrics()
            assert any(
                key.startswith("serve.requests") for key in metrics["counters"]
            )

    def test_duplicate_upload_reuses_record(self):
        with running_server() as (_, client):
            accesses = make_accesses()
            first = client.upload_trace("dup", accesses)
            second = client.upload_trace("dup", accesses)
            assert second["trace_id"] == first["trace_id"]
            assert second["reused"]

    def test_async_job_polling(self):
        with running_server() as (_, client):
            uploaded = client.upload_trace("async", make_accesses())
            ticket = client.optimize(
                uploaded["trace_id"],
                method="random",
                config=CONFIG,
                kwargs={"seed": 3},
                wait=False,
            )
            assert ticket["state"] in ("queued", "running")
            finished = client.wait_for_job(ticket["job_id"], timeout=60)
            assert finished["state"] == "done"
            assert finished["result"]["total_shifts"] >= 0

    def test_server_results_match_local_compute(self):
        accesses = make_accesses(seed=8)
        with running_server() as (_, client):
            uploaded = client.upload_trace("parity", accesses)
            response = client.optimize(uploaded["trace_id"], config=CONFIG)
        from repro.core.api import optimize_placement

        local_trace = AccessTrace(accesses, name="parity")
        local_config = DWMConfig.for_items(
            local_trace.num_items, words_per_dbc=8
        )
        local = optimize_placement(local_trace, local_config)
        assert response["result"]["total_shifts"] == local.total_shifts
        assert response["result"]["placement"] == {
            item: list(slot)
            for item, slot in local.placement.as_dict().items()
        }


class TestCacheFront:
    def test_warm_optimize_skips_compute(self, registry, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with running_server(cache=cache) as (_, client):
            uploaded = client.upload_trace("warm", make_accesses())
            cold = client.optimize(uploaded["trace_id"], config=CONFIG)
            assert not cold["cached"]
            runs_after_cold = registry.counter_value(
                "optimize.runs", method="heuristic"
            )
            warm = client.optimize(uploaded["trace_id"], config=CONFIG)
            assert warm["cached"]
            assert warm["result"]["details"]["cache"] == "hit"
            # The optimizer never ran again: answered purely from cache.
            assert (
                registry.counter_value("optimize.runs", method="heuristic")
                == runs_after_cold
            )
            assert (
                warm["result"]["total_shifts"]
                == cold["result"]["total_shifts"]
            )
            assert warm["result"]["placement"] == cold["result"]["placement"]

    def test_warm_simulate_served_from_cache(self, registry, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with running_server(cache=cache) as (_, client):
            uploaded = client.upload_trace("simwarm", make_accesses())
            optimized = client.optimize(uploaded["trace_id"], config=CONFIG)
            placement = optimized["result"]["placement"]
            cold = client.simulate(
                uploaded["trace_id"], placement, config=CONFIG
            )
            warm = client.simulate(
                uploaded["trace_id"], placement, config=CONFIG
            )
            assert warm["details"].get("cache") == "hit"
            assert warm["shifts"] == cold["shifts"]
            assert warm["per_dbc_shifts"] == cold["per_dbc_shifts"]
            assert (
                registry.counter_value(
                    "serve.cache.hits", endpoint="simulate"
                )
                == 1
            )


class TestBatching:
    def test_concurrent_simulates_coalesce_and_match_local(self, registry):
        accesses = make_accesses(seed=13, items=16, length=800)
        local_trace = AccessTrace(accesses, name="batch")
        config = DWMConfig.for_items(local_trace.num_items, words_per_dbc=8)
        items = list(local_trace.items)
        words = config.words_per_dbc

        def rotated_placement(shift: int) -> dict:
            order = items[shift:] + items[:shift]
            return {
                item: [index // words, index % words]
                for index, item in enumerate(order)
            }

        payloads = [rotated_placement(i) for i in range(6)]
        release = threading.Event()
        with running_server() as (server, client):
            run_pass = server._simulate_batch_sync

            def held_pass(riders):
                # The first pass waits until every rider has joined the
                # batcher, so the rest must queue behind it as one group.
                assert release.wait(timeout=30.0)
                return run_pass(riders)

            server._simulate_batch_sync = held_pass
            uploaded = client.upload_trace("batch", accesses)
            trace_id = uploaded["trace_id"]
            with concurrent.futures.ThreadPoolExecutor(6) as pool:
                futures = [
                    pool.submit(client.simulate, trace_id, p, config=CONFIG)
                    for p in payloads
                ]
                deadline = time.monotonic() + 30.0
                while (
                    registry.counter_value(
                        "serve.cache.misses", endpoint="simulate"
                    )
                    < len(payloads)
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.005)
                release.set()
                responses = [future.result() for future in futures]
        # The riders parsed with the first one share its pass; every
        # other rider queued behind it as one group.
        batches = registry.counter_value("serve.batches")
        assert 1 <= batches <= 2
        from repro.core.placement import Placement

        for payload, response in zip(payloads, responses):
            expected = simulate_vectorized(
                local_trace,
                config,
                Placement({k: tuple(v) for k, v in payload.items()}),
            )
            assert response["shifts"] == expected.shifts
            assert response["per_dbc_shifts"] == list(expected.per_dbc_shifts)
            assert response["batched"] >= 1


class TestAdmissionOverHttp:
    def test_empty_bucket_is_typed_429(self):
        # rate so slow the bucket (burst == rate < 1 token) never fills.
        with running_server(rate=0.001) as (_, client):
            uploaded = client.upload_trace("shed", make_accesses())
            with pytest.raises(RateLimited):
                client.optimize(uploaded["trace_id"], config=CONFIG)

    def test_full_queue_is_typed_503(self):
        accesses = make_accesses()
        items = AccessTrace(accesses, name="full").items
        # Placement validation happens before admission (a malformed
        # request is a 400, not load), so the 503 check needs a valid one.
        placement = {
            item: [index // 8, index % 8] for index, item in enumerate(items)
        }
        with running_server(max_queue=0) as (_, client):
            uploaded = client.upload_trace("full", accesses)
            with pytest.raises(Overloaded):
                client.optimize(uploaded["trace_id"], config=CONFIG)
            with pytest.raises(Overloaded):
                client.simulate(uploaded["trace_id"], placement, config=CONFIG)

    def test_rejections_counted(self, registry):
        with running_server(max_queue=0) as (_, client):
            uploaded = client.upload_trace("count", make_accesses())
            for _ in range(3):
                with pytest.raises(Overloaded):
                    client.optimize(uploaded["trace_id"], config=CONFIG)
            assert (
                registry.counter_value(
                    "serve.admission.rejected", code=503, endpoint="optimize"
                )
                == 3
            )


class TestTypedErrors:
    def test_unknown_trace_404(self):
        with running_server() as (_, client):
            with pytest.raises(NotFound):
                client.optimize("deadbeef")
            with pytest.raises(NotFound):
                client.job("job-999999")
            with pytest.raises(NotFound):
                client.trace_info("deadbeef")

    def test_unknown_route_404(self):
        with running_server() as (_, client):
            with pytest.raises(NotFound):
                client._request("GET", "/v1/nope")

    def test_bad_payloads_400(self):
        with running_server() as (_, client):
            with pytest.raises(BadRequest):
                client._request("POST", "/v1/traces", body=b"not json")
            with pytest.raises(BadRequest):
                client.upload_trace("empty", [])
            uploaded = client.upload_trace("bad", make_accesses())
            with pytest.raises(BadRequest):
                client.optimize(
                    uploaded["trace_id"], config={"bogus_field": 1}
                )
            with pytest.raises(BadRequest):
                client.simulate(
                    uploaded["trace_id"], {"v0": [0, 0]}, config=CONFIG
                )  # placement missing most items -> validation error
            with pytest.raises(BadRequest):
                client.optimize(uploaded["trace_id"], method="not-a-method")

    def test_wrongly_typed_kwargs_400(self):
        with running_server() as (_, client):
            uploaded = client.upload_trace("typed", make_accesses())
            for kwargs in ({"max_evaluations": "x"}, {"seed": True}):
                with pytest.raises(BadRequest):
                    client.optimize(
                        uploaded["trace_id"],
                        method="heuristic+ls",
                        config=CONFIG,
                        kwargs=kwargs,
                    )


class TestRtbTraces:
    def test_rtb_upload_and_streaming_simulate(self, tmp_path):
        from repro.trace.binio import save_binary

        accesses = make_accesses(seed=4, items=10, length=700)
        trace = AccessTrace(accesses, name="bin")
        path = tmp_path / "t.rtb"
        save_binary(trace, path)
        with running_server(spool_dir=str(tmp_path / "spool")) as (_, client):
            uploaded = client.upload_rtb_file(path)
            assert uploaded["kind"] == "rtb"
            assert uploaded["num_accesses"] == len(accesses)
            optimized = client.optimize(uploaded["trace_id"], config=CONFIG)
            assert optimized["state"] == "done"
            simulated = client.simulate(
                uploaded["trace_id"],
                optimized["result"]["placement"],
                config=CONFIG,
            )
            assert simulated["shifts"] == optimized["result"]["total_shifts"]

    def test_invalid_rtb_is_typed_400(self, tmp_path):
        with running_server(spool_dir=str(tmp_path / "spool")) as (_, client):
            with pytest.raises(BadRequest):
                client.upload_rtb(b"\x00" * 64)


class TestShutdown:
    def test_graceful_shutdown_leaves_nothing_behind(self):
        with running_server(pool_workers=1) as (server, client):
            uploaded = client.upload_trace("bye", make_accesses())
            client.optimize(uploaded["trace_id"], config=CONFIG)
            client.shutdown()
            assert server.wait_until_stopped(timeout=30.0)
            with pytest.raises((Overloaded, OSError, TimeoutError)):
                ServeClient("127.0.0.1", server.port, timeout=2.0).health()
        assert multiprocessing.active_children() == []
        assert shm.active_segments() == []

    def test_drained_server_sheds_typed(self):
        with running_server() as (server, client):
            uploaded = client.upload_trace("drain", make_accesses())
            server.admission.drain()
            with pytest.raises(Overloaded, match="shutting down"):
                client.optimize(uploaded["trace_id"], config=CONFIG)


class TestCliTeardown:
    """SIGTERM must reuse the toolkit teardown path (satellite bugfix)."""

    def _spawn(self, tmp_path, extra_args=()):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                *extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        announce = json.loads(proc.stdout.readline())
        assert announce["event"] == "listening"
        return proc, announce["port"]

    def test_sigterm_idle_exits_130_clean(self, tmp_path):
        proc, port = self._spawn(tmp_path)
        try:
            wait_for_server("127.0.0.1", port)
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=20)
            stderr = proc.stderr.read()
            assert rc == 130
            assert "interrupted" in stderr
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate(timeout=10)

    def test_sigterm_with_inflight_job_exits_clean(self, tmp_path):
        proc, port = self._spawn(tmp_path, ("--pool-workers", "1"))
        try:
            client = wait_for_server("127.0.0.1", port)
            uploaded = client.upload_trace(
                "inflight", make_accesses(seed=17, items=20, length=3000)
            )
            # A slow annealing job is mid-flight (in the worker pool)
            # when the signal lands.
            ticket = client.optimize(
                uploaded["trace_id"],
                method="annealing",
                config=CONFIG,
                kwargs={"max_evaluations": 50000, "cooling": 0.999},
                wait=False,
            )
            assert ticket["state"] in ("queued", "running")
            time.sleep(0.3)
            start = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=25)
            elapsed = time.monotonic() - start
            stderr = proc.stderr.read()
            assert rc == 130, stderr
            assert "interrupted" in stderr
            assert elapsed < 20.0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate(timeout=10)
        # No orphaned pool workers: our direct child is gone and no
        # process still holds the server's stderr pipe (communicate
        # returning above proves the pipe drained).
        assert multiprocessing.active_children() == []
