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


def rotated_placements(trace: AccessTrace, words: int, count: int) -> list:
    """``count`` distinct placement payloads of ``trace``'s items."""
    items = list(trace.items)
    payloads = []
    for shift in range(count):
        order = items[shift:] + items[:shift]
        payloads.append(
            {
                item: [index // words, index % words]
                for index, item in enumerate(order)
            }
        )
    return payloads


class TestSimulate:
    def test_concurrent_simulates_match_local(self):
        accesses = make_accesses(seed=13, items=16, length=800)
        local_trace = AccessTrace(accesses, name="batch")
        config = DWMConfig.for_items(local_trace.num_items, words_per_dbc=8)
        payloads = rotated_placements(local_trace, config.words_per_dbc, 6)
        with running_server() as (_, client):
            trace_id = client.upload_trace("batch", accesses)["trace_id"]
            with concurrent.futures.ThreadPoolExecutor(6) as pool:
                futures = [
                    pool.submit(client.simulate, trace_id, p, config=CONFIG)
                    for p in payloads
                ]
                responses = [future.result() for future in futures]
        from repro.core.placement import Placement

        for payload, response in zip(payloads, responses):
            expected = simulate_vectorized(
                local_trace,
                config,
                Placement({k: tuple(v) for k, v in payload.items()}),
            )
            assert response["shifts"] == expected.shifts
            assert response["per_dbc_shifts"] == list(expected.per_dbc_shifts)
            assert response["max_access_shifts"] == expected.max_access_shifts

    def test_held_simulate_does_not_block_the_next(self):
        """A second simulate of the same trace and geometry completes while
        the first one's scan is still held in the executor."""
        accesses = make_accesses(seed=17, items=16, length=800)
        trace = AccessTrace(accesses, name="held")
        first, second = rotated_placements(trace, CONFIG["words_per_dbc"], 2)
        entered = threading.Event()
        release = threading.Event()
        with running_server() as (server, client):
            run_simulate = server._simulate_sync

            def held(*args):
                if not entered.is_set():
                    entered.set()
                    assert release.wait(timeout=30.0)
                return run_simulate(*args)

            server._simulate_sync = held
            trace_id = client.upload_trace("held", accesses)["trace_id"]
            with concurrent.futures.ThreadPoolExecutor(2) as pool:
                held_future = pool.submit(
                    client.simulate, trace_id, first, config=CONFIG
                )
                try:
                    assert entered.wait(timeout=30.0)
                    free_future = pool.submit(
                        client.simulate, trace_id, second, config=CONFIG
                    )
                    response = free_future.result(timeout=20.0)
                    assert not held_future.done()
                finally:
                    release.set()
                held_response = held_future.result(timeout=30.0)
        assert response["trace_name"] == held_response["trace_name"] == "held"
        assert "batched" not in response


def raw_exchange(port: int, request: bytes) -> bytes:
    """Send raw request bytes on one connection; read until the peer closes."""
    import socket

    with socket.create_connection(("127.0.0.1", port), timeout=15.0) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestFraming:
    def assert_typed_400(self, response: bytes) -> None:
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body)["error"] == {
            "code": "bad_request",
            "message": "oversized request headers",
        }

    @pytest.mark.parametrize("kib", [20, 100])
    def test_long_request_line_is_typed_400(self, kib):
        target = "/healthz?" + "a" * (kib * 1024)
        request = f"GET {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
        with running_server() as (server, client):
            self.assert_typed_400(raw_exchange(server.port, request))
            assert client.health()["status"] == "ok"

    def test_header_line_past_the_stream_limit_is_typed_400(self):
        big = "a" * (100 * 1024)
        request = f"GET /healthz HTTP/1.1\r\nX-Big: {big}\r\n\r\n".encode()
        with running_server() as (server, client):
            self.assert_typed_400(raw_exchange(server.port, request))
            assert client.health()["status"] == "ok"


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


    def test_exact_size_guard_is_typed_400(self):
        # No kwarg lifts the brute force's 7-item guard: 14 items at two
        # ports are refused at once, not enumerated on an executor thread.
        from repro.trace.synthetic import markov_trace

        accesses = [(access.item, "R") for access in markov_trace(14, 300, seed=1)]
        with running_server() as (_, client):
            trace_id = client.upload_trace("exact", accesses)["trace_id"]
            start = time.perf_counter()
            with pytest.raises(BadRequest, match="at most 7 items"):
                client.optimize(
                    trace_id,
                    method="exact",
                    config={"words_per_dbc": 8, "num_ports": 2},
                    kwargs={"max_items": 1000},
                )
            assert time.perf_counter() - start < 1.0


class TestRefinementBudgets:
    @pytest.mark.parametrize("kernel_tier", ["active", "numpy"], indirect=True)
    def test_any_int_budget_answers_200(self, kernel_tier):
        # Budgets past int64 run to convergence (2**64 + 5 is not 5);
        # negative ones make no move.
        with running_server() as (_, client):
            trace_id = client.upload_trace("budget", make_accesses())["trace_id"]
            heuristic = client.optimize(trace_id, config=CONFIG)["result"]
            budgets = (10**30, 2**64 + 5, 10**9, -(10**30))
            results = {}
            for budget in budgets:
                optimized = client.optimize(
                    trace_id,
                    method="heuristic+ls",
                    config=CONFIG,
                    kwargs={"max_evaluations": budget},
                )
                assert optimized["state"] == "done"
                results[budget] = optimized["result"]
            assert results[-(10**30)]["placement"] == heuristic["placement"]
            for budget in (10**30, 2**64 + 5):
                assert results[budget]["placement"] == results[10**9]["placement"]
            assert results[10**9]["total_shifts"] < heuristic["total_shifts"]


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

    def test_concurrent_identical_uploads(self, tmp_path):
        # The server's two executor threads ingest one body at once; each
        # writes its own temp file, so neither truncates or renames the
        # other's spooled copy.
        from repro.serve.client import ServeClient
        from repro.serve.server import _Request
        from repro.trace.binio import save_binary

        trace = AccessTrace(
            make_accesses(seed=6, items=40, length=200_000), name="twice"
        )
        path = tmp_path / "t.rtb"
        spool = tmp_path / "spool"

        def body(name):
            trace.name = name  # a new body, so a new spool file
            save_binary(trace, path)
            return path.read_bytes()

        def twice(call):
            barrier = threading.Barrier(2)

            def run(arg):
                barrier.wait()
                return call(arg)

            with concurrent.futures.ThreadPoolExecutor(2) as executor:
                return list(executor.map(run, (0, 1)))

        with running_server(spool_dir=str(spool)) as (server, client):
            clients = [client, ServeClient(client.host, client.port)]
            payload = body("http")
            uploaded = twice(lambda i: clients[i].upload_rtb(payload))
            assert uploaded[0]["trace_id"] == uploaded[1]["trace_id"]
            assert uploaded[0]["trace_id"] == trace.fingerprint()
            # The ingest itself, straight on two threads, many times over.
            for attempt in range(30):
                request = _Request("POST", "/v1/traces", {}, body(f"r{attempt}"))
                records = twice(lambda _: server._ingest_rtb(request)[0])
                assert {record.trace_id for record in records} == {
                    trace.fingerprint()
                }
        assert len(list(spool.iterdir())) == 31
        assert not list(spool.glob("*.part")) and not list(spool.glob(".*"))

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
