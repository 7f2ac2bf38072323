#!/usr/bin/env python3
"""CI service-smoke leg: boot ``repro serve`` and drive the full loop.

A real subprocess server (one pool worker, fresh cache dir) is exercised
through :class:`repro.serve.client.ServeClient`:

1. **Upload → optimize → simulate → job status** all answer with the
   expected payloads; the optimize result round-trips through simulate
   with the exact same total shift count.
2. **Warm cache = zero compute**: a second byte-identical optimize
   request is answered from the content-keyed result cache — asserted via
   the server's own ``/v1/metrics`` (``pool.dispatches`` unchanged,
   ``serve.cache.hits`` advanced) rather than timing heuristics.
3. **Served == local**: every response of a burst of concurrent simulate
   requests for the same (trace, geometry) is bit-identical to the locally
   computed vectorized result (total, per-DBC shifts and worst access).
4. **Async jobs**: ``wait=false`` returns 202 + job id; polling reaches
   ``done`` with the same result payload.
5. **Clean shutdown**: ``/v1/shutdown`` exits the process with rc 0 and
   leaves no worker processes behind.

The server log lands at ``service-smoke-server.log`` (uploaded as a CI
artifact on failure).  Exit code 0 iff every gate holds.
"""

import concurrent.futures
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

LOG_PATH = Path("service-smoke-server.log")
NUM_ITEMS = 24
NUM_ACCESSES = 4000
SIM_BURST = 8

CONFIG = {"words_per_dbc": 8, "num_ports": 2, "policy": "lazy"}


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def gate(name: str, ok: bool, detail: str = "") -> None:
    status = "ok" if ok else "FAIL"
    print(f"[smoke] {name}: {status} {detail}".rstrip())
    if not ok:
        fail(f"{name} {detail}".rstrip())


def counter(metrics: dict, name: str) -> float:
    """Sum every labelled series of one counter in a metrics snapshot."""
    total = 0.0
    for key, value in (metrics.get("counters") or {}).items():
        if key == name or key.startswith(name + "{"):
            total += value
    return total


def main() -> int:
    cache_dir = tempfile.mkdtemp(prefix="repro-smoke-cache-")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    env["REPRO_CACHE_DIR"] = cache_dir
    LOG_PATH.unlink(missing_ok=True)

    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--pool-workers",
            "1",
            "--log",
            str(LOG_PATH),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        announce = json.loads(proc.stdout.readline())
        gate("announce", announce.get("event") == "listening", str(announce))
        port = announce["port"]

        from repro.serve.client import wait_for_server

        client = wait_for_server("127.0.0.1", port)

        # -- 1. upload → optimize → simulate → status -------------------
        rng = random.Random(2015)
        accesses = [
            (f"var{rng.randrange(NUM_ITEMS)}", rng.choice("RW"))
            for _ in range(NUM_ACCESSES)
        ]
        uploaded = client.upload_trace("smoke", accesses)
        trace_id = uploaded["trace_id"]
        gate(
            "upload",
            uploaded["num_accesses"] == NUM_ACCESSES
            and uploaded["num_items"] == NUM_ITEMS,
            trace_id[:12],
        )

        cold = client.optimize(trace_id, config=CONFIG)
        gate(
            "optimize-cold",
            cold["state"] == "done" and not cold["cached"],
            f"shifts={cold['result']['total_shifts']}",
        )
        job_status = client.job(cold["job_id"])
        gate("job-status", job_status["state"] == "done", cold["job_id"])

        metrics = client.metrics()
        dispatches_cold = counter(metrics, "pool.dispatches")
        hits_cold = counter(metrics, "serve.cache.hits")
        gate("pool-used-cold", dispatches_cold >= 1, f"{dispatches_cold:g}")

        # -- 2. identical request → pure cache hit ----------------------
        warm = client.optimize(trace_id, config=CONFIG)
        metrics = client.metrics()
        gate("optimize-warm-cached", bool(warm["cached"]))
        gate(
            "warm-zero-dispatch",
            counter(metrics, "pool.dispatches") == dispatches_cold,
            f"{counter(metrics, 'pool.dispatches'):g} == {dispatches_cold:g}",
        )
        gate(
            "warm-cache-hit-counted",
            counter(metrics, "serve.cache.hits") > hits_cold,
        )
        # A hit reports runtime 0.0 and a `cache: hit` marker by design;
        # the *answer* — placement and cost — must be byte-identical.
        gate(
            "warm-identical",
            warm["result"]["placement"] == cold["result"]["placement"]
            and warm["result"]["total_shifts"]
            == cold["result"]["total_shifts"],
            f"shifts={warm['result']['total_shifts']}",
        )
        gate(
            "warm-marked-hit",
            warm["result"]["details"].get("cache") == "hit",
        )

        # -- 3. concurrent simulate burst, bit-identical ----------------
        from repro.dwm.config import DWMConfig
        from repro.memory.batch_sim import simulate_vectorized
        from repro.trace.model import AccessTrace

        local_trace = AccessTrace(accesses, name="smoke")
        local_config = DWMConfig.for_items(
            NUM_ITEMS,
            words_per_dbc=CONFIG["words_per_dbc"],
            num_ports=CONFIG["num_ports"],
            port_policy=CONFIG["policy"],
        )
        placement_payload = cold["result"]["placement"]
        from repro.core.placement import Placement

        expected = simulate_vectorized(
            local_trace,
            local_config,
            Placement(
                {k: tuple(v) for k, v in placement_payload.items()}
            ),
        )
        with concurrent.futures.ThreadPoolExecutor(SIM_BURST) as pool:
            futures = [
                pool.submit(
                    client.simulate, trace_id, placement_payload, config=CONFIG
                )
                for _ in range(SIM_BURST)
            ]
            responses = [f.result() for f in futures]
        gate(
            "simulate-bit-identical",
            all(
                r["shifts"] == expected.shifts
                and r["per_dbc_shifts"] == list(expected.per_dbc_shifts)
                and r["max_access_shifts"] == expected.max_access_shifts
                for r in responses
            ),
            f"shifts={expected.shifts} "
            f"max_access_shifts={expected.max_access_shifts}",
        )

        # -- 4. async job path ------------------------------------------
        ticket = client.optimize(
            trace_id,
            method="random",
            config=CONFIG,
            kwargs={"seed": 7},
            wait=False,
        )
        gate("async-accepted", ticket["state"] in ("queued", "running"))
        finished = client.wait_for_job(ticket["job_id"], timeout=120)
        gate(
            "async-done",
            finished["state"] == "done",
            f"shifts={finished.get('result', {}).get('total_shifts')}",
        )

        # -- 5. clean shutdown ------------------------------------------
        client.shutdown()
        rc = proc.wait(timeout=30)
        gate("shutdown-rc", rc == 0, f"rc={rc}")
        print("[smoke] all gates passed")
        return 0
    finally:
        # SIGTERM first: the server tears down its pool workers (which
        # share our stderr pipe — a bare kill would orphan them and make
        # the read below block forever).
        stderr = ""
        if proc.poll() is None:
            proc.terminate()
        try:
            _, stderr = proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            try:
                _, stderr = proc.communicate(timeout=5)
            except subprocess.TimeoutExpired:
                pass
        if stderr:
            print(f"[smoke] server stderr:\n{stderr}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
