"""Long-running asyncio HTTP+JSON placement service.

One process, one event loop, three tiers:

* **Front door** — a hand-rolled HTTP/1.1 layer over
  ``asyncio.start_server`` (stdlib only, keep-alive, bounded bodies).
  Endpoints: trace upload (JSONL payload or binary ``.rtb``), optimize,
  simulate, job status, health, metrics, shutdown; see ``docs/SERVING.md``.
* **Admission + cache front** — every compute request passes the
  token-bucket/bounded-queue :class:`~repro.serve.admission.AdmissionController`
  (typed 429/503 rejections, never queueing beyond the bound), then the
  content-keyed :class:`~repro.analysis.cache.ResultCache` is consulted on
  the event loop so warm traffic is answered without touching a thread or
  a worker.
* **Compute** — cold work runs in a small thread executor: each cold
  simulate is one executor call that scans its placement over the trace's
  dense arrays; optimize jobs are dispatched from there to the persistent
  :class:`~repro.analysis.pool.WorkerPool` (``pool_workers > 0``), falling
  back to in-process execution along the ``map`` degradation chain when
  the pool is unreachable.  The staged
  :func:`~repro.core.api.resolve_placement` /
  :func:`~repro.core.api.plan_placement` /
  :func:`~repro.core.api.execute_plan` split means every request that
  names an uploaded trace shares the dense arrays it built at upload.

Shutdown reuses the toolkit-wide guarantees: ``repro serve`` installs
:func:`repro.robust.install_sigterm_handler`, so SIGTERM lands in the same
KeyboardInterrupt path as Ctrl-C — admission drains (typed 503s, no
hangs), worker pools are torn down, and the CLI exits 130 with no orphan
processes (asserted by the chaos-style teardown checks in
``tests/test_serve.py`` and ``scripts/service_load_check.py``).  An
optimize job sends its trace to the pool as the resolved arrays
(``AccessTrace.__reduce__``), not as per-access records.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.obs import get_registry
from repro.robust import record_degradation
from repro.serve.admission import AdmissionController
from repro.serve.protocol import (
    BadRequest,
    NotFound,
    Overloaded,
    ServeError,
    config_from_payload,
    error_payload,
    placement_from_payload,
    result_to_payload,
    sim_result_to_payload,
    simulate_key,
)
from repro.trace.model import Access, AccessKind, AccessTrace
from repro.util import atomic_write_bytes

__all__ = ["PlacementServer", "ServerSettings"]

#: HTTP reason phrases for the statuses the service emits.
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Longest request or header line accepted, in bytes (longer: typed 400).
_MAX_LINE_BYTES = 16 * 1024

#: Compute endpoints these latency histograms are kept for.
_TRACKED_ENDPOINTS = (
    "traces",
    "optimize",
    "simulate",
    "jobs",
    "metrics",
    "healthz",
    "shutdown",
)


@dataclass
class ServerSettings:
    """Operational knobs of one :class:`PlacementServer` instance."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Persistent pool size for optimize jobs; 0 = compute in-process.
    pool_workers: int = 0
    #: Token-bucket rate (requests/second); ``None`` disables rate limiting.
    rate: float | None = None
    burst: float | None = None
    #: Bound on admitted-but-unfinished compute requests (the 503 gate).
    max_queue: int = 64
    #: Uploaded-trace registry bound (typed 503 beyond it).
    max_traces: int = 1024
    #: Completed-job history bound (oldest finished jobs evicted).
    max_jobs: int = 1024
    max_body_bytes: int = 64 * 1024 * 1024
    idle_timeout: float = 60.0
    #: Directory for spooled ``.rtb`` uploads (default: temp dir).
    spool_dir: str | None = None
    #: JSONL server log path (default: no file log).
    log_path: str | None = None


@dataclass
class _TraceRecord:
    trace_id: str
    trace: object  # AccessTrace | StreamingTrace
    kind: str  # "jsonl" | "rtb"
    name: str
    num_accesses: int
    num_items: int


@dataclass
class _Job:
    job_id: str
    endpoint: str
    trace_id: str
    method: str
    state: str = "queued"  # queued | running | done | failed | shed
    error: str | None = None
    cached: bool = False
    result_payload: dict | None = None
    done_event: asyncio.Event = field(default_factory=asyncio.Event)

    def finish(self, state: str, *, error: str | None = None) -> None:
        self.state = state
        self.error = error
        get_registry().inc("serve.jobs", state=state)
        self.done_event.set()

    def status_payload(self) -> dict:
        payload = {
            "job_id": self.job_id,
            "state": self.state,
            "endpoint": self.endpoint,
            "trace_id": self.trace_id,
            "method": self.method,
            "cached": self.cached,
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.result_payload is not None:
            payload["result"] = self.result_payload
        return payload


@dataclass
class _Request:
    method: str
    path: str
    headers: dict
    body: bytes


def _optimize_local(trace, config, method: str, kwargs: dict):
    """Staged in-process optimize (no cache hooks — the server fronts it)."""
    from repro.core.api import (
        execute_plan,
        optimize_placement,
        plan_placement,
        resolve_placement,
    )

    if not isinstance(trace, AccessTrace):
        # Streaming traces go through the sampling path of the monolith.
        return optimize_placement(trace, config, method=method, **kwargs)
    problem = resolve_placement(trace, config)
    plan = plan_placement(problem, method, **kwargs)
    return execute_plan(problem, plan)


def _pool_optimize(payload):
    """Worker-side optimize task (module-level, picklable)."""
    trace, config, method, kwargs = payload
    return _optimize_local(trace, config, method, kwargs)


class PlacementServer:
    """The placement-as-a-service front door.  See the module docstring.

    Lifecycle: construct, then either :meth:`run` (blocking; installs
    itself on a fresh event loop — the CLI path) or drive
    :meth:`wait_until_listening` / :meth:`request_shutdown` from another
    thread (the test-harness path).
    """

    def __init__(self, cache=None, **settings) -> None:
        self.settings = ServerSettings(**settings)
        self.cache = cache
        self.port: int | None = None
        self._traces: dict[str, _TraceRecord] = {}
        self._jobs: dict[str, _Job] = {}
        self._connections: set = set()
        self._job_ids = itertools.count(1)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._shutdown_event: asyncio.Event | None = None
        self._listening = threading.Event()
        self._stopped = threading.Event()
        self._closing = False
        self._torn_down = False
        self._log_handle = None
        self._spool: Path | None = None
        self._spool_is_temp = False
        self.admission = AdmissionController(
            rate=self.settings.rate,
            burst=self.settings.burst,
            max_queue=self.settings.max_queue,
        )
        # Two threads run cold simulates, optimize jobs and .rtb ingest, so
        # one long pass does not hold up the next request.  Heavy
        # parallelism lives in the worker pool, not here.
        self._executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-serve"
        )

    # ------------------------------------------------------------------
    # Logging
    # ------------------------------------------------------------------
    def _log(self, event: str, **fields) -> None:
        if self._log_handle is None:
            return
        entry = {"ts": round(time.time(), 3), "event": event}
        entry.update(fields)
        try:
            self._log_handle.write(json.dumps(entry, sort_keys=True) + "\n")
            self._log_handle.flush()
        except OSError:  # pragma: no cover - log disk full
            pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and initialise the service tiers."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        if self.settings.log_path:
            self._log_handle = open(
                self.settings.log_path, "a", encoding="utf-8"
            )
        if self.settings.spool_dir:
            self._spool = Path(self.settings.spool_dir)
            self._spool.mkdir(parents=True, exist_ok=True)
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.settings.host,
            port=self.settings.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        get_registry().gauge("serve.listening", 1)
        self._log(
            "listening",
            host=self.settings.host,
            port=self.port,
            pool_workers=self.settings.pool_workers,
        )
        self._listening.set()

    async def serve_until_shutdown(self) -> None:
        """Block until a shutdown is requested, then close gracefully."""
        assert self._shutdown_event is not None
        await self._shutdown_event.wait()
        await self.aclose()

    def run(self) -> None:
        """Blocking entry point: start, serve, tear down.

        A ``KeyboardInterrupt`` (which SIGTERM is routed into by
        :func:`repro.robust.install_sigterm_handler`) propagates to the
        caller *after* the synchronous teardown in ``finally`` — worker
        pools closed, queued jobs shed — so the CLI's interrupt handler
        only has idempotent work left.
        """
        try:
            asyncio.run(self._main())
        finally:
            self._teardown_sync()
            self._stopped.set()

    async def _main(self) -> None:
        await self.start()
        await self.serve_until_shutdown()

    def wait_until_listening(self, timeout: float = 10.0) -> int:
        """Cross-thread: wait for the bound port (raises on timeout)."""
        if not self._listening.wait(timeout):
            raise TimeoutError("server did not start listening in time")
        assert self.port is not None
        return self.port

    def request_shutdown(self) -> None:
        """Thread-safe graceful-shutdown trigger."""
        self._closing = True
        self.admission.drain()
        loop = self._loop
        if loop is not None and self._shutdown_event is not None:
            try:
                loop.call_soon_threadsafe(self._shutdown_event.set)
            except RuntimeError:
                pass  # loop already closed: the server is already down

    def wait_until_stopped(self, timeout: float = 30.0) -> bool:
        """Cross-thread: wait for :meth:`run` to finish its teardown."""
        return self._stopped.wait(timeout)

    async def aclose(self) -> None:
        """Graceful close: drain admission, finish admitted work, shed the queue."""
        self._closing = True
        self.admission.drain()
        if self._server is not None:
            self._server.close()
        # Give in-flight admitted work a bounded grace period, then force
        # the lingering connections shut so close cannot hang on an idle
        # keep-alive peer.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 10.0
        while self.admission.depth > 0 and loop.time() < deadline:
            await asyncio.sleep(0.02)
        for writer in list(self._connections):
            try:
                writer.close()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        if self._server is not None:
            try:
                await asyncio.wait_for(self._server.wait_closed(), timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover
                pass
        for job in self._jobs.values():
            if job.state == "queued":
                job.finish("shed", error="server shut down before execution")
        get_registry().gauge("serve.listening", 0)
        self._log("closed")

    def _teardown_sync(self) -> None:
        """Idempotent hard teardown shared by every exit path.

        Mirrors the CLI interrupt handler (pool shutdown) so
        ``repro serve`` keeps the no-orphans/no-leaks guarantee even when
        SIGTERM lands mid-request; the CLI handler re-runs the same calls
        harmlessly afterwards.
        """
        if self._torn_down:
            return
        self._torn_down = True
        self._closing = True
        self.admission.drain()
        self._executor.shutdown(wait=False, cancel_futures=True)
        from repro.analysis.pool import shutdown_pools

        shutdown_pools()
        for job in self._jobs.values():
            if job.state in ("queued", "running"):
                job.state = "shed"
                job.error = "server shut down before completion"
        self._log("teardown")
        if self._log_handle is not None:
            try:
                self._log_handle.close()
            except OSError:  # pragma: no cover
                pass
            self._log_handle = None
        if self._spool_is_temp and self._spool is not None:
            import shutil

            shutil.rmtree(self._spool, ignore_errors=True)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    @staticmethod
    async def _read_line(reader) -> bytes:
        """One request or header line, at most :data:`_MAX_LINE_BYTES`."""
        try:
            line = await reader.readline()
        except ValueError:  # longer than the stream's own buffer limit
            raise BadRequest("oversized request headers") from None
        if len(line) > _MAX_LINE_BYTES:
            raise BadRequest("oversized request headers")
        return line

    async def _read_request(self, reader) -> _Request | None:
        line = await self._read_line(reader)
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise BadRequest("malformed request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            raw = await self._read_line(reader)
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                return None
            if len(headers) > 64:
                raise BadRequest("oversized request headers")
            name, sep, value = raw.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise BadRequest("invalid content-length") from None
        if length < 0:
            raise BadRequest("invalid content-length")
        if length > self.settings.max_body_bytes:
            raise ServeError(
                f"request body of {length} bytes exceeds the "
                f"{self.settings.max_body_bytes}-byte limit",
                status=413,
                code="too_large",
            )
        body = await reader.readexactly(length) if length else b""
        return _Request(method.upper(), target, headers, body)

    @staticmethod
    def _render_response(status: int, payload: dict, keep_alive: bool) -> bytes:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "Server: repro-serve\r\n"
            "\r\n"
        )
        return head.encode("latin-1") + body

    async def _handle_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader),
                        timeout=self.settings.idle_timeout,
                    )
                except asyncio.TimeoutError:
                    break
                except ServeError as exc:
                    writer.write(
                        self._render_response(
                            exc.status, error_payload(exc), False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = (
                    request.headers.get("connection", "keep-alive").lower()
                    != "close"
                    and not self._closing
                )
                status, payload = await self._dispatch(request)
                if self._closing:
                    # A shutdown request (possibly this one) landed while
                    # we were handling: close after the response.
                    keep_alive = False
                writer.write(
                    self._render_response(status, payload, keep_alive)
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _dispatch(self, request: _Request) -> tuple[int, dict]:
        registry = get_registry()
        endpoint = self._endpoint_of(request.path)
        registry.inc("serve.requests", endpoint=endpoint, method=request.method)
        start = time.perf_counter()
        try:
            status, payload = await self._route(request)
        except ServeError as exc:
            status, payload = exc.status, error_payload(exc)
        except ReproError as exc:
            wrapped = BadRequest(str(exc))
            status, payload = wrapped.status, error_payload(wrapped)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self._log("internal-error", error=f"{type(exc).__name__}: {exc}")
            wrapped = ServeError(f"{type(exc).__name__}: {exc}")
            status, payload = wrapped.status, error_payload(wrapped)
        elapsed = time.perf_counter() - start
        if endpoint in _TRACKED_ENDPOINTS:
            registry.observe(
                "serve.latency.seconds", elapsed, endpoint=endpoint
            )
        registry.inc("serve.responses", status=status)
        self._log(
            "request",
            method=request.method,
            path=request.path,
            status=status,
            seconds=round(elapsed, 6),
        )
        return status, payload

    @staticmethod
    def _endpoint_of(path: str) -> str:
        parts = [part for part in path.split("?")[0].split("/") if part]
        if not parts:
            return "root"
        if parts[0] == "v1" and len(parts) > 1:
            return parts[1]
        return parts[0]

    async def _route(self, request: _Request) -> tuple[int, dict]:
        parts = [p for p in request.path.split("?")[0].split("/") if p]
        method = request.method
        if parts == ["healthz"] and method == "GET":
            return 200, self._health_payload()
        if parts == ["v1", "metrics"] and method == "GET":
            return 200, get_registry().snapshot()
        if parts == ["v1", "traces"] and method == "POST":
            return await self._handle_upload(request)
        if len(parts) == 3 and parts[:2] == ["v1", "traces"] and method == "GET":
            return 200, self._trace_info(parts[2])
        if parts == ["v1", "optimize"] and method == "POST":
            return await self._handle_optimize(request)
        if parts == ["v1", "simulate"] and method == "POST":
            return await self._handle_simulate(request)
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"] and method == "GET":
            return 200, self._job_status(parts[2])
        if parts == ["v1", "shutdown"] and method == "POST":
            self.request_shutdown()
            return 200, {"status": "shutting-down"}
        raise NotFound(f"no route for {method} {request.path}")

    # ------------------------------------------------------------------
    # Simple endpoints
    # ------------------------------------------------------------------
    def _health_payload(self) -> dict:
        return {
            "status": "draining" if self._closing else "ok",
            "traces": len(self._traces),
            "jobs": len(self._jobs),
            "queue_depth": self.admission.depth,
            "pool_workers": self.settings.pool_workers,
        }

    def _trace_record(self, trace_id: str | None) -> _TraceRecord:
        if not trace_id:
            raise BadRequest("missing trace_id")
        record = self._traces.get(trace_id)
        if record is None:
            raise NotFound(f"unknown trace {trace_id!r}")
        return record

    def _trace_info(self, trace_id: str) -> dict:
        record = self._trace_record(trace_id)
        return {
            "trace_id": record.trace_id,
            "name": record.name,
            "kind": record.kind,
            "num_accesses": record.num_accesses,
            "num_items": record.num_items,
        }

    def _job_status(self, job_id: str) -> dict:
        job = self._jobs.get(job_id)
        if job is None:
            raise NotFound(f"unknown job {job_id!r}")
        return job.status_payload()

    @staticmethod
    def _json_body(request: _Request) -> dict:
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------
    # Trace upload
    # ------------------------------------------------------------------
    async def _handle_upload(self, request: _Request) -> tuple[int, dict]:
        content_type = request.headers.get("content-type", "application/json")
        if content_type.split(";")[0].strip() in (
            "application/octet-stream",
            "application/x-rtb",
        ):
            record, reused = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._ingest_rtb, request
            )
        else:
            record, reused = self._ingest_jsonl(request)
        return 200, {
            "trace_id": record.trace_id,
            "name": record.name,
            "kind": record.kind,
            "num_accesses": record.num_accesses,
            "num_items": record.num_items,
            "reused": reused,
        }

    def _register(self, record: _TraceRecord) -> tuple[_TraceRecord, bool]:
        existing = self._traces.get(record.trace_id)
        if existing is not None:
            # Same content already uploaded: keep the existing object so
            # its resolved arrays (and cache keys) stay shared.
            get_registry().inc("serve.traces.reused")
            return existing, True
        if len(self._traces) >= self.settings.max_traces:
            raise Overloaded(
                f"trace registry full ({self.settings.max_traces} traces)"
            )
        self._traces[record.trace_id] = record
        get_registry().inc("serve.traces.uploaded", kind=record.kind)
        return record, False

    def _ingest_jsonl(self, request: _Request) -> tuple[_TraceRecord, bool]:
        payload = self._json_body(request)
        accesses_raw = payload.get("accesses")
        if not isinstance(accesses_raw, list) or not accesses_raw:
            raise BadRequest("upload needs a non-empty 'accesses' list")
        name = str(payload.get("name", "uploaded"))
        try:
            accesses = [
                Access(str(entry[0]), AccessKind.parse(entry[1]))
                for entry in accesses_raw
            ]
        except (IndexError, TypeError, ReproError, ValueError) as exc:
            raise BadRequest(f"invalid access entry: {exc}") from exc
        trace = AccessTrace(accesses, name=name)
        record = _TraceRecord(
            trace_id=trace.fingerprint(),
            trace=trace,
            kind="jsonl",
            name=name,
            num_accesses=len(trace),
            num_items=trace.num_items,
        )
        return self._register(record)

    def _ingest_rtb(self, request: _Request) -> tuple[_TraceRecord, bool]:
        from repro.trace.binio import open_binary

        if not request.body:
            raise BadRequest("empty .rtb upload")
        if self._spool is None:
            import tempfile

            self._spool = Path(tempfile.mkdtemp(prefix="repro-serve-spool-"))
            self._spool_is_temp = True
        import hashlib

        digest = hashlib.sha256(request.body).hexdigest()
        path = self._spool / f"{digest}.rtb"
        if not path.exists():
            # Each writer gets its own temp file: concurrent uploads of one
            # body must not truncate or rename each other's.
            atomic_write_bytes(path, request.body, fsync=False)
        try:
            trace = open_binary(path)
        except ReproError as exc:
            try:
                os.remove(path)
            except OSError:
                pass
            raise BadRequest(f"invalid .rtb payload: {exc}") from exc
        record = _TraceRecord(
            trace_id=trace.fingerprint(),
            trace=trace,
            kind="rtb",
            name=trace.name,
            num_accesses=len(trace),
            num_items=trace.num_items,
        )
        return self._register(record)

    # ------------------------------------------------------------------
    # Optimize
    # ------------------------------------------------------------------
    async def _handle_optimize(self, request: _Request) -> tuple[int, dict]:
        body = self._json_body(request)
        record = self._trace_record(body.get("trace_id"))
        method = str(body.get("method", "heuristic"))
        wait = bool(body.get("wait", True))
        kwargs = body.get("kwargs") or {}
        if not isinstance(kwargs, dict):
            raise BadRequest("'kwargs' must be a JSON object")
        config = config_from_payload(
            body.get("config"), num_items=record.num_items
        )
        registry = get_registry()
        ticket = self.admission.admit("optimize")
        job = self._new_job("optimize", record.trace_id, method)
        try:
            cached = None
            if self.cache is not None:
                cached = self.cache.lookup_placement(
                    record.trace, config, method, kwargs
                )
            if cached is not None:
                registry.inc("serve.cache.hits", endpoint="optimize")
                job.cached = True
                job.result_payload = result_to_payload(cached)
                job.finish("done")
                ticket.release()
                return 200, job.status_payload()
            registry.inc("serve.cache.misses", endpoint="optimize")
        except BaseException:
            ticket.release()
            job.finish("failed", error="admission/cache stage failed")
            raise
        loop = asyncio.get_running_loop()

        async def _run_job() -> None:
            job.state = "running"
            try:
                result = await loop.run_in_executor(
                    self._executor,
                    self._compute_optimize_sync,
                    record,
                    config,
                    method,
                    kwargs,
                )
            except Exception as exc:  # noqa: BLE001 - reported via job state
                job.finish("failed", error=f"{type(exc).__name__}: {exc}")
            else:
                job.result_payload = result_to_payload(result)
                job.finish("done")
            finally:
                ticket.release()

        task = loop.create_task(_run_job())
        if not wait:
            return 202, job.status_payload()
        await task
        await job.done_event.wait()
        status = 200 if job.state == "done" else 500
        if job.state == "failed" and job.error and (
            "CapacityError" in job.error or "OptimizationError" in job.error
        ):
            status = 400
        return status, job.status_payload()

    def _new_job(self, endpoint: str, trace_id: str, method: str) -> _Job:
        job = _Job(
            job_id=f"job-{next(self._job_ids):06d}",
            endpoint=endpoint,
            trace_id=trace_id,
            method=method,
        )
        self._jobs[job.job_id] = job
        self._evict_jobs()
        return job

    def _evict_jobs(self) -> None:
        overflow = len(self._jobs) - self.settings.max_jobs
        if overflow <= 0:
            return
        for job_id in list(self._jobs):
            if overflow <= 0:
                break
            if self._jobs[job_id].state in ("done", "failed", "shed"):
                del self._jobs[job_id]
                overflow -= 1

    def _compute_optimize_sync(self, record, config, method, kwargs):
        """Cold-path optimize: pool dispatch with in-process fallback."""
        trace = record.trace
        if self.settings.pool_workers > 0:
            from repro.analysis.pool import (
                PoolCrashError,
                PoolDispatchError,
                get_pool,
            )

            try:
                pool = get_pool(self.settings.pool_workers)
                result = pool.run(
                    _pool_optimize,
                    [(trace, config, method, dict(kwargs))],
                    propagate=True,
                )[0]
            except (PoolDispatchError, PoolCrashError) as exc:
                record_degradation(
                    "map",
                    "pooled",
                    "serial",
                    f"{type(exc).__name__}: {exc}",
                    warn=False,
                )
                result = _optimize_local(trace, config, method, kwargs)
        else:
            result = _optimize_local(trace, config, method, kwargs)
        if self.cache is not None:
            self.cache.store_placement(trace, config, method, kwargs, result)
        return result

    # ------------------------------------------------------------------
    # Simulate
    # ------------------------------------------------------------------
    async def _handle_simulate(self, request: _Request) -> tuple[int, dict]:
        body = self._json_body(request)
        record = self._trace_record(body.get("trace_id"))
        placement_payload = body.get("placement")
        if not isinstance(placement_payload, dict) or not placement_payload:
            raise BadRequest("simulate needs a non-empty 'placement' object")
        config = config_from_payload(
            body.get("config"), num_items=record.num_items
        )
        placement = placement_from_payload(placement_payload)
        # Validate on the event loop so a bad placement gets its typed 400
        # before it takes an admission slot or an executor thread.
        placement.validate(config, record.trace.items)
        registry = get_registry()
        ticket = self.admission.admit("simulate")
        try:
            key = simulate_key(
                record.trace.fingerprint(), config, placement_payload
            )
            if self.cache is not None:
                hit = self.cache.get(key)
                if hit is not None and isinstance(hit.get("sim"), dict):
                    registry.inc("serve.cache.hits", endpoint="simulate")
                    payload = dict(hit["sim"])
                    details = dict(payload.get("details") or {})
                    details["cache"] = "hit"
                    payload["details"] = details
                    return 200, payload
            registry.inc("serve.cache.misses", endpoint="simulate")
            payload = await asyncio.get_running_loop().run_in_executor(
                self._executor,
                self._simulate_sync,
                record,
                config,
                placement,
                key,
            )
            return 200, payload
        finally:
            ticket.release()

    def _simulate_sync(self, record, config, placement, cache_key) -> dict:
        """One cold simulate: a scan over the trace's cached resolution
        (or a streaming pass over a ``.rtb``), stored in the cache."""
        trace = record.trace
        if isinstance(trace, AccessTrace):
            from repro.memory.batch_sim import simulate_vectorized

            result = simulate_vectorized(trace, config, placement, validate=False)
        else:
            from repro.memory.stream_sim import simulate_streaming

            result = simulate_streaming(trace, config, placement, validate=False)
        payload = sim_result_to_payload(result)
        if self.cache is not None:
            self.cache.put(cache_key, {"schema": 1, "sim": payload})
            get_registry().inc("serve.cache.stores", endpoint="simulate")
        return payload


def announce_payload(server: PlacementServer) -> dict:
    """The one-line JSON announcement the CLI prints once listening."""
    return {
        "event": "listening",
        "host": server.settings.host,
        "port": server.port,
        "pool_workers": server.settings.pool_workers,
        "endpoints": [
            "/healthz",
            "/v1/metrics",
            "/v1/traces",
            "/v1/optimize",
            "/v1/simulate",
            "/v1/jobs/<id>",
            "/v1/shutdown",
        ],
    }
