"""Persistent worker-pool runtime behind the parallel primitives.

The original orchestration layer paid process-spawn plus full task-pickle
costs *per task attempt* — measured at E19 scale, more than the tasks
themselves, which is how a ``--jobs 4`` sweep clocked a 0.42× "speedup".
This module keeps a pool of long-lived workers per ``(start method, size)``
and feeds them over duplex pipes.  A task that carries an
:class:`~repro.trace.model.AccessTrace` pickles it as its resolved arrays
(about 9 bytes per access, ``AccessTrace.__reduce__``), so a trace costs a
task well under a millisecond per 10^5 accesses each way.

Scheduling preserves the documented :func:`repro.analysis.parallel`
semantics on top of persistence:

* **order** — results land at their task's index regardless of completion
  order;
* **timeouts** — a worker whose task exceeds its deadline is terminated
  (a hung task cannot be cancelled cooperatively) and replaced with a
  fresh worker; the task retries elsewhere if it has budget left;
* **retries** — failed attempts back off exponentially and re-dispatch,
  always to a live worker (a crashed worker never sees the task again);
* **failure isolation** — exhausted tasks yield
  :class:`~repro.analysis.parallel.TaskFailure` records in place;
* **checkpointing** — ``on_result`` fires in the parent per success, so
  journals see completions exactly as before;
* **placement** — each worker of a pool of 2 to (allowed CPUs) workers is
  pinned to its own allowed CPU, and a replacement takes the CPU its dead
  worker freed.  A pipe send wakes its reader with a synchronous hint, so
  unpinned workers are queued on the parent's CPU and a batch of equal
  tasks runs one after another; one-worker and oversubscribed pools are
  left unpinned.

Two failure channels deliberately escape to the caller:
:class:`PoolDispatchError` (the function or a task cannot be pickled into
workers — the caller falls back to serial, loudly) and
:class:`PoolCrashError` in propagate mode (a worker died under a
plain ``parallel_map``, which has no retry budget).  Any other unexpected
exception — ``KeyboardInterrupt`` foremost — tears the pool down before
propagating so no workers outlive the batch.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
from collections import deque

from repro.chaos import failpoint
from repro.obs import get_registry

#: Grace period when retiring workers before escalating to SIGKILL.
_JOIN_TIMEOUT = 5.0


class PoolDispatchError(RuntimeError):
    """The task function or a task payload cannot reach pool workers."""


class PoolCrashError(RuntimeError):
    """A pool worker died mid-task in propagate (no-retry) mode."""


def _encode_error(exc: BaseException):
    """The exception itself when picklable, else its rendered message."""
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return f"{type(exc).__name__}: {exc}"


def _pool_worker_main(conn) -> None:
    """Worker body: loop over (index, fn, task) messages until sentinel."""
    from repro.analysis.parallel import _worker_init

    _worker_init()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        index, fn, task = message
        try:
            failpoint("pool.task")
            payload = ("ok", index, fn(task))
        except BaseException as exc:  # noqa: BLE001 - reported to parent
            payload = ("err", index, _encode_error(exc))
        try:
            conn.send(payload)
        except Exception:
            # Unpicklable *result*: report the failure instead of dying
            # (dying would read as a crash and burn a retry for nothing).
            try:
                conn.send(
                    ("err", index, f"task #{index} returned an unpicklable result")
                )
            except Exception:
                break
    try:
        conn.close()
    except Exception:
        pass


class _Worker:
    __slots__ = ("proc", "conn", "deadline")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.deadline: float | None = None


class WorkerPool:
    """A fixed-size pool of persistent worker processes."""

    def __init__(self, size: int, start_method: str) -> None:
        import multiprocessing

        self.size = size
        self.start_method = start_method
        self._ctx = multiprocessing.get_context(start_method)
        self._workers: dict[int, _Worker] = {}
        self._next_wid = 0
        self._closed = False
        from repro.analysis.parallel import allowed_cpus

        cpus = allowed_cpus()
        pinnable = hasattr(os, "sched_setaffinity") and 2 <= size <= len(cpus)
        self._cpus = cpus if pinnable else []
        self._cpu_of: dict[int, int] = {}
        for _ in range(size):
            self._spawn()

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def _spawn(self) -> int:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # Stamp the chaos generation before creating the process so the
        # child (fork or spawn) sees its own spawn index — kill failpoints
        # use it to avoid crash-looping replacement workers.
        from repro.chaos import GENERATION_ENV

        os.environ[GENERATION_ENV] = str(self._next_wid)
        proc = self._ctx.Process(
            target=_pool_worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        os.environ.pop(GENERATION_ENV, None)
        child_conn.close()
        wid = self._next_wid
        self._next_wid += 1
        self._workers[wid] = _Worker(proc, parent_conn)
        self._pin(wid, proc.pid)
        get_registry().inc("pool.workers.spawned")
        return wid

    def _pin(self, wid: int, pid: int) -> None:
        """Pin a new worker to the first allowed CPU no live worker holds."""
        taken = set(self._cpu_of.values())
        for cpu in self._cpus:
            if cpu not in taken:
                try:
                    os.sched_setaffinity(pid, {cpu})
                except OSError:
                    return
                self._cpu_of[wid] = cpu
                return

    def _retire(self, wid: int, terminate: bool = False) -> None:
        self._cpu_of.pop(wid, None)
        worker = self._workers.pop(wid, None)
        if worker is None:
            return
        try:
            worker.conn.close()
        except Exception:
            pass
        if terminate and worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join(timeout=_JOIN_TIMEOUT if terminate else 0.5)
        if worker.proc.is_alive():  # pragma: no cover - stubborn worker
            worker.proc.kill()
            worker.proc.join(timeout=1.0)
        get_registry().inc("pool.workers.retired")

    def _ensure_workers(self) -> None:
        """Replace workers that died between runs; top up to ``size``."""
        for wid in list(self._workers):
            if not self._workers[wid].proc.is_alive():
                self._retire(wid)
        while len(self._workers) < self.size:
            self._spawn()

    def close(self, terminate: bool = False) -> None:
        """Shut every worker down (graceful sentinel unless ``terminate``)."""
        if self._closed:
            return
        self._closed = True
        if not terminate:
            for worker in self._workers.values():
                try:
                    worker.conn.send(None)
                except Exception:
                    pass
        for wid in list(self._workers):
            self._retire(wid, terminate=terminate)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, wid: int, fn, task, index: int, timeout) -> int:
        """Send one task; returns the worker id actually used.

        A worker found dead at send time is replaced transparently (the
        task has not run anywhere yet, so this costs no retry budget).
        """
        for attempt in range(2):
            worker = self._workers[wid]
            try:
                failpoint("pool.dispatch")
                worker.conn.send((index, fn, task))
                worker.deadline = (
                    time.monotonic() + timeout if timeout is not None else None
                )
                return wid
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                raise PoolDispatchError(f"{type(exc).__name__}: {exc}") from exc
            except OSError as exc:
                self._retire(wid)
                if attempt:
                    raise PoolDispatchError(
                        f"cannot reach pool workers: {exc}"
                    ) from exc
                wid = self._spawn()
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def run(
        self,
        fn,
        tasks: list,
        *,
        timeout: float | None = None,
        retries: int = 0,
        backoff_seconds: float = 0.05,
        on_result=None,
        propagate: bool = False,
    ) -> list:
        """Execute ``tasks`` on the pool; see the module docstring.

        With ``propagate=True`` (the ``parallel_map`` contract) the first
        failing task's exception is re-raised after the batch drains;
        otherwise failures become :class:`TaskFailure` records honouring
        ``retries``/``timeout``/``backoff_seconds``.
        """
        from multiprocessing.connection import wait as _wait

        from repro.analysis.parallel import TaskFailure

        registry = get_registry()
        n = len(tasks)
        results: list = [None] * n
        if n == 0:
            return results
        self._ensure_workers()
        pending: deque[int] = deque(range(n))
        ready_at: dict[int, float] = {}
        attempts: dict[int, int] = {}
        errors: dict[int, BaseException] = {}
        inflight: dict[int, int] = {}
        idle: deque[int] = deque(self._workers)
        completed = 0

        def record_failure(index: int, kind: str, payload) -> None:
            nonlocal completed
            attempts[index] = attempts.get(index, 0) + 1
            if propagate:
                if isinstance(payload, BaseException):
                    errors[index] = payload
                elif kind == "crash":
                    errors[index] = PoolCrashError(str(payload))
                else:
                    errors[index] = RuntimeError(str(payload))
                completed += 1
                return
            if attempts[index] > retries:
                message = (
                    payload
                    if isinstance(payload, str)
                    else f"{type(payload).__name__}: {payload}"
                )
                results[index] = TaskFailure(
                    index=index,
                    error=message,
                    attempts=attempts[index],
                    kind=kind,
                )
                registry.inc("resilient.failures", kind=kind)
                completed += 1
            else:
                registry.inc("resilient.retries")
                ready_at[index] = time.monotonic() + backoff_seconds * (
                    2 ** (attempts[index] - 1)
                )
                pending.append(index)

        try:
            while completed < n:
                now = time.monotonic()
                for _ in range(len(pending)):
                    if not idle:
                        break
                    index = pending.popleft()
                    if ready_at.get(index, 0.0) > now:
                        pending.append(index)
                        continue
                    wid = idle.popleft()
                    wid = self._dispatch(wid, fn, tasks[index], index, timeout)
                    inflight[wid] = index
                    registry.inc("pool.dispatches")
                if completed >= n:
                    break
                if not inflight:
                    if pending:
                        soonest = min(
                            ready_at.get(index, 0.0) for index in pending
                        )
                        time.sleep(max(0.0, soonest - time.monotonic()))
                        continue
                    break  # pragma: no cover - defensive
                wait_timeout = 0.1
                deadlines = [
                    self._workers[wid].deadline
                    for wid in inflight
                    if self._workers[wid].deadline is not None
                ]
                if deadlines:
                    wait_timeout = max(
                        0.0, min(wait_timeout, min(deadlines) - now)
                    )
                conn_map = {
                    self._workers[wid].conn: wid for wid in inflight
                }
                for conn in _wait(list(conn_map), timeout=wait_timeout):
                    wid = conn_map[conn]
                    index = inflight.pop(wid)
                    try:
                        tag, _task_id, payload = conn.recv()
                    except (EOFError, OSError):
                        self._retire(wid)
                        idle.append(self._spawn())
                        record_failure(
                            index, "crash", "worker exited without a result"
                        )
                        continue
                    idle.append(wid)
                    if tag == "ok":
                        results[index] = payload
                        completed += 1
                        if not propagate:
                            registry.inc("resilient.tasks", mode="pool")
                        if on_result is not None:
                            on_result(index, payload)
                    else:
                        record_failure(index, "error", payload)
                now = time.monotonic()
                for wid in list(inflight):
                    worker = self._workers[wid]
                    if worker.deadline is not None and now >= worker.deadline:
                        index = inflight.pop(wid)
                        self._retire(wid, terminate=True)
                        idle.append(self._spawn())
                        record_failure(
                            index,
                            "timeout",
                            f"exceeded task timeout of {timeout:g}s",
                        )
                    elif not worker.proc.is_alive() and not worker.conn.poll():
                        index = inflight.pop(wid)
                        self._retire(wid)
                        idle.append(self._spawn())
                        record_failure(
                            index, "crash", "worker exited without a result"
                        )
        except PoolDispatchError:
            # Workers still chewing on in-flight tasks are replaced; the
            # caller reruns the batch serially, so their results are moot.
            for wid in list(inflight):
                self._retire(wid, terminate=True)
            self._ensure_workers()
            raise
        except BaseException:
            # Interrupt or an unexpected scheduler error: tear the pool
            # down hard so no worker or in-flight task outlives the batch.
            self.close(terminate=True)
            raise
        if propagate and errors:
            raise errors[min(errors)]
        return results


# ---------------------------------------------------------------------------
# Pool registry
# ---------------------------------------------------------------------------

_POOLS: dict[tuple[str, int], WorkerPool] = {}


def get_pool(jobs: int) -> WorkerPool:
    """The persistent pool for the current start method and ``jobs``."""
    from repro.analysis.parallel import _pool_start_method

    method = _pool_start_method()
    key = (method, jobs)
    pool = _POOLS.get(key)
    if pool is None or pool.closed:
        pool = WorkerPool(jobs, method)
        _POOLS[key] = pool
        get_registry().gauge("pool.active", len(_POOLS))
    return pool


def shutdown_pools() -> int:
    """Close every registered pool; returns how many were open."""
    count = 0
    for pool in list(_POOLS.values()):
        if not pool.closed:
            pool.close()
            count += 1
    _POOLS.clear()
    return count


atexit.register(shutdown_pools)
