"""Process-pool orchestration for sweeps, DSE grids and experiments.

The experiment harness is embarrassingly parallel: every sweep cell, DSE
design point and experiment is an independent pure function of its inputs.
This module provides the two primitives they share:

* :func:`parallel_map` — an order-preserving map over the persistent
  worker pool (:mod:`repro.analysis.pool`) with a serial fast path.
  Pool-infrastructure failures degrade to a serial rerun with a *loud*
  one-time :class:`RuntimeWarning` naming the cause (a degraded run must
  be visible, not silent).
* :func:`resilient_map` — the fault-tolerant variant: per-task **timeout**
  (a hung worker is terminated and replaced), bounded **retries** with
  exponential backoff, and **failure isolation** — a task that keeps
  crashing, hanging or raising yields a :class:`TaskFailure` record in its
  result slot instead of killing the whole map.  Sibling tasks always run
  to completion.

Both primitives share one pool of long-lived workers per (start method,
job count), spawned on first use and reused across maps — tasks pay a
pipe send/recv, not a process spawn.  Traces ride in the tasks
themselves: an ``AccessTrace`` pickles as its resolved arrays, not as
per-access records, and a ``StreamingTrace`` as its path.

Shared policy: the job count resolves as ``--jobs`` flag > ``REPRO_JOBS``
env var > serial, capped at the number of CPUs the process may run on (a
one-time warning reports oversubscription), and the start method as
``REPRO_MP_START`` > fork > spawn.  Workers run with ``REPRO_JOBS=1`` so
a parallel experiment that internally calls a sweep does not fork a pool
per worker, and rebuild env-configured state (the placement cache) on
startup so the ``spawn`` start method behaves like ``fork``.

Determinism contract (both primitives): results come back in task order
regardless of worker scheduling, so parallel runs are byte-identical to
serial ones.
"""

from __future__ import annotations

import os
import signal
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from repro.errors import InjectedFaultError
from repro.obs import get_registry, trace_span

#: Environment variable consulted when no explicit ``jobs`` is given.
JOBS_ENV = "REPRO_JOBS"

#: Environment variable overriding the multiprocessing start method.
MP_START_ENV = "REPRO_MP_START"

#: Default exponential-backoff base between retry attempts (seconds).
DEFAULT_BACKOFF_SECONDS = 0.05

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")

#: One-time warning keys already emitted (see :func:`_warn_once`).
_WARNED: set[str] = set()


def _warn_once(key: str, message: str) -> None:
    """Emit ``message`` as a RuntimeWarning once per process per ``key``."""
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def _reset_warnings() -> None:
    """Forget emitted one-time warnings (test hook)."""
    _WARNED.clear()


@dataclass(frozen=True)
class TaskFailure:
    """Recorded outcome of a task that exhausted its retry budget.

    Appears in the result list at the failed task's index so sibling
    results keep their positions.  ``kind`` is ``"error"`` (the task
    raised), ``"timeout"`` (exceeded the per-task timeout) or ``"crash"``
    (the worker process died without reporting a result).
    """

    index: int
    error: str
    attempts: int
    kind: str = "error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"task #{self.index} failed after {self.attempts} attempt(s) "
            f"[{self.kind}]: {self.error}"
        )


def allowed_cpus() -> list[int]:
    """The CPUs this process may run on, ascending: its affinity mask
    where the platform reports one (``taskset``, cgroup cpusets), else
    every logical CPU."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _cpu_count() -> int:
    """Allowed CPU count (monkeypatchable seam for tests)."""
    return len(allowed_cpus())


def _cap_jobs(jobs: int, source: str) -> int:
    """Clamp ``jobs`` to the allowed CPU count, warning once on excess."""
    cap = _cpu_count()
    if jobs > cap:
        _warn_once(
            "resolve-jobs-cap",
            f"requested {jobs} jobs via {source} but the host has only "
            f"{cap} CPU(s); capping at {cap}",
        )
        return cap
    return jobs


def resolve_jobs(jobs: int | None = None) -> int:
    """Effective worker count: explicit argument > ``REPRO_JOBS`` > 1.

    The result is capped at the allowed CPU count — workers beyond
    that only add contention — with a one-time :class:`RuntimeWarning`
    naming the oversubscribing source.  Non-numeric or non-positive values
    resolve to 1 (serial) rather than erroring — the environment variable
    is a tuning knob, not an API — but a garbage value is reported once so
    a silently serial run is traceable.
    """
    if jobs is not None:
        return _cap_jobs(max(1, int(jobs)), "--jobs")
    raw = os.environ.get(JOBS_ENV, "").strip()
    if raw:
        try:
            return _cap_jobs(max(1, int(raw)), JOBS_ENV)
        except ValueError:
            _warn_once(
                "resolve-jobs",
                f"ignoring non-numeric {JOBS_ENV}={raw!r}; running serially",
            )
            return 1
    return 1


def _pool_start_method() -> str:
    """Start-method name: ``REPRO_MP_START`` > fork > spawn."""
    import multiprocessing

    method = os.environ.get(MP_START_ENV, "").strip()
    if method:
        return method
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


def _worker_init() -> None:
    """Per-worker setup: no nested pools; rebuild env-configured state.

    With the ``spawn`` start method workers begin from a fresh interpreter,
    so process-global state (like the placement cache installed by the CLI)
    must be reconstructed from the environment.
    """
    # A forked worker inherits the CLI's SIGTERM handler, whose
    # KeyboardInterrupt prints a traceback when the pool terminates it.
    if hasattr(signal, "SIGTERM"):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.environ[JOBS_ENV] = "1"
    from repro.analysis.cache import ensure_configured_from_env
    from repro.chaos import ensure_installed_from_env

    ensure_configured_from_env()
    ensure_installed_from_env()


def parallel_map(
    fn: Callable[[_Task], _Result],
    tasks: Iterable[_Task] | Sequence[_Task],
    jobs: int | None = None,
    chunksize: int = 1,
) -> list[_Result]:
    """Map ``fn`` over ``tasks``, preserving task order in the result list.

    Runs serially when the effective job count is 1 or there is at most one
    task; otherwise fans out over a process pool.  Pool-infrastructure
    failures (no forking allowed, unpicklable task, broken worker) degrade
    to a serial rerun — by construction ``fn`` is deterministic and
    side-effect-free here, so rerunning is safe — and emit a one-time
    :class:`RuntimeWarning` naming the cause, so a degraded run never
    passes for a parallel one silently.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    registry = get_registry()
    if jobs <= 1 or len(tasks) <= 1:
        registry.inc("parallel.tasks", len(tasks), mode="serial")
        with trace_span("parallel_map", mode="serial", tasks=len(tasks)):
            return [fn(task) for task in tasks]
    from repro.analysis import pool as pool_mod

    registry.gauge("parallel.jobs", jobs)
    try:
        with trace_span("parallel_map", mode="pool", tasks=len(tasks)):
            worker_pool = pool_mod.get_pool(jobs)
            results = worker_pool.run(fn, tasks, propagate=True)
        registry.inc("parallel.tasks", len(tasks), mode="pool")
        return results
    except (
        OSError,
        InjectedFaultError,
        pool_mod.PoolDispatchError,
        pool_mod.PoolCrashError,
    ) as exc:
        _warn_once(
            "parallel-map-fallback",
            "parallel_map: process pool unavailable "
            f"({type(exc).__name__}: {exc}); falling back to serial execution",
        )
        from repro.robust import record_degradation

        record_degradation(
            "map", "pooled", "serial",
            f"{type(exc).__name__}: {exc}", warn=False,
        )
        registry.inc("parallel.fallbacks")
        registry.inc("parallel.tasks", len(tasks), mode="serial")
        with trace_span("parallel_map", mode="serial-fallback", tasks=len(tasks)):
            return [fn(task) for task in tasks]


# ---------------------------------------------------------------------------
# Resilient (timeout + retry + failure isolation) map
# ---------------------------------------------------------------------------

def _run_serial_with_retries(fn, tasks, retries, backoff_seconds, on_result):
    """Inline serial path (no timeout enforcement, retries still honoured)."""
    registry = get_registry()
    results: list = [None] * len(tasks)
    for index, task in enumerate(tasks):
        error = ""
        for attempt in range(retries + 1):
            try:
                results[index] = fn(task)
                break
            except Exception as exc:  # noqa: BLE001 - isolated per task
                error = f"{type(exc).__name__}: {exc}"
                if attempt < retries:
                    registry.inc("resilient.retries")
                    time.sleep(backoff_seconds * (2 ** attempt))
        else:
            results[index] = TaskFailure(
                index=index, error=error, attempts=retries + 1, kind="error"
            )
            registry.inc("resilient.failures", kind="error")
        if not isinstance(results[index], TaskFailure):
            registry.inc("resilient.tasks", mode="serial")
            if on_result is not None:
                on_result(index, results[index])
    return results


def resilient_map(
    fn: Callable[[_Task], _Result],
    tasks: Iterable[_Task] | Sequence[_Task],
    jobs: int | None = None,
    *,
    timeout: float | None = None,
    retries: int = 0,
    backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
    on_result: Callable[[int, object], None] | None = None,
) -> list:
    """Fault-tolerant order-preserving map.

    Runs on the persistent worker pool: on timeout the (hung) worker is
    terminated and replaced, and the task retried (with exponential
    backoff) up to ``retries`` times — always on a live worker.  A task
    that exhausts its budget — by raising, hanging, or crashing its
    worker — contributes a :class:`TaskFailure` at its index; sibling
    tasks are unaffected.

    ``on_result(index, result)`` fires in the parent as each task
    *succeeds* (in completion order, not task order) — the checkpoint
    journal hook, so completed cells survive a later interrupt.

    With ``timeout=None`` and an effective job count of 1 the map runs
    inline (retries still honoured); any timeout forces worker processes
    even for serial runs, since an in-process hang cannot be interrupted.
    A function or task that cannot be pickled into workers degrades to
    the inline path with a one-time warning — timeouts are then best
    effort (unenforced), which the warning spells out.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    if not tasks:
        return []
    if timeout is None and jobs <= 1:
        with trace_span("resilient_map", mode="serial", tasks=len(tasks)):
            return _run_serial_with_retries(
                fn, tasks, retries, backoff_seconds, on_result
            )
    from repro.analysis import pool as pool_mod

    with trace_span(
        "resilient_map", mode="pool", tasks=len(tasks), jobs=jobs
    ):
        try:
            worker_pool = pool_mod.get_pool(jobs)
            return worker_pool.run(
                fn,
                tasks,
                timeout=timeout,
                retries=retries,
                backoff_seconds=backoff_seconds,
                on_result=on_result,
            )
        except pool_mod.PoolDispatchError as exc:
            _warn_once(
                "resilient-map-fallback",
                "resilient_map: cannot ship tasks to pool workers "
                f"({exc}); falling back to serial execution without "
                "timeout enforcement",
            )
            from repro.robust import record_degradation

            record_degradation(
                "map", "pooled", "serial", str(exc), warn=False
            )
            get_registry().inc("parallel.fallbacks")
            return _run_serial_with_retries(
                fn, tasks, retries, backoff_seconds, on_result
            )
