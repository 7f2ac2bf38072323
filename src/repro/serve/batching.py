"""Continuous micro-batching: coalesce compatible requests into one pass.

Simulate requests that share a (trace, geometry) pair differ only in their
placement, and the vectorized engine amortises trace resolution across any
number of placements (:class:`~repro.memory.batch_sim.BatchSimulator`).
The :class:`MicroBatcher` groups such requests by compatibility key and
runs each group as **one** backend pass; each waiter gets its own result.

Batches form from backlog only, never from a clock:

* when no pass for a key is in flight, a new group flushes on the next
  event-loop turn, which still picks up every request submitted in the
  current one;
* while a pass for the key runs, new requests collect in one group that
  flushes as soon as the pass ends, whether it succeeded or failed;
* a group that reaches ``max_batch`` flushes at once.

A lone request therefore never waits, and under load batches grow with
the backlog, so throughput scales with batch size instead of request
count.

Degradation (the ``serve`` chain in :mod:`repro.robust`): when a batched
pass fails with a *recoverable* infrastructure error, the batch falls back
to per-request execution (``batched -> single``, recorded via
:func:`~repro.robust.record_degradation`) so one poisoned pass cannot fail
every rider; requests that still fail get their own typed error.  Batch
results are bit-identical to single-request execution by construction —
the backend runs the same vectorized scan either way — and the CI service
gates assert exactly that.

Metrics: ``serve.batches``, ``serve.batch.size`` (histogram),
``serve.batch.wait.seconds`` (histogram: each rider's time from
:meth:`MicroBatcher.submit` to the start of its pass), and
``serve.batch.degraded`` via the robust layer.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from typing import Awaitable, Callable, Sequence

from repro.obs import get_registry
from repro.robust import is_recoverable, record_degradation

__all__ = ["MicroBatcher"]

#: run_batch(key, payloads) -> list of per-payload results (same order).
BatchRunner = Callable[[str, Sequence[object]], Awaitable[list]]


class _Group:
    __slots__ = ("payloads", "futures", "submitted")

    def __init__(self) -> None:
        self.payloads: list[object] = []
        self.futures: list[asyncio.Future] = []
        self.submitted: list[float] = []


class MicroBatcher:
    """Group submissions by compatibility key; flush when the key is idle."""

    def __init__(self, run_batch: BatchRunner, *, max_batch: int = 64) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._run_batch = run_batch
        self.max_batch = max_batch
        #: The one waiting (not yet flushed) group per key.
        self._groups: dict[str, _Group] = {}
        #: Passes in flight per key (absent = idle).
        self._in_flight: Counter[str] = Counter()
        self._closed = False

    async def submit(self, key: str, payload: object):
        """Join (or open) the group for ``key``; await this payload's result."""
        if self._closed:
            raise RuntimeError("batcher is closed")
        loop = asyncio.get_running_loop()
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group()
            if key not in self._in_flight:
                loop.call_soon(self._flush, key, group)
        future: asyncio.Future = loop.create_future()
        group.payloads.append(payload)
        group.futures.append(future)
        group.submitted.append(time.perf_counter())
        if len(group.payloads) >= self.max_batch:
            self._flush(key)
        return await future

    def _flush(self, key: str, group: _Group | None = None) -> None:
        """Start a pass over the group waiting on ``key``.

        A flush scheduled for ``group`` does nothing once that group has
        left (a full group flushes early), so it never takes a later one.
        """
        waiting = self._groups.get(key)
        if waiting is None or (group is not None and waiting is not group):
            return
        del self._groups[key]
        self._in_flight[key] += 1
        asyncio.get_running_loop().create_task(self._execute(key, waiting))

    async def _execute(self, key: str, group: _Group) -> None:
        registry = get_registry()
        registry.inc("serve.batches")
        registry.observe("serve.batch.size", len(group.payloads))
        start = time.perf_counter()
        for submitted in group.submitted:
            registry.observe("serve.batch.wait.seconds", start - submitted)
        try:
            await self._run_group(key, group)
        finally:
            self._in_flight[key] -= 1
            if not self._in_flight[key]:
                del self._in_flight[key]
            # The group that collected behind this pass goes next.
            self._flush(key)

    async def _run_group(self, key: str, group: _Group) -> None:
        try:
            results = await self._run_batch(key, group.payloads)
            if len(results) != len(group.futures):  # pragma: no cover
                raise RuntimeError(
                    f"batch runner returned {len(results)} results "
                    f"for {len(group.futures)} payloads"
                )
        except BaseException as exc:
            if len(group.payloads) > 1 and is_recoverable(exc):
                # One rider's infrastructure failure must not take down
                # the whole batch: degrade to per-request execution.
                record_degradation(
                    "serve",
                    "batched",
                    "single",
                    f"{type(exc).__name__}: {exc}",
                    warn=False,
                )
                await self._execute_singly(key, group)
                return
            for future in group.futures:
                if not future.done():
                    future.set_exception(exc)
            return
        for future, result in zip(group.futures, results):
            if not future.done():
                future.set_result(result)

    async def _execute_singly(self, key: str, group: _Group) -> None:
        for payload, future in zip(group.payloads, group.futures):
            try:
                (result,) = await self._run_batch(key, [payload])
            except BaseException as exc:
                if not future.done():
                    future.set_exception(exc)
            else:
                if not future.done():
                    future.set_result(result)

    async def close(self) -> None:
        """Flush every waiting group and stop accepting submissions."""
        self._closed = True
        for key in list(self._groups):
            self._flush(key)
        # Let the flush tasks run; submitters still hold the futures.
        await asyncio.sleep(0)
