"""Tests for the persistent worker pool and shared-memory trace layer.

Covers the lifecycle guarantees the orchestration layer depends on:
workers persist across batches, a worker that dies mid-task is replaced
and the task retried on a fresh worker, an interrupt mid-batch tears the
pool down and flushes checkpoints, and no shared-memory segment outlives
its ``publish_traces`` block — under both fork and spawn start methods.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal

import pytest

from repro import robust
from repro.analysis import pool as pool_mod
from repro.analysis.checkpoint import CheckpointJournal, run_checkpointed, task_key
from repro.analysis.parallel import MP_START_ENV, TaskFailure
from repro.analysis.sweep import sweep
from repro.memory import shm
from repro.trace.synthetic import markov_trace

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------------
# Worker bodies — top-level so every start method (fork/spawn) can pickle them.
# ---------------------------------------------------------------------------

def _triple(value: int) -> int:
    return value * 3


def _worker_pid(_task) -> int:
    return os.getpid()


def _crash_once(task):
    """Kill the worker on the first attempt; succeed on the retry.  The
    marker file carries state across worker generations."""
    marker, value = task
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        os._exit(11)
    return value * 7


def _interrupt_task(value):
    raise KeyboardInterrupt


def _sigterm_disposition(_task):
    return signal.getsignal(signal.SIGTERM)


def _handle_info(handle):
    """Resolve a TraceHandle inside a worker (fork: registry; spawn: attach)."""
    trace = handle.trace()
    resolved = handle.resolved()
    return (
        trace.name,
        handle.fingerprint(),
        int(resolved.item_at.sum()),
        int(resolved.is_write.sum()),
    )


@pytest.fixture
def traces():
    return [markov_trace(8, 120, seed=s) for s in (10, 11)]


@pytest.fixture
def fresh_pools():
    """Isolate each test's pools; never leak workers into the next test."""
    pool_mod.shutdown_pools()
    yield
    pool_mod.shutdown_pools()


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
class TestPoolLifecycle:
    def test_workers_persist_across_batches(self, fresh_pools):
        pool = pool_mod.get_pool(2)
        first = set(pool.run(_worker_pid, list(range(6))))
        second = set(pool.run(_worker_pid, list(range(6))))
        assert first == second  # same processes served both batches
        assert pool_mod.get_pool(2) is pool

    def test_results_in_task_order(self, fresh_pools):
        pool = pool_mod.get_pool(2)
        assert pool.run(_triple, [3, 1, 2]) == [9, 3, 6]

    def test_worker_death_retries_on_fresh_worker(self, fresh_pools, tmp_path):
        pool = pool_mod.get_pool(2)
        marker = str(tmp_path / "crash-marker")
        results = pool.run(_crash_once, [(marker, 5)], retries=1)
        assert results == [35]
        # The pool replaced the dead worker and still works.
        assert pool.run(_triple, [2]) == [6]

    def test_exhausted_retries_become_task_failure(self, fresh_pools, tmp_path):
        pool = pool_mod.get_pool(2)
        missing = str(tmp_path / "never-created" / "marker")
        results = pool.run(_crash_once, [(missing, 1)], retries=0)
        assert isinstance(results[0], TaskFailure)
        assert results[0].kind == "error"

    def test_interrupt_mid_batch_tears_pool_down(self, fresh_pools):
        pool = pool_mod.get_pool(2)
        pids = set(pool.run(_worker_pid, list(range(4))))

        def boom(_index, _value):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            pool.run(_triple, list(range(8)), on_result=boom)
        assert pool.closed
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # every worker is gone
        # The registry hands out a fresh pool afterwards.
        replacement = pool_mod.get_pool(2)
        assert replacement is not pool
        assert replacement.run(_triple, [4]) == [12]

    @pytest.mark.skipif(
        not hasattr(signal, "SIGTERM"), reason="no SIGTERM on this platform"
    )
    def test_workers_take_the_default_sigterm_action(self, fresh_pools):
        """A worker started under the CLI's SIGTERM handler must not keep
        it: the handler raises KeyboardInterrupt, which prints a traceback
        when the pool terminates the worker."""
        previous = robust.install_sigterm_handler()
        try:
            pool = pool_mod.get_pool(2)
            dispositions = pool.run(_sigterm_disposition, [0, 1])
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert dispositions == [signal.SIG_DFL, signal.SIG_DFL]

    def test_worker_keyboard_interrupt_is_a_failure_not_a_hang(
        self, fresh_pools
    ):
        pool = pool_mod.get_pool(2)
        results = pool.run(_interrupt_task, [1], retries=0)
        assert isinstance(results[0], TaskFailure)


def _allowed() -> set[int]:
    return set(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else set()


def _affinities(pool) -> dict[int, set[int]]:
    return {
        wid: set(os.sched_getaffinity(worker.proc.pid))
        for wid, worker in pool._workers.items()
    }


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(_allowed()) < 2,
    reason="needs sched_setaffinity and at least 2 allowed CPUs",
)
class TestWorkerPinning:
    def test_workers_take_distinct_allowed_cpus(self, fresh_pools):
        pool = pool_mod.get_pool(2)
        pinned = list(_affinities(pool).values())
        assert all(len(cpus) == 1 for cpus in pinned)
        assert pinned[0] != pinned[1]
        assert set().union(*pinned) <= _allowed()
        assert pool.run(_triple, [1, 2]) == [3, 6]

    def test_single_worker_keeps_the_parent_set(self, fresh_pools):
        pool = pool_mod.get_pool(1)
        assert list(_affinities(pool).values()) == [_allowed()]

    def test_replacement_takes_the_freed_cpu(self, fresh_pools):
        pool = pool_mod.get_pool(2)
        before = _affinities(pool)
        dead = min(before)
        pool._workers[dead].proc.kill()
        pool._workers[dead].proc.join()
        assert pool.run(_triple, [1, 2]) == [3, 6]  # replaces the dead one
        after = _affinities(pool)
        assert dead not in after
        (replacement,) = set(after) - set(before)
        assert after[replacement] == before[dead]
        assert sorted(map(sorted, after.values())) == sorted(
            map(sorted, before.values())
        )


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
class TestCheckpointInterrupt:
    def test_interrupt_flushes_completed_cells(self, fresh_pools, tmp_path):
        """A KeyboardInterrupt mid-batch must leave completed tasks in the
        journal so the run can resume."""
        journal_path = tmp_path / "journal.jsonl"
        keys = [task_key("cell", {"i": i}) for i in range(4)]
        seen: list[int] = []

        def fn(value):
            if value == 2:
                raise KeyboardInterrupt
            seen.append(value)
            return value

        with pytest.raises(KeyboardInterrupt):
            with CheckpointJournal(journal_path, resume=False) as journal:
                run_checkpointed(
                    fn, [0, 1, 2, 3], keys, checkpoint=journal, retries=1
                )
        resumed = CheckpointJournal(journal_path, resume=True)
        try:
            assert resumed.restored == len(seen) > 0
        finally:
            resumed.close()


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
class TestSharedMemory:
    def test_publish_release_roundtrip(self, fresh_pools):
        trace = markov_trace(8, 200, seed=1)
        handle = shm.publish(trace)
        try:
            assert shm.active_segments() == [handle.shm_name]
            assert handle.trace() is trace  # in-process: zero-copy
            assert handle.fingerprint() == trace.fingerprint()
        finally:
            shm.release(handle)
        assert shm.active_segments() == []

    def test_local_handle_refuses_to_pickle(self):
        trace = markov_trace(8, 50, seed=2)
        handle = shm.local_handle(trace)
        assert handle.trace() is trace
        with pytest.raises(pickle.PicklingError):
            pickle.dumps(handle)

    def test_publish_traces_serial_publishes_nothing(self):
        trace = markov_trace(8, 50, seed=3)
        with shm.publish_traces([trace], jobs=1) as (handle,):
            assert handle.shm_name is None
            assert shm.active_segments() == []

    def test_publish_traces_releases_on_interrupt(self):
        trace = markov_trace(8, 50, seed=4)
        with pytest.raises(KeyboardInterrupt):
            with shm.publish_traces([trace], jobs=2):
                assert len(shm.active_segments()) == 1
                raise KeyboardInterrupt
        assert shm.active_segments() == []

    def test_worker_resolves_published_trace(self, fresh_pools):
        trace = markov_trace(8, 300, seed=5)
        from repro.memory.batch_sim import resolve_trace

        resolved = resolve_trace(trace)
        expected = (
            trace.name,
            trace.fingerprint(),
            int(resolved.item_at.sum()),
            int(resolved.is_write.sum()),
        )
        with shm.publish_traces([trace], jobs=2) as (handle,):
            pool = pool_mod.get_pool(2)
            results = pool.run(_handle_info, [handle, handle], propagate=True)
        assert results == [expected, expected]

    def test_no_leaked_segments_after_parallel_sweep(self, fresh_pools, traces):
        records = sweep(
            traces,
            methods=("declaration",),
            words_per_dbc_values=(16,),
            jobs=2,
        )
        assert len(records) == len(traces)
        assert shm.active_segments() == []


def _strip_runtime(records):
    """SweepRecord tuples without the (wall-clock) runtime field."""
    return [
        (r.trace, r.method, r.words_per_dbc, r.num_ports, r.num_dbcs,
         r.total_shifts, r.num_accesses)
        for r in records
    ]


class TestSerialPooledParity:
    """Serial and pooled runs produce byte-identical records and journals
    (satellite of the persistent-pool rework): parallelism must stay a
    pure wall-clock optimisation, under both start methods."""

    GRID = dict(
        methods=("declaration", "heuristic"),
        words_per_dbc_values=(8, 16),
        num_ports_values=(1,),
    )

    def _run(self, traces, tmp_path, tag, jobs):
        path = tmp_path / f"journal-{tag}.jsonl"
        with CheckpointJournal(path) as journal:
            records = sweep(traces, checkpoint=journal, jobs=jobs, **self.GRID)
        keys = [
            json.loads(line)["key"]
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        return records, keys

    @pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
    def test_fork_records_and_journal_keys_identical(
        self, fresh_pools, tmp_path, traces
    ):
        serial, serial_keys = self._run(traces, tmp_path, "serial", jobs=1)
        pooled, pooled_keys = self._run(traces, tmp_path, "pooled", jobs=2)
        assert _strip_runtime(pooled) == _strip_runtime(serial)
        assert sorted(pooled_keys) == sorted(serial_keys)

    def test_spawn_records_and_journal_keys_identical(
        self, fresh_pools, tmp_path, traces, monkeypatch
    ):
        serial, serial_keys = self._run(traces, tmp_path, "serial", jobs=1)
        monkeypatch.setenv(MP_START_ENV, "spawn")
        pooled, pooled_keys = self._run(traces, tmp_path, "spawn", jobs=2)
        assert _strip_runtime(pooled) == _strip_runtime(serial)
        assert sorted(pooled_keys) == sorted(serial_keys)

    @pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
    def test_pooled_run_resumes_from_serial_journal(
        self, fresh_pools, tmp_path, traces
    ):
        """A journal written serially is fully honoured by a pooled resume:
        nothing is recomputed and the records match the serial run."""
        path = tmp_path / "cross-mode.jsonl"
        with CheckpointJournal(path) as journal:
            serial = sweep(traces, checkpoint=journal, jobs=1, **self.GRID)
        with CheckpointJournal(path, resume=True) as journal:
            assert journal.restored == len(serial)
            pooled = sweep(traces, checkpoint=journal, jobs=2, **self.GRID)
            assert journal.recorded == 0
        assert pooled == serial  # restored payloads: byte-identical


class TestSpawnStartMethod:
    """The pool and shm layers work without fork inheritance."""

    def test_spawn_worker_attaches_segment(self, fresh_pools, monkeypatch):
        monkeypatch.setenv(MP_START_ENV, "spawn")
        trace = markov_trace(6, 150, seed=6)
        from repro.memory.batch_sim import resolve_trace

        resolved = resolve_trace(trace)
        expected = (
            trace.name,
            trace.fingerprint(),
            int(resolved.item_at.sum()),
            int(resolved.is_write.sum()),
        )
        with shm.publish_traces([trace], jobs=2) as (handle,):
            pool = pool_mod.get_pool(2)
            results = pool.run(_handle_info, [handle], propagate=True)
        assert results == [expected]

    def test_spawn_results_match_fork_results(self, fresh_pools, monkeypatch):
        monkeypatch.setenv(MP_START_ENV, "spawn")
        pool = pool_mod.get_pool(2)
        assert pool.run(_triple, [1, 2, 3]) == [3, 6, 9]
