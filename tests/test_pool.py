"""Tests for the persistent worker pool and how traces reach its workers.

Covers the lifecycle guarantees the orchestration layer depends on:
workers persist across batches, a worker that dies mid-task is replaced
and the task retried on a fresh worker, an interrupt mid-batch tears the
pool down and flushes checkpoints, and a trace pickled into a worker
arrives identical — under both fork and spawn start methods.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import robust
from repro.analysis import pool as pool_mod
from repro.analysis.checkpoint import CheckpointJournal, run_checkpointed, task_key
from repro.analysis.parallel import MP_START_ENV, TaskFailure
from repro.analysis.dse import _point_key, explore
from repro.analysis.sweep import _cell_key, sweep
from repro.dwm.energy import DWMEnergyModel
from repro.memory.batch_sim import resolve_trace
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


def _trace_info(trace):
    """What a worker sees of the trace it was sent."""
    resolved = resolve_trace(trace)
    return (
        trace.name,
        trace.fingerprint(),
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


_TWO_POOLED_SWEEPS = textwrap.dedent(
    """
    from repro.analysis import parallel
    from repro.analysis.pool import shutdown_pools
    from repro.analysis.sweep import sweep
    from repro.trace.synthetic import markov_trace

    parallel._cpu_count = lambda: 2  # pool even where one CPU is allowed
    traces = [markov_trace(8, 200, seed=seed) for seed in (1, 2)]
    for _ in range(2):
        sweep(traces, methods=("heuristic",), words_per_dbc_values=(16,), jobs=2)
    shutdown_pools()
    """
)


class TestTracePickling:
    """A trace reaches pool workers by pickling, as its resolved arrays."""

    @pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
    def test_fork_worker_round_trip(self, fresh_pools):
        trace = markov_trace(8, 300, seed=5)
        pool = pool_mod.get_pool(2)
        results = pool.run(_trace_info, [trace, trace], propagate=True)
        assert results == [_trace_info(trace)] * 2

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pooled_sweeps_print_nothing_to_stderr(self, start_method):
        """Two pooled sweeps in one process leave stderr clean (no
        resource-tracker tracebacks, no ignored exceptions at exit)."""
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} start method unavailable")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(None, [str(src), os.environ.get("PYTHONPATH")])
            ),
            **{MP_START_ENV: start_method},
        )
        done = subprocess.run(
            [sys.executable, "-c", _TWO_POOLED_SWEEPS],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr, done.stderr
        assert "Exception ignored" not in done.stderr, done.stderr

    def test_checkpoint_keys_are_pinned(self):
        """Task keys read the trace fingerprint and are unchanged, so
        existing checkpoint journals still resume."""
        trace = markov_trace(8, 120, seed=10)
        assert _cell_key((trace, 16, 1, "heuristic", {})) == (
            "cfd397e66ef7a798578c9358e90c1b7d441e6095b0ed42de7d4291218ba47c5f"
        )
        assert _point_key(
            (trace, 16, 2, "lazy", "heuristic", DWMEnergyModel())
        ) == "d089ff5ad6f0e5d2d8f7f61501b19143588d3d01eae135c5b2787ccf861ca5df"


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

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_dse_points_identical(self, fresh_pools, monkeypatch, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} start method unavailable")
        trace = markov_trace(12, 400, seed=8)
        grid = dict(lengths=(8, 16), ports=(1, 2))
        serial = explore(trace, jobs=1, **grid)
        monkeypatch.setenv(MP_START_ENV, start_method)
        assert explore(trace, jobs=2, **grid) == serial

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
    """The pool works without fork inheritance."""

    def test_spawn_worker_round_trip(self, fresh_pools, monkeypatch):
        monkeypatch.setenv(MP_START_ENV, "spawn")
        trace = markov_trace(6, 150, seed=6)
        pool = pool_mod.get_pool(2)
        results = pool.run(_trace_info, [trace], propagate=True)
        assert results == [_trace_info(trace)]

    def test_spawn_results_match_fork_results(self, fresh_pools, monkeypatch):
        monkeypatch.setenv(MP_START_ENV, "spawn")
        pool = pool_mod.get_pool(2)
        assert pool.run(_triple, [1, 2, 3]) == [3, 6, 9]
