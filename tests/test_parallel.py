"""Tests for the process-pool orchestration layer.

The contract under test: any ``jobs`` value produces *identical* results in
*identical order* to a serial run — parallelism is purely a wall-clock
optimisation — and pool-infrastructure failures degrade to serial instead
of erroring.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.analysis import parallel as parallel_mod
from repro.analysis.experiments import run_experiments
from repro.analysis.parallel import (
    JOBS_ENV,
    allowed_cpus,
    parallel_map,
    resolve_jobs,
)
from repro.analysis.report import format_table
from repro.analysis.sweep import sweep
from repro.analysis.dse import explore
from repro.trace.synthetic import markov_trace

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

#: The real CPU-count seam, taken before the autouse fixture widens it.
_CPU_COUNT = parallel_mod._cpu_count


def _square(value: int) -> int:
    return value * value


def _worker_jobs_env(_task) -> str | None:
    return os.environ.get(JOBS_ENV)


def _strip_runtime(records):
    """SweepRecord tuples without the (non-deterministic) runtime field."""
    return [
        (r.trace, r.method, r.words_per_dbc, r.num_ports, r.num_dbcs,
         r.total_shifts, r.num_accesses)
        for r in records
    ]


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "8")
        assert resolve_jobs(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "4")
        assert resolve_jobs(None) == 4

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_invalid_env_is_serial(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        assert resolve_jobs(None) == 1

    def test_non_positive_clamped(self, monkeypatch):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-3) == 1
        monkeypatch.setenv(JOBS_ENV, "-2")
        assert resolve_jobs(None) == 1

    def test_capped_at_cpu_count_with_warning(self, monkeypatch):
        from repro.analysis import parallel

        monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
        parallel._reset_warnings()
        with pytest.warns(RuntimeWarning, match="capping at 2"):
            assert resolve_jobs(16) == 2

    def test_env_oversubscription_capped(self, monkeypatch):
        from repro.analysis import parallel

        monkeypatch.setattr(parallel, "_cpu_count", lambda: 3)
        monkeypatch.setenv(JOBS_ENV, "12")
        parallel._reset_warnings()
        with pytest.warns(RuntimeWarning, match=JOBS_ENV):
            assert resolve_jobs(None) == 3

    def test_cap_warning_fires_once(self, monkeypatch):
        import warnings as warnings_mod

        from repro.analysis import parallel

        monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
        parallel._reset_warnings()
        with pytest.warns(RuntimeWarning):
            resolve_jobs(8)
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            assert resolve_jobs(8) == 2  # second call: capped, silent

    def test_cap_reads_the_affinity_mask(self, monkeypatch):
        # Under ``taskset -c 3,5`` the cap is 2 on any host, and the pool
        # pins to those same CPUs.
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {5, 3}, raising=False
        )
        assert allowed_cpus() == [3, 5]
        assert _CPU_COUNT() == 2

    def test_cap_without_affinity_is_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert allowed_cpus() == list(range(6))
        assert _CPU_COUNT() == 6

    def test_within_cap_no_warning(self, monkeypatch):
        import warnings as warnings_mod

        from repro.analysis import parallel

        monkeypatch.setattr(parallel, "_cpu_count", lambda: 4)
        parallel._reset_warnings()
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            assert resolve_jobs(4) == 4


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_empty_tasks(self):
        assert parallel_map(_square, [], jobs=4) == []

    @pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
    def test_parallel_preserves_order(self):
        tasks = list(range(20))
        assert parallel_map(_square, tasks, jobs=4) == [t * t for t in tasks]

    @pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
    def test_workers_do_not_nest_pools(self):
        results = parallel_map(_worker_jobs_env, list(range(4)), jobs=2)
        assert results == ["1"] * 4

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        import concurrent.futures

        def broken_executor(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", broken_executor
        )
        assert parallel_map(_square, [2, 3], jobs=2) == [4, 9]

    def test_task_exception_propagates(self):
        def boom(task):
            raise ValueError(f"task {task}")

        with pytest.raises(ValueError, match="task"):
            parallel_map(boom, [1, 2], jobs=1)


@pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
class TestDeterminism:
    def test_sweep_records_identical(self):
        traces = [markov_trace(20, 1200, seed=s) for s in (0, 1)]
        serial = sweep(traces, words_per_dbc_values=(8, 16),
                       num_ports_values=(1, 2), jobs=1)
        parallel = sweep(traces, words_per_dbc_values=(8, 16),
                         num_ports_values=(1, 2), jobs=4)
        assert _strip_runtime(serial) == _strip_runtime(parallel)

    def test_rendered_output_byte_identical(self):
        """A jobs=4 run renders to exactly the same bytes as serial."""
        traces = [markov_trace(16, 800, seed=s) for s in (2, 3)]

        def render(jobs):
            records = sweep(traces, words_per_dbc_values=(8, 16), jobs=jobs)
            rows = [
                (r.trace, r.method, r.words_per_dbc, r.total_shifts)
                for r in records
            ]
            return format_table(
                ("trace", "method", "L", "shifts"), rows, title="determinism"
            ).encode("utf-8")

        assert render(1) == render(4)

    def test_dse_points_identical(self):
        trace = markov_trace(18, 900, seed=7)
        serial = explore(trace, lengths=(8, 16), ports=(1, 2), jobs=1)
        parallel = explore(trace, lengths=(8, 16), ports=(1, 2), jobs=4)
        assert serial == parallel

    def test_experiments_outputs_identical(self):
        serial = run_experiments(["e1"], jobs=1)
        parallel = run_experiments(["e1"], jobs=2)
        assert [o.rendered for o in serial] == [o.rendered for o in parallel]


class TestRunExperiments:
    def test_order_matches_request(self):
        outputs = run_experiments(["e9", "e1"], jobs=1)
        assert [o.experiment_id for o in outputs] == ["e9", "e1"]

    def test_unknown_id_rejected_before_work(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiments(["e1", "nope"], jobs=1)
