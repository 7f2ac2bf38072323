"""Tests for the chunked streaming engine (repro.memory.stream_sim).

The load-bearing property is bit-identity with the in-memory vectorized
engine — checked here across policies, port counts and chunk sizes
(including the degenerate one-access-per-chunk and single-chunk corners),
on all three scan modes: sequential head-carrying, in-process map+merge,
and the pool-parallel fan-out (fork and spawn).  The merge algebra is
additionally checked for associativity: any bracketing of the chunk fold
must finalize to the same totals.  The summary is the shared window
scan's state (``batch_sim.scan_windows``); it is checked on 36 DBCs that
most chunks leave untouched, through every mode and both input kinds.
"""

from __future__ import annotations

import functools
import multiprocessing
import pickle
import random

import numpy as np
import pytest

from repro import robust
from repro.analysis import pool as pool_mod
from repro.analysis.parallel import MP_START_ENV
from repro.chaos import chaos_scope
from repro.core.api import build_problem
from repro.core.baselines import declaration_order_placement
from repro.core.placement import Placement, Slot
from repro.dwm.config import DWMConfig, PortPolicy
from repro.errors import SimulationError
from repro.memory.batch_sim import (
    per_access_costs,
    scan_windows,
    simulate_vectorized,
    slot_arrays,
)
from repro.memory.spm import ScratchpadMemory
from repro.memory.stream_sim import (
    ChunkState,
    finalize_state,
    merge_states,
    scan_span,
    simulate_streaming,
    _spans,
    _window,
)
from repro.obs import get_registry
from repro.trace.binio import open_binary, save_binary
from repro.trace.model import AccessTrace
from repro.trace.synthetic import markov_trace

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def _problem(num_ports: int, policy: PortPolicy, seed: int = 3):
    trace = markov_trace(14, 500, seed=seed)
    config = DWMConfig(
        words_per_dbc=8,
        num_dbcs=3,
        port_offsets=tuple(range(num_ports)) if num_ports > 1 else None,
        port_policy=policy,
    )
    problem = build_problem(trace, config)
    return trace, config, declaration_order_placement(problem)


@pytest.fixture
def fresh_pools():
    pool_mod.shutdown_pools()
    yield
    pool_mod.shutdown_pools()


class TestBitIdentity:
    @pytest.mark.parametrize("num_ports", [1, 2, 3])
    @pytest.mark.parametrize("policy", [PortPolicy.LAZY, PortPolicy.EAGER])
    @pytest.mark.parametrize("chunk_size", [1, 7, 500, 600])
    def test_matches_vectorized(self, num_ports, policy, chunk_size):
        trace, config, placement = _problem(num_ports, policy)
        reference = simulate_vectorized(trace, config, placement)
        for force_merge in (False, True):
            result = simulate_streaming(
                trace,
                config,
                placement,
                chunk_size=chunk_size,
                force_merge=force_merge,
            )
            assert result.shifts == reference.shifts
            assert result.per_dbc_shifts == reference.per_dbc_shifts
            assert result.max_access_shifts == reference.max_access_shifts
            assert (result.reads, result.writes) == (
                reference.reads,
                reference.writes,
            )

    def test_streaming_trace_input(self, tmp_path):
        trace, config, placement = _problem(2, PortPolicy.LAZY)
        path = tmp_path / "t.rtb"
        save_binary(trace, path)
        reference = simulate_vectorized(trace, config, placement)
        for force_merge in (False, True):
            result = simulate_streaming(
                open_binary(path), config, placement, chunk_size=97,
                force_merge=force_merge,
            )
            assert result.shifts == reference.shifts
            assert result.per_dbc_shifts == reference.per_dbc_shifts
            assert result.max_access_shifts == reference.max_access_shifts
            # The scan counts the records' write bits itself.
            assert (result.reads, result.writes) == (
                reference.reads,
                reference.writes,
            )
        assert reference.writes > 0
        assert result.details["engine"] == "streaming"
        assert result.details["num_chunks"] == (500 + 96) // 97

    def test_empty_trace_chunks(self, tmp_path):
        from repro.trace.binio import pack

        path = tmp_path / "e.rtb"
        pack([("x", "R")], path)
        stream = open_binary(path)
        config = DWMConfig(words_per_dbc=4, num_dbcs=1)
        problem = build_problem(stream.to_trace(), config)
        placement = declaration_order_placement(problem)
        result = simulate_streaming(stream, config, placement, chunk_size=10)
        assert result.shifts == 0 or result.shifts > 0  # runs cleanly
        assert result.accesses == 1

    def test_chunk_size_validated(self):
        trace, config, placement = _problem(1, PortPolicy.LAZY)
        with pytest.raises(SimulationError, match="chunk_size"):
            simulate_streaming(trace, config, placement, chunk_size=0)


class TestMergeAlgebra:
    def _states(self, trace, config, placement, cuts):
        items = tuple(trace.items)
        dbc_of, offset_of = slot_arrays(items, placement)
        bounds = list(zip([0] + cuts, cuts + [len(trace)]))
        return [
            scan_span(
                [_window(trace, start, stop)], config, dbc_of, offset_of
            )
            for start, stop in bounds
            if stop > start
        ]

    @pytest.mark.parametrize("policy", [PortPolicy.LAZY, PortPolicy.EAGER])
    def test_fold_is_associative(self, policy):
        trace, config, placement = _problem(2, policy, seed=11)
        reference = simulate_vectorized(trace, config, placement)
        rng = random.Random(77)
        for _ in range(5):
            cuts = sorted(rng.sample(range(1, len(trace)), 4))
            states = self._states(trace, config, placement, cuts)
            left = functools.reduce(merge_states, states)
            right = functools.reduce(
                lambda a, b: merge_states(b, a), reversed(states)
            )
            # A random interior bracketing: fold a middle run first.
            lo, hi = sorted(rng.sample(range(len(states)), 2))
            middle = functools.reduce(merge_states, states[lo : hi + 1])
            mixed = functools.reduce(
                merge_states, states[: lo] + [middle] + states[hi + 1 :]
            )
            for folded in (left, right, mixed):
                per_dbc, total, max_access = finalize_state(folded, config)
                assert total == reference.shifts
                assert tuple(per_dbc) == reference.per_dbc_shifts
                assert max_access == reference.max_access_shifts

    def test_empty_state_is_identity(self):
        # Scanning no windows gives the empty summary.
        for policy in (PortPolicy.LAZY, PortPolicy.EAGER):
            trace, config, placement = _problem(2, policy)
            states = self._states(trace, config, placement, [250])
            empty = scan_span((), config, *slot_arrays(trace.items, placement))
            assert isinstance(empty, ChunkState)
            assert (empty.accesses, empty.writes) == (0, 0)
            assert merge_states(empty, states[0]) is states[0]
            assert merge_states(states[0], empty) is states[0]
            assert finalize_state(empty, config) == ([0] * config.num_dbcs, 0, 0)

    def test_mismatched_configs_refuse_to_merge(self):
        trace, config, placement = _problem(2, PortPolicy.LAZY)
        lazy = self._states(trace, config, placement, [250])[0]
        eager_config = DWMConfig(
            words_per_dbc=8,
            num_dbcs=3,
            port_offsets=config.port_offsets,
            port_policy=PortPolicy.EAGER,
        )
        eager = self._states(trace, eager_config, placement, [250])[0]
        with pytest.raises(SimulationError, match="different configurations"):
            merge_states(lazy, eager)


def _wide_problem(num_ports: int, policy: PortPolicy, seed: int = 5):
    """36 DBCs of 6 words, hit in phases: each phase touches six
    neighbouring DBCs and, every other phase, DBC 35 — so most chunks
    leave most DBCs untouched and DBCs recur after gaps."""
    rng = random.Random(seed)
    accesses = []
    for phase in range(6):
        dbcs = list(range(6 * phase, 6 * phase + 6)) + [35] * (phase % 2)
        for _ in range(150):
            item = f"d{rng.choice(dbcs)}w{rng.randrange(6)}"
            accesses.append((item, "W" if rng.random() < 0.3 else "R"))
    trace = AccessTrace(accesses, name="phased")
    config = DWMConfig(
        words_per_dbc=6,
        num_dbcs=36,
        port_offsets=(0, 2, 5) if num_ports == 3 else None,
        port_policy=policy,
    )
    offsets = list(range(6))
    placement = {}
    for dbc in range(36):
        rng.shuffle(offsets)
        for word, offset in enumerate(offsets):
            placement[f"d{dbc}w{word}"] = Slot(dbc, offset)
    return trace, config, Placement(placement)


class TestSharedScan:
    """The streaming summary is the shared scan's state, on many DBCs."""

    @pytest.mark.parametrize("num_ports", [1, 3])
    @pytest.mark.parametrize("policy", [PortPolicy.LAZY, PortPolicy.EAGER])
    @pytest.mark.parametrize("source", ["memory", "rtb"])
    @pytest.mark.parametrize("mode", ["sequential", "merge", "parallel"])
    def test_modes_match_vectorized(
        self, num_ports, policy, source, mode, tmp_path, fresh_pools
    ):
        if mode == "parallel" and not HAVE_FORK:
            pytest.skip("fork start method unavailable")
        trace, config, placement = _wide_problem(num_ports, policy)
        reference = simulate_vectorized(trace, config, placement)
        assert 0 < reference.writes < len(trace)
        streamed = trace
        if source == "rtb":
            save_binary(trace, tmp_path / "w.rtb")
            streamed = open_binary(tmp_path / "w.rtb")
        result = simulate_streaming(
            streamed, config, placement, chunk_size=97,
            force_merge=mode == "merge",
            jobs=3 if mode == "parallel" else None,
        )
        assert result.details["mode"] == mode
        assert result.shifts == reference.shifts
        assert result.per_dbc_shifts == reference.per_dbc_shifts
        assert result.max_access_shifts == reference.max_access_shifts
        assert (result.reads, result.writes) == (
            reference.reads, reference.writes
        )

    @pytest.mark.parametrize("policy", [PortPolicy.LAZY, PortPolicy.EAGER])
    def test_chunk_states_touch_few_dbcs(self, policy):
        trace, config, placement = _wide_problem(3, policy)
        dbc_of, offset_of = slot_arrays(trace.items, placement)
        state = scan_span([_window(trace, 200, 300)], config, dbc_of, offset_of)
        touched = state.state.totals.reshape(36, -1).any(axis=1)
        assert 0 < touched.sum() < 36
        assert state.state.conditioned == (policy is PortPolicy.LAZY)

    @pytest.mark.parametrize("policy", [PortPolicy.LAZY, PortPolicy.EAGER])
    def test_chunk_state_pickles(self, policy):
        trace, config, placement = _wide_problem(3, policy)
        dbc_of, offset_of = slot_arrays(trace.items, placement)
        states = [
            scan_span([_window(trace, start, start + 150)], config, dbc_of, offset_of)
            for start in range(0, len(trace), 150)
        ]
        copies = [pickle.loads(pickle.dumps(state)) for state in states]
        for state, copy in zip(states, copies):
            assert (copy.policy, copy.ports, copy.accesses, copy.writes) == (
                state.policy, state.ports, state.accesses, state.writes
            )
            for name in ("heads", "totals", "maxes", "counts", "first"):
                assert np.array_equal(
                    getattr(copy.state, name), getattr(state.state, name)
                )
        reference = simulate_vectorized(trace, config, placement)
        per_dbc, total, max_access = finalize_state(
            functools.reduce(merge_states, copies), config
        )
        assert tuple(per_dbc) == reference.per_dbc_shifts
        assert (total, max_access) == (
            reference.shifts, reference.max_access_shifts
        )

    @pytest.mark.parametrize("policy", [PortPolicy.LAZY, PortPolicy.EAGER])
    def test_empty_trace_in_every_mode(self, policy, tmp_path, fresh_pools):
        config = DWMConfig(words_per_dbc=4, num_dbcs=3, port_policy=policy)
        trace = AccessTrace([], name="void")
        save_binary(trace, tmp_path / "e.rtb")
        for source in (trace, open_binary(tmp_path / "e.rtb")):
            for kwargs in ({}, {"force_merge": True}, {"jobs": 2}):
                result = simulate_streaming(
                    source, config, Placement({}), chunk_size=8, **kwargs
                )
                assert result.details["num_chunks"] == 0
                assert (result.shifts, result.accesses) == (0, 0)
                assert result.per_dbc_shifts == (0, 0, 0)
                assert result.max_access_shifts == 0

    @pytest.mark.parametrize("num_ports", [1, 3])
    def test_eager_item_totals_equal_access_costs(self, num_ports):
        trace, config, placement = _wide_problem(num_ports, PortPolicy.EAGER)
        dbc_of, offset_of = slot_arrays(trace.items, placement)
        state, accesses, writes = scan_windows(
            [(trace._resolved.item_at, 0)], config, dbc_of, offset_of
        )
        dbc_seq, cost_seq = per_access_costs(trace, config, placement)
        totals = np.zeros(36, dtype=np.int64)
        maxes = np.zeros(36, dtype=np.int64)
        np.add.at(totals, dbc_seq, cost_seq)
        np.maximum.at(maxes, dbc_seq, cost_seq)
        assert np.array_equal(state.totals, totals)
        assert np.array_equal(state.maxes, maxes)
        assert (accesses, writes) == (len(trace), 0)

    @pytest.mark.parametrize("policy", [PortPolicy.LAZY, PortPolicy.EAGER])
    def test_record_outside_the_item_table_is_rejected(self, policy):
        # A corrupt .rtb record can name an item no placement covers.
        trace, config, placement = _wide_problem(3, policy)
        dbc_of, offset_of = slot_arrays(trace.items, placement)
        codes = np.array([0, len(trace.items)], dtype=np.uint32)
        with pytest.raises(IndexError):
            scan_windows([(codes, 0)], config, dbc_of, offset_of)

    def test_scan_failpoint_fires_once_per_streaming_window(self):
        from repro.errors import InjectedFaultError

        trace, config, placement = _wide_problem(3, PortPolicy.LAZY)
        chunks = -(-len(trace) // 97)
        with chaos_scope(f"stream.scan:nth={chunks}:raise=InjectedFaultError"):
            with pytest.raises(InjectedFaultError):
                simulate_streaming(trace, config, placement, chunk_size=97)
        with chaos_scope(f"stream.scan:nth={chunks + 1}:raise=InjectedFaultError"):
            simulate_streaming(trace, config, placement, chunk_size=97)
        with chaos_scope("stream.scan:raise=InjectedFaultError"):
            simulate_vectorized(trace, config, placement)


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
class TestParallel:
    def test_pool_scan_matches_sequential(self, tmp_path, fresh_pools):
        trace, config, placement = _problem(2, PortPolicy.LAZY, seed=21)
        path = tmp_path / "p.rtb"
        save_binary(trace, path)
        stream = open_binary(path)
        sequential = simulate_streaming(stream, config, placement, chunk_size=60)
        parallel = simulate_streaming(
            stream, config, placement, chunk_size=60, jobs=2
        )
        assert parallel.details["mode"] == "parallel"
        assert parallel.shifts == sequential.shifts
        assert parallel.per_dbc_shifts == sequential.per_dbc_shifts
        assert parallel.max_access_shifts == sequential.max_access_shifts

    def test_in_memory_trace_ships_arrays(self, fresh_pools):
        trace, config, placement = _problem(3, PortPolicy.LAZY, seed=22)
        reference = simulate_vectorized(trace, config, placement)
        parallel = simulate_streaming(
            trace, config, placement, chunk_size=50, jobs=2
        )
        assert parallel.details["mode"] == "parallel"
        assert parallel.shifts == reference.shifts

    def test_spawn_start_method_parity(self, tmp_path, fresh_pools, monkeypatch):
        monkeypatch.setenv(MP_START_ENV, "spawn")
        trace, config, placement = _problem(2, PortPolicy.LAZY, seed=23)
        path = tmp_path / "s.rtb"
        save_binary(trace, path)
        reference = simulate_vectorized(trace, config, placement)
        parallel = simulate_streaming(
            open_binary(path), config, placement, chunk_size=70, jobs=2
        )
        assert parallel.shifts == reference.shifts
        assert parallel.per_dbc_shifts == reference.per_dbc_shifts


class TestSpans:
    @pytest.mark.parametrize("num_chunks", [1, 2, 7, 8, 9])
    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    def test_contiguous_balanced_in_order(self, num_chunks, parts):
        chunks = [(10 * i, 10 * i + 10) for i in range(num_chunks)]
        parts = min(parts, num_chunks)
        spans = _spans(chunks, parts)
        assert len(spans) == parts
        assert [chunk for span in spans for chunk in span] == chunks
        sizes = [len(span) for span in spans]
        assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1


@pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
class TestSpanDispatch:
    """A pooled scan sends one task per span: ``min(jobs, chunks)``."""

    def _scan(self, tmp_path, monkeypatch, chunk_size, jobs):
        trace, config, placement = _problem(2, PortPolicy.LAZY, seed=24)
        path = tmp_path / "d.rtb"
        save_binary(trace, path)
        shipped = []
        run = pool_mod.WorkerPool.run

        def recording_run(pool, fn, tasks, **kwargs):
            shipped.extend(task[1] for task in tasks)
            return run(pool, fn, tasks, **kwargs)

        monkeypatch.setattr(pool_mod.WorkerPool, "run", recording_run)
        registry = get_registry()
        before = registry.counter_value("pool.dispatches")
        result = simulate_streaming(
            open_binary(path), config, placement, chunk_size=chunk_size,
            jobs=jobs,
        )
        dispatches = registry.counter_value("pool.dispatches") - before
        reference = simulate_vectorized(trace, config, placement)
        assert result.shifts == reference.shifts
        assert result.per_dbc_shifts == reference.per_dbc_shifts
        assert result.max_access_shifts == reference.max_access_shifts
        return result, dispatches, shipped

    def test_seven_chunks_on_two_jobs(self, tmp_path, monkeypatch, fresh_pools):
        result, dispatches, shipped = self._scan(tmp_path, monkeypatch, 72, 2)
        assert result.details["num_chunks"] == 7
        assert dispatches == 2
        assert [len(span) for span in shipped] == [4, 3]
        chunks = [chunk for span in shipped for chunk in span]
        assert chunks == [(s, min(s + 72, 500)) for s in range(0, 500, 72)]

    def test_more_jobs_than_chunks(self, tmp_path, monkeypatch, fresh_pools):
        result, dispatches, shipped = self._scan(tmp_path, monkeypatch, 200, 4)
        assert result.details["mode"] == "parallel"
        assert dispatches == 3
        assert shipped == [[(0, 200)], [(200, 400)], [(400, 500)]]

    def test_one_chunk_scans_in_process(self, tmp_path, monkeypatch, fresh_pools):
        # One span gains nothing from a worker: no task is sent.
        result, dispatches, shipped = self._scan(tmp_path, monkeypatch, 500, 2)
        assert result.details["mode"] == "sequential"
        assert dispatches == 0 and shipped == []

    @pytest.mark.parametrize("policy", [PortPolicy.LAZY, PortPolicy.EAGER])
    def test_task_failure_degrades_bit_identically(self, policy, fresh_pools):
        trace, config, placement = _problem(3, policy, seed=25)
        reference = simulate_vectorized(trace, config, placement)
        robust.reset_degradations()
        registry = get_registry()

        def observed(mode):
            # (scan, stitch) observations under one mode label.
            return tuple(
                (registry.histogram_summary(name, mode=mode) or {"count": 0})[
                    "count"
                ]
                for name in ("stream.scan.seconds", "stream.stitch.seconds")
            )

        before = {mode: observed(mode) for mode in ("parallel", "sequential")}
        with chaos_scope("pool.task:times=0"), pytest.warns(
            RuntimeWarning, match="degraded stream"
        ):
            result = simulate_streaming(
                trace, config, placement, chunk_size=45, jobs=2
            )
        assert robust.degradation_summary() == {
            "stream:parallel->sequential": 1
        }
        robust.reset_degradations()
        # The mode names the path that ran: the in-process rescan.
        assert result.details["mode"] == "sequential"
        assert observed("parallel") == before["parallel"]
        assert observed("sequential") == tuple(
            count + 1 for count in before["sequential"]
        )
        assert result.shifts == reference.shifts
        assert result.per_dbc_shifts == reference.per_dbc_shifts
        assert result.max_access_shifts == reference.max_access_shifts
        assert (result.reads, result.writes) == (
            reference.reads, reference.writes
        )


class TestScratchpadIntegration:
    def test_streaming_engine_selectable(self):
        trace, config, placement = _problem(2, PortPolicy.LAZY)
        spm = ScratchpadMemory(config, placement)
        reference = spm.simulate(trace, engine="vectorized")
        streamed = spm.simulate(trace, engine="streaming", chunk_size=64)
        assert streamed.shifts == reference.shifts
        assert streamed.details["engine"] == "streaming"

    def test_streaming_trace_auto_routes(self, tmp_path):
        trace, config, placement = _problem(1, PortPolicy.LAZY)
        path = tmp_path / "a.rtb"
        save_binary(trace, path)
        spm = ScratchpadMemory(config, placement)
        result = spm.simulate(open_binary(path))
        assert result.details["engine"] == "streaming"
        assert result.shifts == spm.simulate(trace, engine="vectorized").shifts

    def test_streaming_trace_rejects_in_memory_engines(self, tmp_path):
        trace, config, placement = _problem(1, PortPolicy.LAZY)
        path = tmp_path / "b.rtb"
        save_binary(trace, path)
        spm = ScratchpadMemory(config, placement)
        with pytest.raises(SimulationError, match="in-memory trace"):
            spm.simulate(open_binary(path), engine="vectorized")

    def test_fault_model_unsupported(self):
        from repro.dwm.faults import FaultModel

        trace, config, placement = _problem(1, PortPolicy.LAZY)
        spm = ScratchpadMemory(config, placement)
        with pytest.raises(SimulationError, match="fault injection"):
            spm.simulate(
                trace, engine="streaming", fault_model=FaultModel(seed=1)
            )

    def test_unknown_engine_message_lists_streaming(self):
        trace, config, placement = _problem(1, PortPolicy.LAZY)
        spm = ScratchpadMemory(config, placement)
        with pytest.raises(SimulationError, match="unknown simulation engine"):
            spm.simulate(trace, engine="warp")
