"""Tests for the chunked streaming engine (repro.memory.stream_sim).

The load-bearing property is bit-identity with the in-memory vectorized
engine — checked here across policies, port counts and chunk sizes
(including the degenerate one-access-per-chunk and single-chunk corners),
on all three scan modes: sequential head-carrying, in-process map+merge,
and the pool-parallel fan-out (fork and spawn).  The merge algebra is
additionally checked for associativity: any bracketing of the chunk fold
must finalize to the same totals.
"""

from __future__ import annotations

import functools
import multiprocessing
import random

import pytest

from repro.analysis import pool as pool_mod
from repro.analysis.parallel import MP_START_ENV
from repro.core.api import build_problem
from repro.core.baselines import declaration_order_placement
from repro.dwm.config import DWMConfig, PortPolicy
from repro.errors import SimulationError
from repro.memory.batch_sim import simulate_vectorized, slot_arrays
from repro.memory.spm import ScratchpadMemory
from repro.memory.stream_sim import (
    ChunkState,
    finalize_state,
    merge_states,
    scan_chunk,
    simulate_streaming,
    _window,
)
from repro.trace.binio import open_binary, save_binary
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
            scan_chunk(
                *_window(trace, start, stop), config, dbc_of, offset_of
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
        trace, config, placement = _problem(2, PortPolicy.LAZY)
        states = self._states(trace, config, placement, [250])
        empty = ChunkState(
            policy=config.port_policy.value,
            ports=config.port_offsets,
            accesses=0,
            writes=0,
            dbcs={},
        )
        assert merge_states(empty, states[0]) is states[0]
        assert merge_states(states[0], empty) is states[0]

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
