"""Differential tests: vectorized engine vs scalar engine vs evaluator.

The vectorized engine must be *bit-identical* to the scalar
``DWMArrayModel`` replay — total shifts, per-DBC shifts,
``max_access_shifts``, read/write counts — on every port-count × policy
combination, and its total must also match the reference
:func:`repro.core.cost.evaluate_placement`.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import robust
from repro.core.api import build_problem
from repro.core.baselines import random_placement
from repro.core.cost import evaluate_placement
from repro.core.placement import Placement
from repro.dwm.config import DWMConfig
from repro.errors import PlacementError, SimulationError
from repro.memory.batch_sim import (
    BatchSimulator,
    ResolvedTrace,
    batch_simulate,
    resolve_trace,
    simulate_vectorized,
    slot_arrays,
)
from repro.memory.spm import ScratchpadMemory
from repro.trace.model import AccessTrace
from repro.trace.synthetic import markov_trace, pingpong_trace, zipf_trace

PORT_COUNTS = (1, 2, 3)
POLICIES = ("lazy", "eager")


def _assert_identical(scalar, vectorized):
    assert vectorized.shifts == scalar.shifts
    assert vectorized.per_dbc_shifts == scalar.per_dbc_shifts
    assert vectorized.max_access_shifts == scalar.max_access_shifts
    assert vectorized.reads == scalar.reads
    assert vectorized.writes == scalar.writes
    assert vectorized.trace_name == scalar.trace_name
    assert vectorized.config_description == scalar.config_description


def _config_for(trace, words_per_dbc, num_ports, policy):
    return DWMConfig.for_items(
        trace.num_items,
        words_per_dbc=words_per_dbc,
        num_ports=num_ports,
        port_policy=policy,
    )


class TestDifferential:
    @pytest.mark.parametrize("num_ports", PORT_COUNTS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_markov_all_port_policy_combos(self, num_ports, policy):
        trace = markov_trace(40, 2500, locality=0.8, seed=11)
        config = _config_for(trace, 16, num_ports, policy)
        problem = build_problem(trace, config)
        for seed in (0, 1):
            placement = random_placement(problem, seed=seed)
            spm = ScratchpadMemory(config, placement)
            scalar = spm.simulate(trace, engine="scalar")
            vectorized = spm.simulate(trace, engine="vectorized")
            _assert_identical(scalar, vectorized)
            assert vectorized.shifts == evaluate_placement(problem, placement)

    @pytest.mark.parametrize("num_ports", PORT_COUNTS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_zipf_skewed_trace(self, num_ports, policy):
        trace = zipf_trace(30, 1500, seed=5)
        config = _config_for(trace, 8, num_ports, policy)
        placement = random_placement(build_problem(trace, config), seed=3)
        scalar = ScratchpadMemory(config, placement).simulate(trace, engine="scalar")
        vectorized = simulate_vectorized(trace, config, placement)
        _assert_identical(scalar, vectorized)

    def test_pingpong_adversarial(self):
        trace = pingpong_trace(num_pairs=4, rounds=50)
        config = _config_for(trace, 8, 1, "lazy")
        placement = random_placement(build_problem(trace, config), seed=0)
        scalar = ScratchpadMemory(config, placement).simulate(trace, engine="scalar")
        vectorized = simulate_vectorized(trace, config, placement)
        _assert_identical(scalar, vectorized)

    def test_non_uniform_port_layout(self):
        """Hand-placed (asymmetric) ports, including one at offset 0."""
        trace = markov_trace(12, 800, seed=2)
        config = DWMConfig(
            words_per_dbc=12,
            num_dbcs=1,
            port_offsets=(0, 5, 11),
        )
        placement = Placement(
            {item: (0, position) for position, item in enumerate(trace.items)}
        )
        scalar = ScratchpadMemory(config, placement).simulate(trace, engine="scalar")
        vectorized = simulate_vectorized(trace, config, placement)
        _assert_identical(scalar, vectorized)

    def test_tiny_traces(self, tiny_trace, small_config):
        placement = Placement({"a": (0, 0), "b": (1, 3), "c": (0, 7)})
        scalar = ScratchpadMemory(small_config, placement).simulate(
            tiny_trace, engine="scalar"
        )
        vectorized = simulate_vectorized(tiny_trace, small_config, placement)
        _assert_identical(scalar, vectorized)

    def test_single_access_trace(self, single_dbc_config):
        trace = AccessTrace([("x", "W")], name="one")
        placement = Placement({"x": (0, 7)})
        scalar = ScratchpadMemory(single_dbc_config, placement).simulate(
            trace, engine="scalar"
        )
        vectorized = simulate_vectorized(trace, single_dbc_config, placement)
        _assert_identical(scalar, vectorized)
        assert vectorized.shifts == 3  # |7 - port@4|


class TestBatchAPI:
    def test_batch_simulator_matches_one_shot(self):
        trace = markov_trace(24, 1200, seed=9)
        simulator = BatchSimulator(trace)
        for num_ports in (1, 2):
            config = _config_for(trace, 8, num_ports, "lazy")
            placement = random_placement(build_problem(trace, config), seed=1)
            batch_result = simulator.simulate(config, placement)
            one_shot = simulate_vectorized(trace, config, placement)
            assert batch_result.shifts == one_shot.shifts
            assert batch_result.per_dbc_shifts == one_shot.per_dbc_shifts

    def test_batch_simulate_preserves_run_order(self):
        trace = markov_trace(20, 600, seed=4)
        runs = []
        for words_per_dbc in (8, 16):
            config = _config_for(trace, words_per_dbc, 1, "lazy")
            placement = random_placement(build_problem(trace, config), seed=0)
            runs.append((config, placement))
        results = batch_simulate(trace, runs)
        assert [r.config_description for r in results] == [
            config.describe() for config, _ in runs
        ]

    def test_resolution_amortized(self):
        """The batch API reports resolve cost once, then zero."""
        trace = markov_trace(16, 500, seed=6)
        config = _config_for(trace, 8, 1, "lazy")
        placement = random_placement(build_problem(trace, config), seed=0)
        simulator = BatchSimulator(trace)
        first = simulator.simulate(config, placement)
        second = simulator.simulate(config, placement)
        assert first.details["resolve_seconds"] >= 0.0
        assert second.details["resolve_seconds"] == 0.0

    def test_resolved_trace_counts(self):
        trace = markov_trace(10, 300, write_fraction=0.4, seed=8)
        resolved = ResolvedTrace(trace)
        reads, writes = trace.read_write_counts()
        assert resolved.reads == reads
        assert resolved.writes == writes
        assert resolved.item_at.shape == (len(trace),)

    def test_cached_resolution_frees_with_its_trace(self):
        # The trace caches its resolution; the resolution must not hold the
        # trace strongly, or the pair waits for a full cyclic collection
        # (and forked pool workers inherit the dead records).
        trace = markov_trace(10, 300, seed=8)
        resolved = resolve_trace(trace)
        assert resolved.trace is trace
        alive = weakref.ref(trace)
        gc.disable()
        try:
            del trace
            assert alive() is None
        finally:
            gc.enable()
        assert resolved.trace is None


class TestEngineSelection:
    def test_auto_uses_vectorized_on_short_trace(self, tiny_trace, small_config):
        placement = Placement({"a": (0, 0), "b": (1, 3), "c": (0, 7)})
        result = ScratchpadMemory(small_config, placement).simulate(tiny_trace)
        assert result.details["engine"] == "vectorized"

    def test_auto_falls_back_to_scalar_on_recoverable_failure(
        self, tiny_trace, small_config, monkeypatch
    ):
        placement = Placement({"a": (0, 0), "b": (1, 3), "c": (0, 7)})
        expected = ScratchpadMemory(small_config, placement).simulate(
            tiny_trace, engine="scalar"
        )

        def out_of_memory(*args, **kwargs):
            raise MemoryError("no room for the scan")

        monkeypatch.setattr(BatchSimulator, "simulate", out_of_memory)
        robust.reset_degradations()
        try:
            with pytest.warns(RuntimeWarning, match="vectorized -> scalar"):
                result = ScratchpadMemory(small_config, placement).simulate(
                    tiny_trace
                )
            summary = robust.degradation_summary()
        finally:
            robust.reset_degradations()
        assert result.details["engine"] == "scalar"
        _assert_identical(expected, result)
        assert summary == {"engine:vectorized->scalar": 1}

    def test_auto_propagates_simulation_error(
        self, tiny_trace, small_config, monkeypatch
    ):
        placement = Placement({"a": (0, 0), "b": (1, 3), "c": (0, 7)})

        def inconsistent(*args, **kwargs):
            raise SimulationError("scan disagrees with itself")

        monkeypatch.setattr(BatchSimulator, "simulate", inconsistent)
        spm = ScratchpadMemory(small_config, placement)
        with pytest.raises(SimulationError, match="disagrees"):
            spm.simulate(tiny_trace)

    def test_unknown_engine_rejected(self, tiny_trace, small_config):
        placement = Placement({"a": (0, 0), "b": (1, 3), "c": (0, 7)})
        spm = ScratchpadMemory(small_config, placement)
        with pytest.raises(SimulationError, match="unknown simulation engine"):
            spm.simulate(tiny_trace, engine="quantum")

    def test_perf_counters_present(self):
        trace = markov_trace(16, 400, seed=0)
        config = _config_for(trace, 8, 1, "lazy")
        placement = random_placement(build_problem(trace, config), seed=0)
        result = simulate_vectorized(trace, config, placement)
        assert result.details["engine"] == "vectorized"
        assert result.details["resolve_seconds"] >= 0.0
        assert result.details["scan_seconds"] >= 0.0


class TestValidationCaching:
    def test_validate_called_once_per_trace(self, monkeypatch):
        """Satellite: repeated simulate* on one (trace, placement) pair
        must not re-validate or re-resolve every call."""
        trace = markov_trace(12, 300, seed=3)
        config = _config_for(trace, 8, 1, "lazy")
        placement = random_placement(build_problem(trace, config), seed=0)
        spm = ScratchpadMemory(config, placement)
        calls = []
        original = placement.validate
        monkeypatch.setattr(
            placement,
            "validate",
            lambda *args, **kwargs: (calls.append(1), original(*args, **kwargs))[1],
        )
        for _ in range(3):
            spm.simulate(trace, engine="scalar")
        for _ in range(3):
            spm.simulate(trace, engine="vectorized")
        spm.simulate_functional(trace)
        assert len(calls) == 1

    def test_invalid_placement_still_rejected(self, tiny_trace, small_config):
        incomplete = Placement({"a": (0, 0)})
        spm = ScratchpadMemory(small_config, incomplete)
        with pytest.raises(Exception):
            spm.simulate(tiny_trace, engine="vectorized")

    def test_slot_arrays_follow_items_and_reject_missing(self):
        placement = Placement({"a": (1, 3), "b": (0, 5)})
        dbc_of, offset_of = slot_arrays(("b", "a"), placement)
        assert dbc_of.tolist() == [0, 1] and offset_of.tolist() == [5, 3]
        assert str(dbc_of.dtype) == "int64"
        with pytest.raises(PlacementError):
            slot_arrays(("a", "c"), placement)
