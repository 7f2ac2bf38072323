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

import numpy as np
import pytest

from repro import robust
from repro.core.api import build_problem
from repro.core.baselines import random_placement
from repro.core.cost import evaluate_placement
from repro.core.placement import Placement
from repro.dwm.config import DWMConfig
from repro.errors import PlacementError, SimulationError
from repro.memory import spm as spm_module
from repro.memory.batch_sim import (
    ResolvedTrace,
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
    def test_resolved_trace_counts(self):
        trace = markov_trace(10, 300, write_fraction=0.4, seed=8)
        code = {item: index for index, item in enumerate(trace.items)}
        resolved = ResolvedTrace(
            trace.items,
            np.array([code[access.item] for access in trace], dtype=np.int64),
            np.array([access.is_write for access in trace], dtype=np.bool_),
        )
        writes = sum(access.is_write for access in trace)
        assert (resolved.reads, resolved.writes) == (len(trace) - writes, writes)
        assert resolved.item_at.shape == (len(trace),)

    def test_cached_resolution_frees_with_its_trace(self):
        # The trace owns its resolution; nothing may hold either in a
        # cycle, or the pair (and the per-access records) waits for a full
        # cyclic collection, and forked pool workers inherit the dead data.
        trace = markov_trace(10, 300, seed=8)
        resolved = resolve_trace(trace)
        resolved.item_positions  # the cached index is part of the pair
        refs = [weakref.ref(obj) for obj in (trace, resolved, resolved.item_at)]
        gc.disable()
        try:
            del trace, resolved
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()


def _index_traces():
    from repro.trace.kernels import benchmark_suite

    traces = list(benchmark_suite().values())
    traces.append(markov_trace(40, 3000, seed=21))
    # Dense rebuild whose item order is not first-touch order, as a sampled
    # streaming trace's is.
    items = ("z", "y", "x", "w")
    item_at = np.asarray([2, 0, 2, 3, 1, 0, 2, 3], dtype=np.int64)
    traces.append(
        AccessTrace._from_dense(items, item_at, np.zeros(8, dtype=np.bool_))
    )
    return traces


class TestPositionIndex:
    @pytest.mark.parametrize("trace", _index_traces(), ids=lambda t: t.name)
    def test_csr_is_each_items_positions(self, trace):
        resolved = resolve_trace(trace)
        item_pos, item_start = resolved.item_positions
        for array in (item_pos, item_start):
            assert array.dtype == np.int64 and array.flags.c_contiguous
        assert item_start.size == len(resolved.items) + 1
        for code in range(len(resolved.items)):
            expected = np.flatnonzero(resolved.item_at == code)
            got = item_pos[item_start[code] : item_start[code + 1]]
            assert got.tolist() == expected.tolist()
            assert resolved.positions_of([code]).tolist() == expected.tolist()

    @pytest.mark.parametrize("trace", _index_traces(), ids=lambda t: t.name)
    def test_positions_of_is_the_member_mask(self, trace):
        resolved = resolve_trace(trace)
        rng = np.random.default_rng(len(trace))
        size = len(resolved.items)
        for count in (0, 1, 2, size // 2, size):
            codes = rng.choice(size, count, replace=False)
            mask = np.zeros(size, dtype=bool)
            mask[codes] = True
            expected = np.flatnonzero(mask[resolved.item_at])
            assert resolved.positions_of(codes).tolist() == expected.tolist()

    def test_built_once_per_resolution(self):
        trace = markov_trace(12, 400, seed=3)
        resolved = resolve_trace(trace)
        item_pos, _item_start = resolved.item_positions
        assert resolve_trace(trace).item_positions[0] is item_pos
        # One item's positions are its slice of the index, not a copy, and
        # the shared index refuses writes.
        assert resolved.positions_of([0]).base is item_pos
        with pytest.raises(ValueError):
            resolved.positions_of([0])[0] = 0


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

        monkeypatch.setattr(spm_module, "simulate_vectorized", out_of_memory)
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

        monkeypatch.setattr(spm_module, "simulate_vectorized", inconsistent)
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
