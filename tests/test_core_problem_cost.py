"""Unit tests for repro.core.problem and repro.core.cost."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cost import (
    evaluate_placement,
    linear_arrangement_cost,
    per_dbc_costs,
)
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem, PlacementResult
from repro.dwm.config import DWMConfig, PortPolicy
from repro.errors import CapacityError, PlacementError, TraceError
from repro.trace.model import AccessTrace
from repro.trace.stats import affinity_graph, hot_items


class TestPlacementProblem:
    def test_empty_trace_raises(self, small_config):
        with pytest.raises(TraceError):
            PlacementProblem(trace=AccessTrace([]), config=small_config)

    def test_over_capacity_raises(self):
        config = DWMConfig(words_per_dbc=2, num_dbcs=1)
        trace = AccessTrace(["a", "b", "c"])
        with pytest.raises(CapacityError):
            PlacementProblem(trace=trace, config=config)

    def test_items_first_touch(self, tiny_trace, small_config):
        problem = PlacementProblem(trace=tiny_trace, config=small_config)
        assert problem.items == ("a", "b", "c")
        assert problem.num_items == 3

    def test_affinity_cached(self, tiny_trace, small_config):
        problem = PlacementProblem(trace=tiny_trace, config=small_config)
        assert problem.affinity is problem.affinity

    def test_hot_order(self, small_config):
        trace = AccessTrace(["a", "b", "b"])
        problem = PlacementProblem(trace=trace, config=small_config)
        assert problem.hot_order == ("b", "a")

    def test_index_sequence(self, tiny_trace, small_config):
        # Evaluators read the dense index sequence from the trace's one
        # resolution, numbered like the problem's items.
        from repro.memory.batch_sim import resolve_trace

        problem = PlacementProblem(trace=tiny_trace, config=small_config)
        resolved = resolve_trace(problem.trace)
        assert resolved.items == problem.items
        assert resolved.item_at.tolist() == [0, 1, 0, 2, 1]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "x1", "x10"]),
            min_size=1,
            max_size=80,
        )
    )
    def test_derived_tables_match_the_trace(self, sequence):
        # The tables come from the resolved codes but must equal what the
        # trace-level helpers compute, dict key order included.
        trace = AccessTrace(sequence)
        config = DWMConfig(words_per_dbc=4, num_dbcs=3)
        problem = PlacementProblem(trace=trace, config=config)
        expected = affinity_graph(trace)
        assert list(problem.affinity.items()) == list(expected.items())
        assert problem.frequencies == dict(trace.frequencies())
        assert list(problem.hot_order) == hot_items(trace)
        for item in problem.items:
            assert problem.neighbors[item] == {
                (right if left == item else left): weight
                for (left, right), weight in expected.items()
                if item in (left, right)
            }

    def test_min_dbcs_needed(self):
        config = DWMConfig(words_per_dbc=2, num_dbcs=4)
        trace = AccessTrace(["a", "b", "c"])
        problem = PlacementProblem(trace=trace, config=config)
        assert problem.min_dbcs_needed == 2

    def test_with_config(self, tiny_trace, small_config, single_dbc_config):
        problem = PlacementProblem(trace=tiny_trace, config=small_config)
        moved = problem.with_config(single_dbc_config)
        assert moved.trace is tiny_trace
        assert moved.config is single_dbc_config


class TestEvaluatePlacementLazySinglePort:
    def make_problem(self, sequence, words=8, dbcs=2, ports=(0,)):
        config = DWMConfig(words_per_dbc=words, num_dbcs=dbcs, port_offsets=ports)
        return PlacementProblem(trace=AccessTrace(sequence), config=config)

    def test_hand_computed_single_dbc(self):
        # Port at 0.  a@0, b@3: trace a b a -> 0 + 3 + 3 = 6.
        problem = self.make_problem(["a", "b", "a"])
        placement = Placement({"a": (0, 0), "b": (0, 3)})
        assert evaluate_placement(problem, placement) == 6

    def test_first_access_pays_port_approach(self):
        problem = self.make_problem(["a"])
        placement = Placement({"a": (0, 5)})
        assert evaluate_placement(problem, placement) == 5

    def test_cross_dbc_transitions_free(self):
        # a and b on different DBCs at their ports: all accesses free.
        problem = self.make_problem(["a", "b", "a", "b"])
        placement = Placement({"a": (0, 0), "b": (1, 0)})
        assert evaluate_placement(problem, placement) == 0

    def test_same_dbc_alternation_costs(self):
        problem = self.make_problem(["a", "b", "a", "b"])
        placement = Placement({"a": (0, 0), "b": (0, 1)})
        # 0 (a) + 1 + 1 + 1 = 3
        assert evaluate_placement(problem, placement) == 3

    def test_missing_item_raises_with_validate(self):
        problem = self.make_problem(["a", "b"])
        placement = Placement({"a": (0, 0)})
        with pytest.raises(PlacementError):
            evaluate_placement(problem, placement, validate=True)


class TestEvaluatePlacementMultiPort:
    def test_uses_cheapest_port(self):
        config = DWMConfig(words_per_dbc=16, num_dbcs=1, port_offsets=(0, 15))
        problem = PlacementProblem(
            trace=AccessTrace(["a", "b"]), config=config
        )
        placement = Placement({"a": (0, 0), "b": (0, 15)})
        # a via port 0 costs 0; b via port 15 costs 0 (head state unchanged).
        assert evaluate_placement(problem, placement) == 0

    def test_head_shared_between_ports(self):
        config = DWMConfig(words_per_dbc=16, num_dbcs=1, port_offsets=(0, 15))
        problem = PlacementProblem(
            trace=AccessTrace(["a", "b", "a"]), config=config
        )
        placement = Placement({"a": (0, 2), "b": (0, 13)})
        # a: min(|2-0|, |2-15 - 0|) = 2, head=2.
        # b: targets 13 (port 0) or -2 (port 15): |13-2|=11 vs |-2-2|=4 -> 4, head=-2.
        # a: targets 2 or -13: |2-(-2)|=4 vs |-13+2|=11 -> 4.
        assert evaluate_placement(problem, placement) == 10


class TestEvaluatePlacementEager:
    def test_eager_cost_is_round_trip(self):
        config = DWMConfig(
            words_per_dbc=8, num_dbcs=1, port_offsets=(0,),
            port_policy=PortPolicy.EAGER,
        )
        problem = PlacementProblem(
            trace=AccessTrace(["a", "a"]), config=config
        )
        placement = Placement({"a": (0, 3)})
        # Each access: 3 out + 3 back.
        assert evaluate_placement(problem, placement) == 12

    def test_eager_multiport(self):
        config = DWMConfig(
            words_per_dbc=16, num_dbcs=1, port_offsets=(0, 15),
            port_policy=PortPolicy.EAGER,
        )
        problem = PlacementProblem(trace=AccessTrace(["a"]), config=config)
        placement = Placement({"a": (0, 14)})
        assert evaluate_placement(problem, placement) == 2  # 1 out, 1 back


class TestPerDbcCosts:
    def test_sums_to_total(self, locality_problem):
        from repro.core.baselines import declaration_order_placement

        placement = declaration_order_placement(locality_problem)
        costs = per_dbc_costs(locality_problem, placement)
        assert sum(costs.values()) == evaluate_placement(
            locality_problem, placement
        )

    def test_attribution(self):
        config = DWMConfig(words_per_dbc=8, num_dbcs=2, port_offsets=(0,))
        problem = PlacementProblem(
            trace=AccessTrace(["a", "b"]), config=config
        )
        placement = Placement({"a": (0, 2), "b": (1, 5)})
        costs = per_dbc_costs(problem, placement)
        assert costs == {0: 2, 1: 5}


class TestLinearArrangementCost:
    def test_hand_computed(self):
        affinity = {("a", "b"): 3, ("b", "c"): 1}
        assert linear_arrangement_cost(["a", "b", "c"], affinity) == 3 * 1 + 1 * 1
        assert linear_arrangement_cost(["b", "a", "c"], affinity) == 3 * 1 + 1 * 2

    def test_duplicate_order_raises(self):
        with pytest.raises(PlacementError):
            linear_arrangement_cost(["a", "a"], {})

    def test_ignores_items_outside_order(self):
        affinity = {("a", "z"): 5}
        assert linear_arrangement_cost(["a", "b"], affinity) == 0

    def test_matches_trace_cost_single_dbc_port_zero(self):
        """MinLA objective == true cost (minus initial approach) for one DBC."""
        from repro.trace.stats import affinity_graph

        sequence = ["a", "b", "c", "a", "c", "b", "a"]
        trace = AccessTrace(sequence)
        config = DWMConfig(words_per_dbc=8, num_dbcs=1, port_offsets=(0,))
        problem = PlacementProblem(trace=trace, config=config)
        order = ["b", "a", "c"]
        placement = Placement(
            {item: (0, index) for index, item in enumerate(order)}
        )
        affinity = affinity_graph(trace)
        position = {item: i for i, item in enumerate(order)}
        initial = position[sequence[0]]  # approach from port 0
        assert (
            evaluate_placement(problem, placement)
            == linear_arrangement_cost(order, affinity) + initial
        )


class TestPlacementResult:
    def test_shifts_per_access(self):
        result = PlacementResult(
            method="x",
            placement=Placement({"a": (0, 0)}),
            total_shifts=10,
            details={"num_accesses": 5},
        )
        assert result.shifts_per_access == 2.0

    def test_normalized_to(self):
        placement = Placement({"a": (0, 0)})
        ours = PlacementResult("x", placement, total_shifts=5)
        base = PlacementResult("y", placement, total_shifts=10)
        assert ours.normalized_to(base) == 0.5

    def test_normalized_to_zero_baseline(self):
        placement = Placement({"a": (0, 0)})
        zero = PlacementResult("y", placement, total_shifts=0)
        assert PlacementResult("x", placement, 0).normalized_to(zero) == 0.0
        assert PlacementResult("x", placement, 3).normalized_to(zero) == float("inf")
