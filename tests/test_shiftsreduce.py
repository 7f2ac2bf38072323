"""Unit tests for the ShiftsReduce bidirectional placement."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import build_problem, optimize_placement
from repro.core.cost import evaluate_placement
from repro.core.shiftsreduce import bidirectional_order, shiftsreduce_placement
from repro.dwm.config import DWMConfig
from repro.errors import OptimizationError
from repro.trace.model import AccessTrace
from repro.trace.synthetic import markov_trace, pingpong_trace, zipf_trace


def _bidirectional_order_reference(items, affinity, frequencies=None):
    """The literal O(k³) definition: re-sum over the placed set each step."""
    items = list(items)
    if len(items) <= 1:
        return items
    frequencies = frequencies or {}
    member = set(items)
    rank = {item: position for position, item in enumerate(items)}
    weight = {}
    degree = {item: 0 for item in items}
    for (left, right), value in affinity.items():
        if left in member and right in member and left != right and value > 0:
            weight[(left, right)] = weight.get((left, right), 0) + value
            weight[(right, left)] = weight.get((right, left), 0) + value
            degree[left] += value
            degree[right] += value

    def tie_key(item):
        return (degree[item], frequencies.get(item, 0), -rank[item])

    seed = max(items, key=tie_key)
    position = {seed: 0}
    left_end = right_end = 0
    remaining = [item for item in items if item != seed]
    while remaining:
        best = max(
            remaining,
            key=lambda item: (
                sum(weight.get((item, placed), 0) for placed in position),
            )
            + tie_key(item),
        )
        left_cost = sum(
            weight.get((best, placed), 0) * (q - (left_end - 1))
            for placed, q in position.items()
        )
        right_cost = sum(
            weight.get((best, placed), 0) * ((right_end + 1) - q)
            for placed, q in position.items()
        )
        if left_cost < right_cost:
            left_end -= 1
            position[best] = left_end
        else:
            right_end += 1
            position[best] = right_end
        remaining.remove(best)
    return sorted(position, key=position.get)


_NAMES = "abcdefghij"


class TestBidirectionalOrder:
    @settings(max_examples=200, deadline=None)
    @given(
        items=st.lists(st.sampled_from(_NAMES), unique=True, max_size=len(_NAMES)),
        edges=st.dictionaries(
            st.tuples(st.sampled_from(_NAMES), st.sampled_from(_NAMES)),
            st.integers(min_value=0, max_value=4),
            max_size=30,
        ),
        heat=st.dictionaries(
            st.sampled_from(_NAMES), st.integers(min_value=0, max_value=3)
        ),
    )
    def test_matches_reference_definition(self, items, edges, heat):
        # Small weights force ties in attachment, degree and heat.
        assert bidirectional_order(items, edges, heat) == (
            _bidirectional_order_reference(items, edges, heat)
        )

    def test_trivial_sizes(self):
        assert bidirectional_order([], {}) == []
        assert bidirectional_order(["a"], {}) == ["a"]

    def test_duplicate_items_raise(self):
        with pytest.raises(OptimizationError):
            bidirectional_order(["a", "a"], {})

    def test_is_a_permutation(self):
        items = [f"v{i}" for i in range(8)]
        affinity = {("v0", "v1"): 3, ("v1", "v2"): 2, ("v5", "v6"): 4}
        order = bidirectional_order(items, affinity)
        assert sorted(order) == sorted(items)

    def test_highest_degree_seed_sits_between_its_neighbours(self):
        # Star around "hub": the hub seeds the chain and satellites attach
        # on both sides, so the hub cannot end up at either extreme end.
        items = ["hub", "a", "b", "c", "d"]
        affinity = {
            ("hub", "a"): 5,
            ("hub", "b"): 5,
            ("hub", "c"): 5,
            ("hub", "d"): 5,
        }
        order = bidirectional_order(items, affinity)
        position = order.index("hub")
        assert 0 < position < len(order) - 1

    def test_chain_affinity_recovers_the_chain(self):
        items = ["a", "b", "c", "d", "e"]
        affinity = {
            ("a", "b"): 10,
            ("b", "c"): 10,
            ("c", "d"): 10,
            ("d", "e"): 10,
        }
        order = bidirectional_order(items, affinity)
        index = {item: position for position, item in enumerate(order)}
        for left, right in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")):
            assert abs(index[left] - index[right]) == 1

    def test_deterministic_across_runs(self):
        trace = markov_trace(9, 150, locality=0.6, seed=7)
        problem = build_problem(trace, DWMConfig(words_per_dbc=16, num_dbcs=1))
        first = bidirectional_order(list(problem.items), problem.affinity)
        for _ in range(3):
            again = bidirectional_order(list(problem.items), problem.affinity)
            assert again == first


class TestShiftsreducePlacement:
    @pytest.mark.parametrize("num_ports", [1, 2])
    def test_never_worse_than_heuristic(self, num_ports):
        for seed in range(4):
            trace = markov_trace(10, 180, locality=0.7, seed=seed)
            config = DWMConfig.for_items(
                trace.num_items, words_per_dbc=8, num_ports=num_ports
            )
            heuristic = optimize_placement(trace, config, method="heuristic")
            ours = optimize_placement(trace, config, method="shiftsreduce")
            assert ours.total_shifts <= heuristic.total_shifts

    def test_valid_on_eager_policy(self):
        trace = zipf_trace(8, 120, seed=3)
        config = DWMConfig(
            words_per_dbc=8,
            num_dbcs=2,
            port_offsets=(0, 5),
            port_policy="eager",
        )
        result = optimize_placement(trace, config, method="shiftsreduce")
        result.placement.validate(config, list(trace.items))
        heuristic = optimize_placement(trace, config, method="heuristic")
        assert result.total_shifts <= heuristic.total_shifts

    def test_beats_declaration_on_pingpong(self):
        trace = pingpong_trace(4, 30)
        config = DWMConfig.for_items(trace.num_items, words_per_dbc=4)
        ours = optimize_placement(trace, config, method="shiftsreduce")
        declaration = optimize_placement(trace, config, method="declaration")
        assert ours.total_shifts <= declaration.total_shifts

    def test_single_item_trace(self):
        trace = AccessTrace([("x", "read")] * 5)
        config = DWMConfig(words_per_dbc=4, num_dbcs=1)
        problem = build_problem(trace, config)
        placement = shiftsreduce_placement(problem)
        placement.validate(config, ["x"])
        assert evaluate_placement(problem, placement) >= 0

    def test_deterministic_placement(self):
        trace = markov_trace(8, 120, locality=0.5, seed=11)
        config = DWMConfig(words_per_dbc=4, num_dbcs=3)
        problem = build_problem(trace, config)
        first = shiftsreduce_placement(problem).as_dict()
        for _ in range(3):
            assert shiftsreduce_placement(problem).as_dict() == first
