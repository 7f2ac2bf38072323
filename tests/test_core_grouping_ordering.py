"""Unit tests for the grouping and ordering phases of the heuristic."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cost import evaluate_placement, per_dbc_costs
from repro.core.generalized import port_aware_layouts
from repro.core.grouping import (
    greedy_min_affinity_grouping,
    intra_group_affinity,
    refine_grouping,
)
from repro.core.heuristic import grouping_portfolio
from repro.core.ordering import (
    GroupTrace,
    anchored_offsets,
    greedy_chain_order,
    heuristic_layouts,
    layout_groups,
    order_groups,
    proximity_offsets,
    weighted_median_index,
)
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.core.shiftsreduce import bidirectional_layouts
from repro.dwm.config import DWMConfig, PortPolicy
from repro.errors import OptimizationError
from repro.trace.model import AccessTrace
from repro.trace.stats import affinity_graph
from repro.trace.synthetic import markov_trace, pingpong_trace
from tests.test_fast_eval_ports import GEOMETRIES


class TestIntraGroupAffinity:
    def test_counts_shared_group_pairs(self):
        affinity = {("a", "b"): 3, ("b", "c"): 2, ("a", "c"): 1}
        groups = [["a", "b"], ["c"]]
        assert intra_group_affinity(groups, affinity) == 3

    def test_empty_groups_zero(self):
        assert intra_group_affinity([[], []], {("a", "b"): 1}) == 0


class TestGreedyGrouping:
    def make_problem(self, sequence, words=2, dbcs=3):
        config = DWMConfig(words_per_dbc=words, num_dbcs=dbcs, port_offsets=(0,))
        return PlacementProblem(trace=AccessTrace(sequence), config=config)

    def test_respects_capacity(self):
        problem = self.make_problem(["a", "b", "c", "d", "e", "f"], words=2)
        groups = greedy_min_affinity_grouping(problem)
        assert all(len(group) <= 2 for group in groups)
        placed = [item for group in groups for item in group]
        assert sorted(placed) == sorted(problem.items)

    def test_splits_alternating_pair(self):
        # a,b alternate heavily: keeping them apart zeroes the interference.
        problem = self.make_problem(["a", "b"] * 20 + ["c", "d"], words=2)
        groups = greedy_min_affinity_grouping(problem)
        group_of = {
            item: index for index, group in enumerate(groups) for item in group
        }
        assert group_of["a"] != group_of["b"]


class TestRefineGrouping:
    def test_never_increases_intra_affinity(self, locality_problem):
        groups = greedy_min_affinity_grouping(locality_problem)
        before = intra_group_affinity(groups, locality_problem.affinity)
        refined = refine_grouping(groups, locality_problem)
        after = intra_group_affinity(refined, locality_problem.affinity)
        assert after <= before

    def test_preserves_items_and_capacity(self, locality_problem):
        groups = greedy_min_affinity_grouping(locality_problem)
        refined = refine_grouping(groups, locality_problem)
        capacity = locality_problem.config.words_per_dbc
        assert all(len(group) <= capacity for group in refined)
        placed = sorted(item for group in refined for item in group)
        assert placed == sorted(locality_problem.items)

    def test_fixes_bad_initial_grouping(self):
        trace = AccessTrace(["a", "b"] * 30 + ["c", "d"] * 30)
        config = DWMConfig(words_per_dbc=2, num_dbcs=2, port_offsets=(0,))
        problem = PlacementProblem(trace=trace, config=config)
        bad = [["a", "b"], ["c", "d"]]  # both hot pairs share a DBC
        refined = refine_grouping(bad, problem)
        assert intra_group_affinity(refined, problem.affinity) < (
            intra_group_affinity(bad, problem.affinity)
        )


class TestGreedyChainOrder:
    def test_heavy_edges_adjacent(self):
        affinity = {("a", "b"): 10, ("b", "c"): 8, ("a", "c"): 1}
        order = greedy_chain_order(["a", "b", "c"], affinity)
        positions = {item: i for i, item in enumerate(order)}
        assert abs(positions["a"] - positions["b"]) == 1
        assert abs(positions["b"] - positions["c"]) == 1

    def test_all_items_kept(self):
        affinity = {("a", "b"): 1}
        order = greedy_chain_order(["a", "b", "c", "d"], affinity)
        assert sorted(order) == ["a", "b", "c", "d"]

    def test_no_affinity_keeps_input_order(self):
        order = greedy_chain_order(["x", "y", "z"], {})
        assert order == ["x", "y", "z"]

    def test_cycle_avoided(self):
        # Triangle: all three edges heavy; the chain can use only two.
        affinity = {("a", "b"): 5, ("b", "c"): 5, ("a", "c"): 5}
        order = greedy_chain_order(["a", "b", "c"], affinity)
        assert len(order) == 3
        assert len(set(order)) == 3

    def test_duplicates_raise(self):
        with pytest.raises(OptimizationError):
            greedy_chain_order(["a", "a"], {})

    def test_deterministic(self):
        affinity = {("a", "b"): 2, ("c", "d"): 2, ("b", "c"): 1}
        first = greedy_chain_order(["a", "b", "c", "d"], affinity)
        second = greedy_chain_order(["a", "b", "c", "d"], affinity)
        assert first == second


class TestWeightedMedian:
    def test_uniform_weights_pick_middle(self):
        assert weighted_median_index(["a", "b", "c"], {"a": 1, "b": 1, "c": 1}) == 1

    def test_heavy_head(self):
        assert weighted_median_index(["a", "b", "c"], {"a": 10, "b": 1, "c": 1}) == 0

    def test_heavy_tail(self):
        assert weighted_median_index(["a", "b", "c"], {"a": 1, "b": 1, "c": 10}) == 2

    def test_no_weights_middle(self):
        assert weighted_median_index(["a", "b", "c", "d"], {}) == 2


class TestAnchoredOffsets:
    def test_median_lands_on_port(self):
        config = DWMConfig(words_per_dbc=8, num_dbcs=1)  # port at 4
        offsets = anchored_offsets(["a", "b", "c"], config, {"a": 1, "b": 1, "c": 1})
        assert offsets["b"] == 4
        assert offsets["a"] == 3
        assert offsets["c"] == 5

    def test_clamped_to_capacity(self):
        config = DWMConfig(words_per_dbc=4, num_dbcs=1, port_offsets=(3,))
        offsets = anchored_offsets(["a", "b", "c"], config, {})
        assert min(offsets.values()) >= 0
        assert max(offsets.values()) <= 3

    def test_group_too_large_raises(self):
        config = DWMConfig(words_per_dbc=2, num_dbcs=1)
        with pytest.raises(OptimizationError):
            anchored_offsets(["a", "b", "c"], config, {})

    def test_contiguous(self):
        config = DWMConfig(words_per_dbc=16, num_dbcs=1)
        offsets = anchored_offsets(list("abcde"), config, {})
        values = sorted(offsets.values())
        assert values == list(range(values[0], values[0] + 5))


class TestProximityOffsets:
    def test_hottest_at_port(self):
        config = DWMConfig(words_per_dbc=8, num_dbcs=1)  # port at 4
        offsets = proximity_offsets(["a", "b"], config, {"a": 1, "b": 9})
        assert offsets["b"] == 4

    def test_all_offsets_distinct(self):
        config = DWMConfig(words_per_dbc=8, num_dbcs=1)
        offsets = proximity_offsets(list("abcdefgh"), config, {})
        assert len(set(offsets.values())) == 8


def _dbc_cost(problem, group_offsets, dbc=0):
    """Reference cost of one DBC: the scalar walk, other items on DBC 1."""
    others = [item for item in problem.items if item not in group_offsets]
    mapping = {item: (dbc, offset) for item, offset in group_offsets.items()}
    mapping.update({item: (1 - dbc, index) for index, item in enumerate(others)})
    return per_dbc_costs(problem, Placement(mapping)).get(dbc, 0)


class TestRestrictedAffinity:
    def test_restriction_creates_second_order_pairs(self):
        trace = AccessTrace(["a", "x", "b", "x", "a"])
        config = DWMConfig(words_per_dbc=8, num_dbcs=1)
        view = GroupTrace(PlacementProblem(trace=trace, config=config), ["a", "b"])
        # Restricted sequence is a b a: pairs (a,b) twice.
        assert view.affinity == {("a", "b"): 2}


class TestRestrictedSequenceCost:
    def test_matches_full_evaluator_single_group(self):
        trace = AccessTrace(["a", "b", "c", "a", "b"])
        config = DWMConfig(words_per_dbc=8, num_dbcs=1, port_offsets=(0,))
        problem = PlacementProblem(trace=trace, config=config)
        offsets = {"a": 0, "b": 3, "c": 5}
        placement = Placement({item: (0, o) for item, o in offsets.items()})
        view = GroupTrace(problem, ["a", "b", "c"])
        assert view.cost(offsets) == evaluate_placement(problem, placement)

    def test_skips_foreign_items(self):
        config = DWMConfig(words_per_dbc=8, num_dbcs=2, port_offsets=(0,))
        trace = AccessTrace(["a", "zzz", "a"])
        view = GroupTrace(PlacementProblem(trace=trace, config=config), ["a"])
        assert view.positions.tolist() == [0, 2]
        assert view.cost({"a": 2}) == 2


_ITEMS = "abcdef"


class TestGroupTrace:
    @settings(max_examples=60, deadline=None)
    @given(
        sequence=st.lists(st.sampled_from(_ITEMS), min_size=1, max_size=40),
        picks=st.lists(st.booleans(), min_size=len(_ITEMS), max_size=len(_ITEMS)),
    )
    def test_matches_restricted_trace(self, sequence, picks):
        trace = AccessTrace(sequence)
        group = [item for item, pick in zip(trace.items, picks) if pick]
        config = DWMConfig(words_per_dbc=8, num_dbcs=1)
        view = GroupTrace(PlacementProblem(trace=trace, config=config), group)
        restricted = trace.restricted_to(group)
        assert view.affinity == affinity_graph(restricted)
        assert view.first_touch == list(restricted.items)
        assert view.positions.size == len(restricted)

    @pytest.mark.parametrize("policy", [PortPolicy.LAZY, PortPolicy.EAGER])
    @pytest.mark.parametrize("num_ports", [1, 2, 3])
    def test_cost_matches_per_dbc_reference(self, num_ports, policy):
        import random

        rng = random.Random(num_ports * 7 + len(policy.value))
        trace = AccessTrace([rng.choice("abcdefgh") for _ in range(300)])
        config = DWMConfig.with_uniform_ports(
            words_per_dbc=12, num_dbcs=2, num_ports=num_ports, port_policy=policy
        )
        problem = PlacementProblem(trace=trace, config=config)
        group = [item for item in problem.items if item in "aceg"]
        view = GroupTrace(problem, group)
        for _ in range(5):
            offsets = dict(zip(group, rng.sample(range(12), len(group))))
            assert view.cost(offsets) == _dbc_cost(problem, offsets)


class TestOrderGroups:
    def test_pingpong_groups_get_zero_cost(self):
        trace = pingpong_trace(num_pairs=2, rounds=10)
        config = DWMConfig(words_per_dbc=4, num_dbcs=4, port_offsets=(0,))
        problem = PlacementProblem(trace=trace, config=config)
        # Put each item alone on a DBC: every access after the first is free.
        groups = [[item] for item in problem.items]
        placement = order_groups(problem, groups)
        assert evaluate_placement(problem, placement) == 0

    def test_empty_groups_skipped(self, locality_problem):
        items = list(locality_problem.items)
        groups = [items[:8], [], items[8:]]
        config = locality_problem.config.resized(num_dbcs=3)
        problem = locality_problem.with_config(config)
        placement = order_groups(problem, groups)
        assert placement.dbcs_used() == [0, 2]

    def test_too_many_groups_raises(self, locality_problem):
        groups = [[item] for item in locality_problem.items]
        too_many = groups + [["ghost"]] * locality_problem.config.num_dbcs
        with pytest.raises(OptimizationError):
            order_groups(locality_problem, too_many)

    def test_picks_best_ordering_candidate(self):
        # Star pattern: one hot hub, many satellites -> proximity wins and
        # order_groups must not do worse than the explicit star layout.
        sequence = []
        for satellite in "bcdefg":
            sequence.extend(["hub", satellite] * 4)
        trace = AccessTrace(sequence)
        config = DWMConfig(words_per_dbc=8, num_dbcs=1)
        problem = PlacementProblem(trace=trace, config=config)
        placement = order_groups(problem, [list(problem.items)])
        frequencies = dict(trace.frequencies())
        star = proximity_offsets(list(problem.items), config, frequencies)
        star_placement = Placement({item: (0, o) for item, o in star.items()})
        star_cost = per_dbc_costs(problem, star_placement)[0]
        assert evaluate_placement(problem, placement) <= star_cost

    @pytest.mark.parametrize("kernel_tier", ["active", "numpy"], indirect=True)
    @pytest.mark.parametrize("num_ports,policy", GEOMETRIES)
    def test_family_totals_match_reference(self, num_ports, policy, kernel_tier):
        # A placement's total is the sum of its groups' layout costs (the
        # per-DBC decomposition), for every family on every grouping.
        trace = markov_trace(24, 400, locality=0.7, seed=num_ports)
        config = DWMConfig.for_items(
            trace.num_items, words_per_dbc=8, num_ports=num_ports,
            port_policy=policy,
        )
        problem = PlacementProblem(trace=trace, config=config)
        families = (heuristic_layouts, bidirectional_layouts, port_aware_layouts)
        for groups in grouping_portfolio(problem):
            results = layout_groups(problem, groups, *families)
            assert len(results) == len(families)
            for mapping, total in results:
                assert total == evaluate_placement(problem, Placement(mapping))
