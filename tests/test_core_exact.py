"""Unit tests for repro.core.exact (DP and brute-force optimum)."""

import itertools

import pytest

from repro.core.cost import evaluate_placement, linear_arrangement_cost
from repro.core.exact import (
    exact_single_dbc_placement,
    exhaustive_placement,
    minla_exact_order,
    minla_optimal_cost,
)
from repro.core.heuristic import heuristic_placement
from repro.core.problem import PlacementProblem
from repro.dwm.config import DWMConfig
from repro.errors import OptimizationError
from repro.trace.model import AccessTrace
from repro.trace.synthetic import markov_trace, zipf_trace


class TestMinlaExactOrder:
    def test_empty(self):
        assert minla_exact_order([], {}) == []

    def test_single_item(self):
        assert minla_exact_order(["a"], {}) == ["a"]

    def test_matches_brute_force_small(self):
        items = ["a", "b", "c", "d", "e"]
        affinity = {
            ("a", "b"): 3, ("b", "c"): 1, ("a", "c"): 2,
            ("c", "d"): 4, ("d", "e"): 1, ("a", "e"): 2,
        }
        best_cost = min(
            linear_arrangement_cost(list(perm), affinity)
            for perm in itertools.permutations(items)
        )
        dp_order = minla_exact_order(items, affinity)
        assert linear_arrangement_cost(dp_order, affinity) == best_cost

    def test_chain_graph_keeps_chain_order(self):
        # Path graph a-b-c-d with heavy edges: optimal MinLA is the path.
        affinity = {("a", "b"): 5, ("b", "c"): 5, ("c", "d"): 5}
        order = minla_exact_order(["a", "b", "c", "d"], affinity)
        cost = linear_arrangement_cost(order, affinity)
        assert cost == 15  # every heavy edge adjacent

    def test_size_guard(self):
        items = [f"i{k}" for k in range(17)]
        with pytest.raises(OptimizationError, match="at most"):
            minla_exact_order(items, {})

    def test_optimal_cost_wrapper(self):
        affinity = {("a", "b"): 2}
        assert minla_optimal_cost(["a", "b"], affinity) == 2

    def test_unknown_first_item_raises_typed_error(self):
        with pytest.raises(OptimizationError, match="first_item"):
            minla_exact_order(["a", "b"], {("a", "b"): 1}, first_item="z")

    def test_duplicate_items_raise_typed_error(self):
        with pytest.raises(OptimizationError, match="distinct"):
            minla_exact_order(["a", "a", "b"], {("a", "b"): 1})


class TestExactSingleDbc:
    def test_not_worse_than_heuristic(self):
        for seed in range(3):
            trace = markov_trace(8, 120, locality=0.8, seed=seed)
            config = DWMConfig(words_per_dbc=12, num_dbcs=1, port_offsets=(0,))
            problem = PlacementProblem(trace=trace, config=config)
            exact_cost = evaluate_placement(
                problem, exact_single_dbc_placement(problem)
            )
            heuristic_cost = evaluate_placement(
                problem, heuristic_placement(problem)
            )
            assert exact_cost <= heuristic_cost

    def test_too_many_items_raises(self):
        trace = markov_trace(10, 50, seed=1)
        config = DWMConfig(words_per_dbc=8, num_dbcs=2)
        problem = PlacementProblem(trace=trace, config=config)
        with pytest.raises(OptimizationError):
            exact_single_dbc_placement(problem)

    def test_single_dbc_valid(self):
        trace = zipf_trace(6, 80, seed=2)
        config = DWMConfig(words_per_dbc=8, num_dbcs=1)
        problem = PlacementProblem(trace=trace, config=config)
        placement = exact_single_dbc_placement(problem)
        placement.validate(config, problem.items)
        assert placement.dbcs_used() == [0]


class TestExhaustivePlacement:
    def test_not_worse_than_heuristic_multi_dbc(self):
        trace = markov_trace(5, 60, locality=0.7, seed=4)
        config = DWMConfig(words_per_dbc=3, num_dbcs=2, port_offsets=(0,))
        problem = PlacementProblem(trace=trace, config=config)
        exact_cost = evaluate_placement(problem, exhaustive_placement(problem))
        heuristic_cost = evaluate_placement(problem, heuristic_placement(problem))
        assert exact_cost <= heuristic_cost

    def test_alternating_pair_split_found(self):
        trace = AccessTrace(["a", "b"] * 10)
        config = DWMConfig(words_per_dbc=2, num_dbcs=2, port_offsets=(0,))
        problem = PlacementProblem(trace=trace, config=config)
        placement = exhaustive_placement(problem)
        assert evaluate_placement(problem, placement) == 0
        assert placement["a"].dbc != placement["b"].dbc

    def test_size_guard(self):
        trace = markov_trace(10, 30, seed=5)
        config = DWMConfig(words_per_dbc=16, num_dbcs=1)
        problem = PlacementProblem(trace=trace, config=config)
        with pytest.raises(OptimizationError, match="at most 7 items"):
            exhaustive_placement(problem)

    def test_size_guard_cannot_be_lifted_by_a_kwarg(self):
        # The kwarg is not a size knob: it is ignored, and the 7-item guard
        # refuses 14 items at once instead of enumerating for minutes.
        import time

        from repro.core.api import optimize_placement

        config = DWMConfig(words_per_dbc=8, num_dbcs=2, port_offsets=(1, 5))
        start = time.perf_counter()
        with pytest.raises(OptimizationError, match="at most 7 items"):
            optimize_placement(
                markov_trace(14, 300, seed=1), config, method="exact",
                max_items=1000,
            )
        assert time.perf_counter() - start < 1.0

    def test_agrees_with_single_dbc_dp_when_forced(self):
        # One DBC, port at 0: brute force over anchored orders must agree
        # with the DP up to the brute-force candidate restriction.
        trace = markov_trace(5, 80, locality=0.9, seed=6)
        config = DWMConfig(words_per_dbc=5, num_dbcs=1, port_offsets=(0,))
        problem = PlacementProblem(trace=trace, config=config)
        brute = evaluate_placement(problem, exhaustive_placement(problem))
        dp = evaluate_placement(problem, exact_single_dbc_placement(problem))
        assert brute == dp


class TestUnaccessedItems:
    @pytest.mark.parametrize("ports", [(0,), (0, 2)])
    def test_exact_places_items_without_accesses(self, ports):
        # A stream window keeps its stream's whole item table, so an item
        # may have no access; a group of such items costs nothing.
        import numpy as np

        from repro.core.api import ALGORITHMS

        items = ("z", "y", "x", "w", "v")
        item_at = np.asarray([2, 0, 2, 3, 1, 0, 2, 3, 1, 2], dtype=np.int64)
        trace = AccessTrace._from_dense(items, item_at, np.zeros(10, dtype=np.bool_))
        config = DWMConfig(words_per_dbc=4, num_dbcs=2, port_offsets=ports)
        problem = PlacementProblem(trace=trace, config=config)
        placement = ALGORITHMS["exact"](problem)
        placement.validate(config, problem.items)
        assert evaluate_placement(problem, placement) == _true_optimum(problem)


def _true_optimum(problem):
    """All injective slot assignments — independent of repro.core.exact."""
    from repro.core.placement import Placement, Slot

    config = problem.config
    slots = [
        Slot(dbc, offset)
        for dbc in range(config.num_dbcs)
        for offset in range(config.words_per_dbc)
    ]
    items = list(problem.items)
    return min(
        evaluate_placement(problem, Placement(dict(zip(items, chosen))))
        for chosen in itertools.permutations(slots, len(items))
    )


class TestFuzzerRegressions:
    """Cases the differential fuzzer minimized against the old solvers."""

    def test_two_port_zero_cost_split(self):
        # Shrunk fuzz repro: two items ping-ponging between ports 0 and 2.
        # The old exhaustive search only tried contiguous windows, forcing
        # the items adjacent (cost 5); one item parked on each port is free.
        trace = AccessTrace(["a", "b"] * 3)
        config = DWMConfig(words_per_dbc=3, num_dbcs=1, port_offsets=(0, 2))
        problem = PlacementProblem(trace=trace, config=config)
        placement = exhaustive_placement(problem)
        assert evaluate_placement(problem, placement) == 0

    def test_interior_port_approach_term(self):
        # Shrunk fuzz repro: full single-port DBC with the port mid-tape.
        # The old MinLA variants charged the first access as if the port sat
        # at offset 0 and returned a suboptimal order.
        trace = AccessTrace(["c", "a", "b", "c", "d", "e", "c", "a", "c", "b"])
        config = DWMConfig(words_per_dbc=5, num_dbcs=1, port_offsets=(2,))
        problem = PlacementProblem(trace=trace, config=config)
        cost = evaluate_placement(problem, exact_single_dbc_placement(problem))
        assert cost == 12
        assert cost == _true_optimum(problem)

    @pytest.mark.parametrize("ports", [(0,), (1,), (2,), (0, 2), (1, 3)])
    def test_exhaustive_matches_true_optimum(self, ports):
        from repro.core.exact import exhaustive_search_is_exact

        trace = markov_trace(4, 40, locality=0.6, seed=9)
        words = max(ports) + 2
        config = DWMConfig(
            words_per_dbc=words, num_dbcs=2, port_offsets=ports
        )
        problem = PlacementProblem(trace=trace, config=config)
        assert exhaustive_search_is_exact(config, len(problem.items))
        cost = evaluate_placement(problem, exhaustive_placement(problem))
        assert cost == _true_optimum(problem)


class TestExhaustiveSearchIsExact:
    def test_eager_always_exact(self):
        from repro.core.exact import exhaustive_search_is_exact
        from repro.dwm.config import PortPolicy

        config = DWMConfig(
            words_per_dbc=64, num_dbcs=4, port_offsets=(0, 31, 63),
            port_policy=PortPolicy.EAGER,
        )
        assert exhaustive_search_is_exact(config, 7)

    def test_single_port_lazy_exact(self):
        from repro.core.exact import exhaustive_search_is_exact

        config = DWMConfig(words_per_dbc=64, num_dbcs=4, port_offsets=(0,))
        assert exhaustive_search_is_exact(config, 7)

    def test_multi_port_lazy_truncated_combinations(self):
        from repro.core.exact import exhaustive_search_is_exact

        # comb(64, 7) is astronomically past MAX_OFFSET_COMBINATIONS, so the
        # search falls back to contiguous windows and loses the guarantee.
        config = DWMConfig(words_per_dbc=64, num_dbcs=1, port_offsets=(0, 32))
        assert not exhaustive_search_is_exact(config, 7)
