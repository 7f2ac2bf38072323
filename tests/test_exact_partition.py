"""Unit tests for the set-partition exact optimum (repro.core.exact)."""

import pytest

from repro.core.cost import evaluate_placement
from repro.core.exact import exact_partitioned_placement, exhaustive_placement
from repro.core.heuristic import heuristic_placement
from repro.core.problem import PlacementProblem
from repro.dwm.config import DWMConfig, PortPolicy
from repro.errors import OptimizationError
from repro.trace.model import AccessTrace
from repro.trace.synthetic import markov_trace, pingpong_trace, zipf_trace


def make_problem(trace, words=4, dbcs=3, port=0):
    config = DWMConfig(
        words_per_dbc=words, num_dbcs=dbcs, port_offsets=(port,)
    )
    return PlacementProblem(trace=trace, config=config)


class TestAgainstBruteForce:
    """The partition DP must never lose to (and may beat) brute force."""

    @pytest.mark.parametrize("seed", range(4))
    def test_not_worse_than_exhaustive_markov(self, seed):
        trace = markov_trace(6, 80, locality=0.7, seed=seed)
        problem = make_problem(trace, words=3, dbcs=3)
        dp_cost = evaluate_placement(
            problem, exact_partitioned_placement(problem)
        )
        brute_cost = evaluate_placement(problem, exhaustive_placement(problem))
        # Brute force only tries canonical anchors; the DP sweeps them all.
        assert dp_cost <= brute_cost

    def test_not_worse_than_exhaustive_zipf(self):
        trace = zipf_trace(5, 60, seed=2)
        problem = make_problem(trace, words=3, dbcs=2)
        dp_cost = evaluate_placement(
            problem, exact_partitioned_placement(problem)
        )
        brute_cost = evaluate_placement(problem, exhaustive_placement(problem))
        assert dp_cost <= brute_cost


class TestOptimalityProperties:
    def test_splits_alternating_pairs_to_zero(self):
        trace = pingpong_trace(num_pairs=3, rounds=10)
        problem = make_problem(trace, words=4, dbcs=6)
        placement = exact_partitioned_placement(problem)
        assert evaluate_placement(problem, placement) == 0

    def test_never_worse_than_heuristic(self):
        for seed in range(3):
            trace = markov_trace(9, 150, locality=0.8, seed=seed)
            problem = make_problem(trace, words=4, dbcs=3)
            exact_cost = evaluate_placement(
                problem, exact_partitioned_placement(problem)
            )
            heuristic_cost = evaluate_placement(
                problem, heuristic_placement(problem)
            )
            assert exact_cost <= heuristic_cost

    def test_single_item(self):
        trace = AccessTrace(["only"] * 4)
        problem = make_problem(trace, words=4, dbcs=1)
        placement = exact_partitioned_placement(problem)
        # Optimal: anchor the item on the port (offset 0) -> zero shifts.
        assert evaluate_placement(problem, placement) == 0

    def test_respects_capacity(self):
        trace = markov_trace(8, 100, seed=5)
        problem = make_problem(trace, words=3, dbcs=3)
        placement = exact_partitioned_placement(problem)
        placement.validate(problem.config, problem.items)
        for dbc in placement.dbcs_used():
            assert len(placement.dbc_contents(dbc)) <= 3

    def test_uses_at_most_available_dbcs(self):
        trace = markov_trace(6, 80, seed=6)
        problem = make_problem(trace, words=6, dbcs=2)
        placement = exact_partitioned_placement(problem)
        assert len(placement.dbcs_used()) <= 2


class TestGuards:
    def test_too_many_items(self):
        trace = AccessTrace([f"i{k}" for k in range(13)])
        problem = make_problem(trace, words=13, dbcs=2)
        with pytest.raises(OptimizationError, match="at most"):
            exact_partitioned_placement(problem)

    def test_multi_port_rejected(self):
        trace = markov_trace(5, 50, seed=1)
        config = DWMConfig(words_per_dbc=8, num_dbcs=1, port_offsets=(0, 7))
        problem = PlacementProblem(trace=trace, config=config)
        with pytest.raises(OptimizationError, match="single-port"):
            exact_partitioned_placement(problem)

    def test_eager_rejected(self):
        trace = markov_trace(5, 50, seed=1)
        config = DWMConfig(
            words_per_dbc=8, num_dbcs=1, port_offsets=(0,),
            port_policy=PortPolicy.EAGER,
        )
        problem = PlacementProblem(trace=trace, config=config)
        with pytest.raises(OptimizationError, match="lazy"):
            exact_partitioned_placement(problem)

    def test_infeasible_capacity(self):
        trace = markov_trace(5, 40, seed=2)
        config = DWMConfig(words_per_dbc=1, num_dbcs=3, port_offsets=(0,))
        with pytest.raises(Exception):
            problem = PlacementProblem(trace=trace, config=config)
            exact_partitioned_placement(problem)


class TestFuzzerRegressions:
    """Pinned repros from the differential conformance fuzzer."""

    def test_interior_port_group_cost(self):
        # The per-group MinLA used to charge the first access of each group
        # as if the port sat at offset 0; with the port mid-tape the group
        # costs were inflated and the partition DP picked a worse split.
        import itertools

        from repro.core.placement import Placement, Slot

        trace = AccessTrace(
            ["a", "b", "a", "c", "d", "c", "a", "d", "b", "a"]
        )
        config = DWMConfig(words_per_dbc=3, num_dbcs=2, port_offsets=(1,))
        problem = PlacementProblem(trace=trace, config=config)
        cost = evaluate_placement(
            problem, exact_partitioned_placement(problem)
        )
        assert cost == 4
        slots = [
            Slot(dbc, offset)
            for dbc in range(config.num_dbcs)
            for offset in range(config.words_per_dbc)
        ]
        items = list(problem.items)
        true_optimum = min(
            evaluate_placement(
                problem, Placement(dict(zip(items, chosen)))
            )
            for chosen in itertools.permutations(slots, len(items))
        )
        assert cost == true_optimum


class TestPartitionMinimum:
    def test_picks_cheapest_cover(self):
        from repro.core.exact import partition_minimum

        group_cost = {
            0b001: 5, 0b010: 7, 0b100: 1,
            0b011: 10, 0b101: 2, 0b110: 100, 0b111: 50,
        }
        cost, groups = partition_minimum(group_cost, 3, 2)
        assert cost == 9
        assert sorted(groups) == [0b010, 0b101]

    def test_group_bound_respected(self):
        from repro.core.exact import partition_minimum

        # With only singleton groups allowed to be cheap, one group must
        # cover everything when max_groups == 1.
        group_cost = {
            mask: (0 if mask == 0b111 else 100)
            for mask in range(1, 8)
        }
        cost, groups = partition_minimum(group_cost, 3, 1)
        assert cost == 0
        assert groups == [0b111]

    def test_infeasible_raises(self):
        from repro.core.exact import partition_minimum

        with pytest.raises(OptimizationError):
            partition_minimum({0b001: 1}, 2, 2)  # item 1 uncoverable
