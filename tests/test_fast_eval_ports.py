"""Unit tests for batch candidate scoring and port co-design."""

import pytest

from repro.core import cost, generalized, heuristic, ordering, shiftsreduce
from repro.core.api import build_problem, optimize_placement
from repro.core.baselines import declaration_order_placement, random_placement
from repro.core.cost import evaluate_placement, evaluate_placements_fast
from repro.core.placement import Placement, Slot
from repro.dwm.config import DWMConfig, PortPolicy
from repro.dwm.ports import (
    access_histogram,
    co_design_ports,
    weighted_k_medians,
)
from repro.errors import OptimizationError, PlacementError
from repro.trace.kernels import fir_trace
from repro.trace.synthetic import markov_trace, zipf_trace

#: Trace lengths from one access up; every length is scored by the scan.
LENGTHS = [1, 128, 2047, 2048]

#: (ports, policy) geometries the batch scorer must price exactly.
GEOMETRIES = [
    (1, PortPolicy.LAZY),
    (2, PortPolicy.LAZY),
    (3, PortPolicy.LAZY),
    (1, PortPolicy.EAGER),
    (2, PortPolicy.EAGER),
]


def _markov_problem(length, ports, policy):
    trace = markov_trace(24, length, locality=0.8, seed=73, write_fraction=0.3)
    config = DWMConfig.for_items(
        trace.num_items, words_per_dbc=8, num_ports=ports, port_policy=policy
    )
    return build_problem(trace, config)


class TestFastEvaluator:
    @pytest.mark.parametrize("words,ports,policy", [
        (8, 1, PortPolicy.LAZY),
        (32, 1, PortPolicy.LAZY),
        (16, 2, PortPolicy.LAZY),
        (16, 1, PortPolicy.EAGER),
        (16, 2, PortPolicy.EAGER),
    ])
    def test_agrees_with_scalar(self, words, ports, policy):
        trace = markov_trace(20, 600, locality=0.8, seed=71, write_fraction=0.3)
        config = DWMConfig.with_uniform_ports(
            words_per_dbc=words,
            num_dbcs=max(1, -(-trace.num_items // words)),
            num_ports=ports,
            port_policy=policy,
        )
        problem = build_problem(trace, config)
        placements = [random_placement(problem, seed) for seed in range(4)]
        assert evaluate_placements_fast(problem, placements) == [
            evaluate_placement(problem, placement) for placement in placements
        ]

    @pytest.mark.parametrize("ports,policy", GEOMETRIES)
    @pytest.mark.parametrize("length", LENGTHS)
    def test_single_placement_at_threshold(self, length, ports, policy):
        problem = _markov_problem(length, ports, policy)
        for seed in range(3):
            placement = random_placement(problem, seed)
            assert evaluate_placements_fast(problem, [placement]) == [
                evaluate_placement(problem, placement)
            ]

    def test_multi_port_lazy_never_walks_scalar(self, monkeypatch):
        problem = _markov_problem(128, 2, PortPolicy.LAZY)
        placements = [random_placement(problem, seed) for seed in range(3)]
        expected = [evaluate_placement(problem, p) for p in placements]

        def scalar_walk(*args, **kwargs):
            raise AssertionError("scored by the scalar walk")

        monkeypatch.setattr(cost, "evaluate_placement", scalar_walk)
        assert evaluate_placements_fast(problem, placements) == expected

    def test_agrees_on_kernel_traces(self):
        trace = fir_trace()
        problem = build_problem(trace, words_per_dbc=16)
        placement = declaration_order_placement(problem)
        assert evaluate_placements_fast(problem, [placement]) == [
            evaluate_placement(problem, placement)
        ]

    def test_validates_coverage(self):
        trace = markov_trace(5, 50, seed=1)
        problem = build_problem(trace, words_per_dbc=8)
        with pytest.raises(PlacementError):
            evaluate_placements_fast(problem, [Placement({"v0": (0, 0)})])


class TestCandidateSelection:
    @pytest.mark.parametrize("module,method", [
        (heuristic, heuristic.heuristic_placement),
        (shiftsreduce, shiftsreduce.shiftsreduce_placement),
        (generalized, generalized.generalized_placement),
    ])
    def test_equal_costs_pick_first_candidate(self, monkeypatch, module, method):
        # With every layout tied, the method's own family wins over the
        # heuristic guard, the first grouping wins, and so does each
        # group's first candidate.  On two ports the three families' first
        # layouts all differ.
        import numpy as np

        problem = build_problem(
            markov_trace(12, 200, seed=5), words_per_dbc=8, num_ports=2
        )
        # Every candidate of every group of every grouping costs the same.
        monkeypatch.setattr(
            ordering,
            "price_layouts",
            lambda view, layouts, tier=None: np.full(
                (len(layouts), view.num_groups), 4, dtype=np.int64
            ),
        )
        family = {
            heuristic: ordering.heuristic_layouts,
            shiftsreduce: shiftsreduce.bidirectional_layouts,
            generalized: generalized.port_aware_layouts,
        }[module]
        view = ordering.GroupedTrace(problem, heuristic.grouping_portfolio(problem)[0])
        first = family(view)[0]
        order = np.broadcast_to(first.order, view.members.shape)
        offsets = np.broadcast_to(first.offsets, view.members.shape)
        expected = {}
        for dbc, size in enumerate(view.sizes.tolist()):
            for position in range(size):
                code = int(view.members[dbc, order[dbc, position]])
                expected[problem.items[code]] = Slot(dbc, int(offsets[dbc, position]))
        assert method(problem) == Placement(expected)


class TestWeightedKMedians:
    def test_single_median_is_weighted_median(self):
        histogram = {0: 10, 5: 10, 15: 1}
        assert weighted_k_medians(histogram, 1, 16) == (5,)

    def test_two_medians_cover_clusters(self):
        histogram = {1: 50, 2: 50, 14: 50, 15: 50}
        ports = weighted_k_medians(histogram, 2, 16)
        assert len(ports) == 2
        assert min(ports) in (1, 2)
        assert max(ports) in (14, 15)

    def test_optimality_vs_brute_force(self):
        import itertools

        histogram = {0: 3, 3: 7, 6: 2, 7: 9}
        n, k = 8, 2
        best = min(
            (
                sum(
                    weight * min(abs(offset - p) for p in ports)
                    for offset, weight in histogram.items()
                ),
                ports,
            )
            for ports in itertools.combinations(range(n), k)
        )[0]
        chosen = weighted_k_medians(histogram, k, n)
        cost = sum(
            weight * min(abs(offset - p) for p in chosen)
            for offset, weight in histogram.items()
        )
        assert cost == best

    def test_more_ports_than_offsets(self):
        assert weighted_k_medians({0: 1}, 4, 3) == (0, 1, 2)

    def test_invalid_k_raises(self):
        with pytest.raises(OptimizationError):
            weighted_k_medians({}, 0, 8)

    def test_empty_histogram(self):
        ports = weighted_k_medians({}, 2, 8)
        assert len(ports) == 2
        assert all(0 <= p < 8 for p in ports)


class TestCoDesign:
    def test_never_worse_than_uniform(self):
        trace = zipf_trace(30, 800, alpha=1.3, seed=7)
        config, result = co_design_ports(trace, num_ports=2, words_per_dbc=32)
        uniform_config = DWMConfig.for_items(
            trace.num_items, words_per_dbc=32, num_ports=2
        )
        uniform = optimize_placement(trace, uniform_config, method="heuristic")
        assert result.total_shifts <= uniform.total_shifts
        assert config.num_ports == 2

    def test_histogram_totals(self):
        trace = markov_trace(10, 200, seed=2)
        problem = build_problem(trace, words_per_dbc=8)
        placement = declaration_order_placement(problem)
        histogram = access_histogram(problem, placement)
        total = sum(
            weight for per_dbc in histogram.values() for weight in per_dbc.values()
        )
        assert total == len(trace)

    def test_invalid_rounds_raise(self):
        trace = markov_trace(6, 60, seed=3)
        with pytest.raises(OptimizationError):
            co_design_ports(trace, rounds=0)
