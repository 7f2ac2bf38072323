"""Unit tests for repro.analysis.wear."""

import pytest

from repro.analysis.wear import (
    WearReport,
    lifetime_estimate_accesses,
    wear_aware_placement,
    wear_report,
)
from repro.core.api import build_problem, optimize_placement
from repro.core.cost import evaluate_placement, per_dbc_costs
from repro.core.problem import PlacementProblem
from repro.dwm.config import DWMConfig, PortPolicy
from repro.errors import OptimizationError
from repro.trace.model import AccessTrace
from repro.trace.kernels import fir_trace
from repro.trace.synthetic import markov_trace


@pytest.fixture
def problem():
    trace = markov_trace(16, 400, locality=0.85, seed=51)
    config = DWMConfig(words_per_dbc=8, num_dbcs=2, port_offsets=(0,))
    return PlacementProblem(trace=trace, config=config)


class TestWearReportMetrics:
    def test_level_distribution(self):
        report = WearReport(
            per_dbc_shifts=(10, 10, 10), per_dbc_writes=(1, 1, 1),
            total_shifts=30,
        )
        assert report.max_mean_shift_ratio == 1.0
        assert report.shift_gini == pytest.approx(0.0)

    def test_concentrated_distribution(self):
        report = WearReport(
            per_dbc_shifts=(30, 0, 0), per_dbc_writes=(0, 0, 0),
            total_shifts=30,
        )
        assert report.max_mean_shift_ratio == 3.0
        assert report.shift_gini == pytest.approx(2 / 3)
        assert report.hottest_dbc == 0

    def test_empty_array(self):
        report = WearReport(per_dbc_shifts=(), per_dbc_writes=(), total_shifts=0)
        assert report.max_mean_shift_ratio == 1.0
        assert report.shift_gini == 0.0

    def test_zero_shift_run(self):
        report = WearReport(
            per_dbc_shifts=(0, 0), per_dbc_writes=(3, 0), total_shifts=0
        )
        assert report.max_mean_shift_ratio == 1.0


class TestWearReportFromTrace:
    def test_shift_totals_match_evaluator(self, problem):
        placement = optimize_placement(
            problem.trace, problem.config, method="declaration"
        ).placement
        report = wear_report(problem, placement)
        assert report.total_shifts == evaluate_placement(problem, placement)
        assert sum(report.per_dbc_shifts) == report.total_shifts

    @pytest.mark.parametrize(
        "num_ports, policy",
        [(1, PortPolicy.EAGER), (1, PortPolicy.LAZY), (2, PortPolicy.LAZY),
         (3, PortPolicy.LAZY)],
    )
    def test_matches_the_scalar_reference(self, num_ports, policy):
        trace = markov_trace(20, 600, locality=0.7, seed=52, write_fraction=0.3)
        config = DWMConfig.with_uniform_ports(
            words_per_dbc=8, num_dbcs=3, num_ports=num_ports, port_policy=policy
        )
        problem = PlacementProblem(trace=trace, config=config)
        placement = optimize_placement(trace, config, method="heuristic").placement
        report = wear_report(problem, placement)
        reference = per_dbc_costs(problem, placement)
        assert report.per_dbc_shifts == tuple(
            reference.get(dbc, 0) for dbc in range(config.num_dbcs)
        )
        assert report.total_shifts == sum(reference.values())
        writes = [0] * config.num_dbcs
        for access in trace:
            if access.is_write:
                writes[placement[access.item].dbc] += 1
        assert report.per_dbc_writes == tuple(writes)
        assert sum(writes) > 0

    def test_write_attribution(self):
        trace = AccessTrace([("a", "W"), ("b", "W"), ("a", "R")])
        config = DWMConfig(words_per_dbc=4, num_dbcs=2, port_offsets=(0,))
        problem = build_problem(trace, config)
        from repro.core.placement import Placement

        placement = Placement({"a": (0, 0), "b": (1, 0)})
        report = wear_report(problem, placement)
        assert report.per_dbc_writes == (1, 1)


class TestWearAwarePlacement:
    def test_never_increases_wear_ratio(self, problem):
        heuristic = optimize_placement(
            problem.trace, problem.config, method="heuristic"
        ).placement
        baseline_ratio = wear_report(problem, heuristic).max_mean_shift_ratio
        balanced = wear_aware_placement(problem)
        balanced_ratio = wear_report(problem, balanced).max_mean_shift_ratio
        assert balanced_ratio <= baseline_ratio + 1e-9

    def test_respects_shift_budget(self, problem):
        heuristic_cost = optimize_placement(
            problem.trace, problem.config, method="heuristic"
        ).total_shifts
        balanced = wear_aware_placement(problem, max_shift_overhead=0.10)
        cost = evaluate_placement(problem, balanced)
        assert cost <= heuristic_cost * 1.10 + 1e-9

    def test_improves_concentrated_kernel(self):
        trace = fir_trace()
        config = DWMConfig.for_items(trace.num_items, words_per_dbc=16)
        problem = PlacementProblem(trace=trace, config=config)
        heuristic = optimize_placement(trace, config, method="heuristic").placement
        before = wear_report(problem, heuristic).max_mean_shift_ratio
        balanced = wear_aware_placement(problem)
        after = wear_report(problem, balanced).max_mean_shift_ratio
        assert after < before

    def test_zero_budget_keeps_cost(self, problem):
        heuristic_cost = optimize_placement(
            problem.trace, problem.config, method="heuristic"
        ).total_shifts
        balanced = wear_aware_placement(problem, max_shift_overhead=0.0)
        assert evaluate_placement(problem, balanced) <= heuristic_cost

    def test_negative_budget_raises(self, problem):
        with pytest.raises(OptimizationError):
            wear_aware_placement(problem, max_shift_overhead=-0.1)

    def test_valid_placement(self, problem):
        wear_aware_placement(problem).validate(
            problem.config, problem.items
        )


class TestLifetimeEstimate:
    def test_infinite_without_shifts(self):
        report = WearReport((0, 0), (0, 0), 0)
        assert lifetime_estimate_accesses(report) == float("inf")

    def test_leveling_extends_lifetime(self):
        concentrated = WearReport((100, 0), (0, 0), 100)
        level = WearReport((50, 50), (0, 0), 100)
        assert lifetime_estimate_accesses(level) > lifetime_estimate_accesses(
            concentrated
        )

    def test_scales_with_trace_length(self):
        report = WearReport((10,), (0,), 10)
        assert lifetime_estimate_accesses(
            report, shift_endurance=100, trace_length=7
        ) == pytest.approx(70.0)
