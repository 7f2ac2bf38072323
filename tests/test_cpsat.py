"""Tests for the CP-SAT MinLA backend and its pure-python fallback chain.

The suite is split by availability of the optional ``ortools`` dependency:

* the fallback-chain and parity-with-DP tests always run (on a bare
  environment they exercise the degradation path; with ortools they
  exercise CP-SAT itself);
* ``requires_cpsat`` tests run only on the CI ``ortools`` leg — they pin
  the certified-optimum guarantees (including a >100-item instance) and
  CP-SAT ↔ DP cost parity;
* ``requires_no_cpsat`` tests run only on the fallback leg — they pin the
  typed rejection above every backend budget and the recorded ``ilp``
  degradation.
"""

import pytest

from repro import robust
from repro.core.api import build_problem
from repro.core.cost import linear_arrangement_cost
from repro.core.cpsat import (
    CPSAT_MAX_ITEMS,
    cpsat_available,
    solve_minla,
)
from repro.core.exact import minla_optimal_cost
from repro.dwm.config import DWMConfig
from repro.errors import OptimizationError
from repro.trace.stats import affinity_graph
from repro.trace.synthetic import markov_trace

requires_cpsat = pytest.mark.skipif(
    not cpsat_available(), reason="ortools not installed"
)
requires_no_cpsat = pytest.mark.skipif(
    cpsat_available(), reason="ortools installed; fallback path not reachable"
)


def _instance(num_items: int, seed: int = 0):
    trace = markov_trace(num_items, 40 * num_items, locality=0.7, seed=seed)
    problem = build_problem(trace, DWMConfig(words_per_dbc=64, num_dbcs=1))
    return list(problem.items), problem.affinity


def _chain_instance(num_items: int):
    items = [f"c{i:03d}" for i in range(num_items)]
    affinity = {
        (items[i], items[i + 1]): 1 for i in range(num_items - 1)
    }
    return items, affinity


class TestSolveMinla:
    def test_matches_dp_optimum_on_random_instances(self):
        for seed in range(4):
            items, affinity = _instance(7, seed=seed)
            solution = solve_minla(items, affinity)
            assert solution.certified
            assert solution.cost == minla_optimal_cost(items, affinity)
            assert sorted(solution.order) == sorted(items)
            assert (
                linear_arrangement_cost(list(solution.order), affinity)
                == solution.cost
            )

    def test_zero_items_rejected(self):
        with pytest.raises(OptimizationError):
            solve_minla([], {})

    def test_backend_is_reported(self):
        items, affinity = _instance(5, seed=2)
        solution = solve_minla(items, affinity)
        expected = "cpsat" if cpsat_available() else "dp"
        assert solution.backend == expected


class TestFallbackChain:
    @requires_no_cpsat
    def test_absence_records_ilp_degradation(self):
        robust.reset_degradations()
        items, affinity = _instance(5, seed=4)
        solution = solve_minla(items, affinity)
        assert solution.backend == "dp"
        assert solution.certified
        summary = robust.degradation_summary()
        assert summary.get("ilp:cpsat->dp", 0) >= 1
        robust.reset_degradations()

    @requires_no_cpsat
    def test_oversized_instance_rejected_with_typed_error(self):
        items = [f"i{k}" for k in range(17)]
        with pytest.raises(OptimizationError, match="backend"):
            solve_minla(items, {})

    @requires_no_cpsat
    def test_past_dp_budget_raises_without_phantom_tier(self):
        robust.reset_degradations()
        items = [f"i{k}" for k in range(17)]
        with pytest.raises(OptimizationError) as excinfo:
            solve_minla(items, {})
        message = str(excinfo.value)
        assert "enumeration" not in message
        assert f"≤{CPSAT_MAX_ITEMS}" in message and "≤16" in message
        summary = robust.degradation_summary()
        assert "ilp:dp->enumeration" not in summary
        assert summary.get("ilp:cpsat->dp", 0) >= 1
        robust.reset_degradations()

    def test_chain_declared_in_robust_table(self):
        assert robust.DEGRADATION_CHAINS["ilp"] == ("cpsat", "dp")


class TestCpsatBackend:
    @requires_cpsat
    def test_parity_with_dp_on_random_instances(self):
        from repro.core.cpsat import solve_minla_cpsat

        for seed in range(4):
            items, affinity = _instance(8, seed=seed)
            solution = solve_minla_cpsat(items, affinity, time_limit=30.0)
            assert solution.certified
            assert solution.cost == minla_optimal_cost(items, affinity)

    @requires_cpsat
    def test_certifies_optimum_beyond_dp_reach(self):
        # 24 items: past the subset DP cap; the chain optimum Σw is known
        # in closed form.
        items, affinity = _chain_instance(24)
        solution = solve_minla(items, affinity, time_limit=60.0)
        assert solution.backend == "cpsat"
        assert solution.certified
        assert solution.cost == len(items) - 1

    @requires_cpsat
    def test_certifies_optimum_on_120_item_instance(self):
        # The headline CP-SAT guarantee: certified optima on >=100 items.
        items, affinity = _chain_instance(120)
        warm = list(items)
        solution = solve_minla(
            items, affinity, time_limit=120.0, warm_start=warm
        )
        assert solution.backend == "cpsat"
        assert solution.certified
        assert solution.cost == len(items) - 1

    @requires_cpsat
    def test_cap_rejected_with_typed_error(self):
        items = [f"i{k}" for k in range(CPSAT_MAX_ITEMS + 1)]
        with pytest.raises(OptimizationError, match="CP-SAT"):
            solve_minla(items, {})

    @requires_cpsat
    def test_warm_start_accepts_any_permutation(self):
        from repro.core.cpsat import solve_minla_cpsat

        items, affinity = _instance(6, seed=1)
        reference = minla_optimal_cost(items, affinity)
        for warm in (list(items), list(reversed(items))):
            solution = solve_minla_cpsat(
                items, affinity, time_limit=30.0, warm_start=warm
            )
            assert solution.certified
            assert solution.cost == reference
