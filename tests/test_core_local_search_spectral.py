"""Unit tests for local search refinements and the spectral comparator."""

import pytest

from repro.core.baselines import declaration_order_placement, random_placement
from repro.core.cost import evaluate_placement
from repro.core.local_search import (
    simulated_annealing,
    swap_refinement,
    two_opt_refinement,
)
from repro.core.problem import PlacementProblem
from repro.core.spectral import fiedler_order, spectral_placement
from repro.dwm.config import DWMConfig
from repro.errors import OptimizationError
from repro.trace.model import AccessTrace
from repro.trace.synthetic import markov_trace


@pytest.fixture
def problem():
    trace = markov_trace(10, 250, locality=0.85, seed=17)
    config = DWMConfig(words_per_dbc=8, num_dbcs=2, port_offsets=(0,))
    return PlacementProblem(trace=trace, config=config)


class TestSwapRefinement:
    def test_never_worse(self, problem):
        start = random_placement(problem, 1)
        refined = swap_refinement(problem, start)
        assert evaluate_placement(problem, refined) <= evaluate_placement(
            problem, start
        )

    def test_improves_bad_start(self, problem):
        start = random_placement(problem, 1)
        refined = swap_refinement(problem, start)
        assert evaluate_placement(problem, refined) < evaluate_placement(
            problem, start
        )

    def test_respects_budget(self, problem):
        start = random_placement(problem, 2)
        # A budget of 1 evaluation (the initial one) means no moves tried.
        refined = swap_refinement(problem, start, max_evaluations=1)
        assert refined == start

    def test_valid_output(self, problem):
        refined = swap_refinement(problem, random_placement(problem, 3))
        refined.validate(problem.config, problem.items)


class TestTwoOptRefinement:
    def test_never_worse(self, problem):
        start = declaration_order_placement(problem)
        refined = two_opt_refinement(problem, start)
        assert evaluate_placement(problem, refined) <= evaluate_placement(
            problem, start
        )

    def test_fixes_reversed_stream(self):
        # Stream 0..9 placed in reverse: 2-opt should recover most of it.
        sequence = [f"v{k}" for k in range(8)] * 10
        trace = AccessTrace(sequence)
        config = DWMConfig(words_per_dbc=8, num_dbcs=1, port_offsets=(0,))
        problem = PlacementProblem(trace=trace, config=config)
        from repro.core.placement import Placement

        reverse = Placement(
            {f"v{k}": (0, 7 - k) for k in range(8)}
        )
        refined = two_opt_refinement(problem, reverse)
        assert evaluate_placement(problem, refined) < evaluate_placement(
            problem, reverse
        )

    def test_valid_output(self, problem):
        refined = two_opt_refinement(problem, random_placement(problem, 4))
        refined.validate(problem.config, problem.items)

    def test_untraced_item_keeps_its_slot(self):
        # ``x`` is never accessed but sits between traced items; segments
        # range over the traced offsets only and reverse around it.
        trace = AccessTrace(list("abcabcabdcba"))
        config = DWMConfig(words_per_dbc=4, num_dbcs=2, port_offsets=(0,))
        problem = PlacementProblem(trace=trace, config=config)
        from repro.core.placement import Placement, Slot

        start = Placement(
            {"c": (0, 0), "x": (0, 1), "b": (0, 2), "a": (0, 3), "d": (1, 0)}
        )
        refined = two_opt_refinement(problem, start)
        assert refined["x"] == Slot(0, 1)
        refined.validate(config, list(problem.items) + ["x"])
        assert evaluate_placement(problem, refined) < evaluate_placement(
            problem, start
        )


class TestSimulatedAnnealing:
    def test_never_worse_than_start(self, problem):
        start = declaration_order_placement(problem)
        annealed = simulated_annealing(
            problem, start, seed=0, max_evaluations=2000
        )
        assert evaluate_placement(problem, annealed) <= evaluate_placement(
            problem, start
        )

    def test_deterministic_per_seed(self, problem):
        start = declaration_order_placement(problem)
        first = simulated_annealing(problem, start, seed=5, max_evaluations=500)
        second = simulated_annealing(problem, start, seed=5, max_evaluations=500)
        assert first == second

    def test_invalid_cooling_raises(self, problem):
        start = declaration_order_placement(problem)
        with pytest.raises(OptimizationError):
            simulated_annealing(problem, start, cooling=1.5)

    def test_single_item_noop(self):
        trace = AccessTrace(["a", "a"])
        config = DWMConfig(words_per_dbc=4, num_dbcs=1)
        problem = PlacementProblem(trace=trace, config=config)
        from repro.core.placement import Placement

        start = Placement({"a": (0, 0)})
        assert simulated_annealing(problem, start) == start


class TestSpectral:
    def test_fiedler_order_groups_affine_items(self):
        # Two cliques joined by one weak edge: the order must not interleave.
        affinity = {
            ("a", "b"): 10, ("b", "c"): 10, ("a", "c"): 10,
            ("x", "y"): 10, ("y", "z"): 10, ("x", "z"): 10,
            ("c", "x"): 1,
        }
        order = fiedler_order(["a", "b", "c", "x", "y", "z"], affinity)
        first_half = set(order[:3])
        assert first_half in ({"a", "b", "c"}, {"x", "y", "z"})

    def test_fiedler_trivial_sizes(self):
        assert fiedler_order(["a"], {}) == ["a"]
        assert fiedler_order(["a", "b"], {}) == ["a", "b"]

    def test_spectral_placement_valid(self, problem):
        placement = spectral_placement(problem)
        placement.validate(problem.config, problem.items)

    def test_spectral_beats_random_on_locality(self, problem):
        spectral_cost = evaluate_placement(problem, spectral_placement(problem))
        random_cost = evaluate_placement(problem, random_placement(problem, 0))
        assert spectral_cost < random_cost

    def test_disconnected_components_handled(self):
        trace = AccessTrace(["a", "b"] * 5 + ["x", "y"] * 5)
        config = DWMConfig(words_per_dbc=4, num_dbcs=1)
        problem = PlacementProblem(trace=trace, config=config)
        placement = spectral_placement(problem)
        placement.validate(problem.config, problem.items)
