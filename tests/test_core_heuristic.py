"""Unit tests for the full heuristic and its ablation variants."""


from repro.core.baselines import declaration_order_placement, random_placement
from repro.core.cost import evaluate_placement
from repro.core.heuristic import (
    chain_and_cut_groups,
    declaration_block_groups,
    grouping_only_placement,
    heuristic_placement,
    hot_spread_groups,
    ordering_only_placement,
)
from repro.core.problem import PlacementProblem
from repro.dwm.config import DWMConfig
from repro.trace.model import AccessTrace
from repro.trace.synthetic import markov_trace, pingpong_trace, stencil_trace


def cost_of(problem, placement):
    return evaluate_placement(problem, placement)


class TestCandidateGroupings:
    def test_chain_and_cut_covers_all_items(self, locality_problem):
        groups = chain_and_cut_groups(locality_problem)
        placed = sorted(item for group in groups for item in group)
        assert placed == sorted(locality_problem.items)
        capacity = locality_problem.config.words_per_dbc
        assert all(len(group) <= capacity for group in groups)
        assert len(groups) <= locality_problem.config.num_dbcs

    def test_declaration_blocks_shape(self, locality_problem):
        groups = declaration_block_groups(locality_problem)
        length = locality_problem.config.words_per_dbc
        assert all(len(group) <= length for group in groups)
        flattened = [item for group in groups for item in group]
        assert flattened == list(locality_problem.items)

    def test_hot_spread_round_robin(self, locality_problem):
        groups = hot_spread_groups(locality_problem)
        hot = locality_problem.hot_order
        # The k hottest items land in k distinct groups.
        first_wave = hot[: len(groups)]
        containing = []
        for item in first_wave:
            for index, group in enumerate(groups):
                if item in group:
                    containing.append(index)
        assert len(set(containing)) == len(first_wave)


class TestHeuristicQuality:
    def test_beats_declaration_on_locality_trace(self):
        trace = markov_trace(24, 600, locality=0.85, seed=5)
        config = DWMConfig(words_per_dbc=8, num_dbcs=3, port_offsets=(0,))
        problem = PlacementProblem(trace=trace, config=config)
        heuristic = cost_of(problem, heuristic_placement(problem))
        declaration = cost_of(problem, declaration_order_placement(problem))
        assert heuristic < declaration

    def test_beats_random_on_locality_trace(self, locality_problem):
        heuristic = cost_of(locality_problem, heuristic_placement(locality_problem))
        random_cost = cost_of(
            locality_problem, random_placement(locality_problem, 0)
        )
        assert heuristic <= random_cost

    def test_pingpong_solved_to_zero_with_enough_dbcs(self):
        trace = pingpong_trace(num_pairs=3, rounds=20)
        config = DWMConfig(words_per_dbc=4, num_dbcs=6, port_offsets=(0,))
        problem = PlacementProblem(trace=trace, config=config)
        assert cost_of(problem, heuristic_placement(problem)) == 0

    def test_streaming_not_worse_than_declaration(self):
        trace = stencil_trace(width=24, sweeps=4)
        config = DWMConfig.for_items(trace.num_items, words_per_dbc=8)
        problem = PlacementProblem(trace=trace, config=config)
        heuristic = cost_of(problem, heuristic_placement(problem))
        declaration = cost_of(problem, declaration_order_placement(problem))
        assert heuristic <= declaration

    def test_never_worse_than_declaration_blocks_candidate(self, locality_problem):
        """Candidate selection guarantees <= the ordered declaration blocks."""
        from repro.core.ordering import order_groups

        heuristic = cost_of(locality_problem, heuristic_placement(locality_problem))
        ordered_decl = cost_of(
            locality_problem,
            order_groups(
                locality_problem, declaration_block_groups(locality_problem)
            ),
        )
        assert heuristic <= ordered_decl

    def test_single_item_trace(self):
        trace = AccessTrace(["only"] * 5)
        config = DWMConfig(words_per_dbc=4, num_dbcs=1, port_offsets=(0,))
        problem = PlacementProblem(trace=trace, config=config)
        placement = heuristic_placement(problem)
        assert cost_of(problem, placement) == placement["only"].offset

    def test_deterministic(self, locality_problem):
        assert heuristic_placement(locality_problem) == heuristic_placement(
            locality_problem
        )

    def test_valid_placement(self, locality_problem):
        heuristic_placement(locality_problem).validate(
            locality_problem.config, locality_problem.items
        )


class TestAblationVariants:
    def test_grouping_only_uses_first_touch_order(self, locality_problem):
        placement = grouping_only_placement(locality_problem)
        placement.validate(locality_problem.config, locality_problem.items)
        # Offsets within each DBC must start at 0 (no port anchoring).
        for dbc in placement.dbcs_used():
            assert min(placement.dbc_contents(dbc)) == 0

    def test_ordering_only_keeps_declaration_blocks(self, locality_problem):
        placement = ordering_only_placement(locality_problem)
        placement.validate(locality_problem.config, locality_problem.items)
        length = locality_problem.config.words_per_dbc
        items = list(locality_problem.items)
        for index, item in enumerate(items):
            assert placement[item].dbc == index // length

    def test_combined_not_worse_than_ordering_only(self, locality_problem):
        combined = cost_of(locality_problem, heuristic_placement(locality_problem))
        ordering = cost_of(
            locality_problem, ordering_only_placement(locality_problem)
        )
        assert combined <= ordering
