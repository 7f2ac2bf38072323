"""Unit tests for repro.trace.stats."""

import pytest

from repro.trace.model import AccessTrace
from repro.trace.stats import (
    affinity_graph,
    compute_stats,
    hot_items,
    reuse_distances,
    shift_locality_score,
    transition_counts,
)


class TestAffinityGraph:
    def test_counts_unordered_pairs(self):
        trace = AccessTrace(["a", "b", "a", "b"])
        graph = affinity_graph(trace)
        assert graph == {("a", "b"): 3}

    def test_self_pairs_excluded_by_default(self):
        trace = AccessTrace(["a", "a", "b"])
        graph = affinity_graph(trace)
        assert ("a", "a") not in graph
        assert graph[("a", "b")] == 1

    def test_self_pairs_included_on_request(self):
        trace = AccessTrace(["a", "a"])
        graph = affinity_graph(trace, include_self_pairs=True)
        assert graph[("a", "a")] == 1

    def test_key_is_sorted(self):
        trace = AccessTrace(["b", "a"])
        assert list(affinity_graph(trace)) == [("a", "b")]

    def test_empty_trace(self):
        assert affinity_graph(AccessTrace([])) == {}

    def test_total_mass_is_nonself_transitions(self):
        trace = AccessTrace(["a", "b", "c", "b", "b", "a"])
        graph = affinity_graph(trace)
        # transitions: ab bc cb bb ba -> 4 non-self
        assert sum(graph.values()) == 4


class TestTransitionCounts:
    def test_keeps_direction(self):
        trace = AccessTrace(["a", "b", "a"])
        counts = transition_counts(trace)
        assert counts[("a", "b")] == 1
        assert counts[("b", "a")] == 1

    def test_keeps_self_pairs(self):
        trace = AccessTrace(["a", "a"])
        assert transition_counts(trace) == {("a", "a"): 1}


class TestReuseDistances:
    def test_immediate_reuse_distance_zero(self):
        assert reuse_distances(AccessTrace(["a", "a"])) == [0]

    def test_one_item_between(self):
        assert reuse_distances(AccessTrace(["a", "b", "a"])) == [1]

    def test_cold_misses_excluded(self):
        assert reuse_distances(AccessTrace(["a", "b", "c"])) == []

    def test_lru_stack_semantics(self):
        # a b c b a: b reused at distance 1, a reused at distance 2 (c,b seen)
        assert reuse_distances(AccessTrace(["a", "b", "c", "b", "a"])) == [1, 2]


class TestComputeStats:
    def test_basic_fields(self, tiny_trace):
        stats = compute_stats(tiny_trace)
        assert stats.num_accesses == 5
        assert stats.num_items == 3
        assert stats.reads == 4
        assert stats.writes == 1
        assert stats.name == "tiny"

    def test_write_fraction(self, tiny_trace):
        assert compute_stats(tiny_trace).write_fraction == pytest.approx(0.2)

    def test_accesses_per_item(self, tiny_trace):
        assert compute_stats(tiny_trace).accesses_per_item == pytest.approx(5 / 3)

    def test_top_item(self):
        trace = AccessTrace(["a", "a", "b"])
        stats = compute_stats(trace)
        assert stats.top_item == "a"
        assert stats.max_item_frequency == 2

    def test_empty_reuse_stats_zero(self):
        stats = compute_stats(AccessTrace(["a", "b"]))
        assert stats.mean_reuse_distance == 0.0


class TestHotItems:
    def test_sorted_by_frequency(self):
        trace = AccessTrace(["a", "b", "b", "c", "c", "c"])
        assert hot_items(trace) == ["c", "b", "a"]

    def test_ties_break_first_touch(self):
        trace = AccessTrace(["b", "a", "b", "a"])
        assert hot_items(trace) == ["b", "a"]


class TestShiftLocalityScore:
    def test_empty_trace_zero(self):
        assert shift_locality_score(AccessTrace([])) == 0.0

    def test_concentrated_transitions_score_high(self):
        concentrated = AccessTrace(["a", "b"] * 50)
        assert shift_locality_score(concentrated) == 1.0

    def test_score_bounded(self, locality_trace):
        score = shift_locality_score(locality_trace)
        assert 0.0 <= score <= 1.0


def _stack_walk_reuse_distances(trace):
    """The original O(n^2) LRU-stack implementation, kept as a test oracle."""
    stack = []
    distances = []
    for access in trace:
        item = access.item
        if item in stack:
            index = stack.index(item)
            distances.append(index)
            stack.pop(index)
        stack.insert(0, item)
    return distances


class TestReuseDistancesDifferential:
    """The Fenwick-tree rewrite must match the old stack walk exactly."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_stack_walk_on_random_traces(self, seed):
        import random

        rng = random.Random(seed)
        items = [f"i{k}" for k in range(rng.randint(2, 12))]
        trace = AccessTrace(
            [rng.choice(items) for _ in range(rng.randint(1, 300))]
        )
        assert reuse_distances(trace) == _stack_walk_reuse_distances(trace)

    def test_matches_stack_walk_on_pathological_trace(self):
        # Single hot item with a long cold tail in between: the pattern
        # that made the quadratic scan hurt the most.
        sequence = (
            ["hot"] + [f"cold{k}" for k in range(50)] + ["hot"]
        ) * 3
        trace = AccessTrace(sequence)
        assert reuse_distances(trace) == _stack_walk_reuse_distances(trace)

    def test_empty_trace(self):
        assert reuse_distances(AccessTrace([])) == []


class TestMedianReuseDistance:
    def test_even_length_averages_middle_pair(self):
        # Distances are [0, 1]: a-a reused immediately, b reused past one
        # distinct item.  The median of an even-length list is the mean of
        # the two middle elements, not the upper one.
        trace = AccessTrace(["a", "a", "b", "a", "b"])
        distances = reuse_distances(trace)
        assert sorted(distances) == [0, 1, 1]  # sanity: odd case unchanged
        trace = AccessTrace(["a", "a", "b", "c", "b"])
        assert sorted(reuse_distances(trace)) == [0, 1]
        stats = compute_stats(trace)
        assert stats.median_reuse_distance == pytest.approx(0.5)

    def test_odd_length_still_middle_element(self):
        trace = AccessTrace(["a", "a", "b", "c", "b", "d", "c"])
        assert sorted(reuse_distances(trace)) == [0, 1, 2]
        stats = compute_stats(trace)
        assert stats.median_reuse_distance == pytest.approx(1.0)


class TestTopItemTieBreak:
    def test_count_ties_break_by_name(self):
        stats = compute_stats(AccessTrace(["b", "a", "b", "a"]))
        assert stats.top_item == "a"
        assert stats.max_item_frequency == 2

    def test_tie_break_independent_of_first_touch(self):
        first = compute_stats(AccessTrace(["z", "a", "z", "a"]))
        second = compute_stats(AccessTrace(["a", "z", "a", "z"]))
        assert first.top_item == second.top_item == "a"
