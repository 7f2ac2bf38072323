"""The int-coded grouping against the name-keyed dict implementation.

``greedy_min_affinity_grouping`` and ``refine_grouping`` run over item
codes in one kernel-tier call (compiled on cc,
``kernels.min_affinity_group_codes`` on numpy).  ``_greedy_reference`` and
``_refine_reference`` below are the walk they replace, over per-item
neighbour dicts and an item → group weight table; both tiers must
reproduce their groups member for member, in order.  The chain-and-cut
chain, built from the problem's pair list, must be ``greedy_chain_order``
of every item.
"""

import random

import numpy as np
import pytest

from repro.core.grouping import (
    greedy_min_affinity_grouping,
    min_affinity_groups,
    refine_grouping,
)
from repro.core.heuristic import chain_and_cut_groups
from repro.core.ordering import greedy_chain_order
from repro.core.problem import PlacementProblem, pair_counts
from repro.dwm.config import DWMConfig
from repro.errors import OptimizationError
from repro.trace.kernels import KERNELS
from repro.trace.model import AccessTrace

TIERS = ["active", "numpy"]


def _move(table, neighbors, item, source, target):
    """Record ``item`` leaving group ``source`` (``None``: unplaced) for ``target``."""
    for other, weight in neighbors[item].items():
        row = table[other]
        if source is not None:
            row[source] -= weight
        row[target] = row.get(target, 0) + weight


def _greedy_reference(problem):
    capacity = problem.config.words_per_dbc
    neighbors = problem.neighbors
    groups = [[] for _ in range(min(problem.config.num_dbcs, problem.num_items))]
    table = {item: {} for item in problem.items}
    for item in problem.hot_order:
        weights = table[item]
        best_group = 0
        best_key = None
        for index, group in enumerate(groups):
            if len(group) >= capacity:
                continue
            key = (weights.get(index, 0), len(group), index)
            if best_key is None or key < best_key:
                best_key = key
                best_group = index
        groups[best_group].append(item)
        _move(table, neighbors, item, None, best_group)
    return groups


def _refine_reference(groups, problem, max_passes=4):
    capacity = problem.config.words_per_dbc
    neighbors = problem.neighbors
    groups = [list(group) for group in groups]
    group_of = {item: index for index, group in enumerate(groups) for item in group}
    table = {item: {} for item in problem.items}
    for item, index in group_of.items():
        _move(table, neighbors, item, None, index)
    for _ in range(max_passes):
        changed = False
        for item in [item for group in groups for item in group]:
            source = group_of[item]
            weights = table[item]
            current_cost = weights.get(source, 0)
            if current_cost == 0:
                continue
            best_target, best_cost = source, current_cost
            for target in range(len(groups)):
                if target == source or len(groups[target]) >= capacity:
                    continue
                candidate = weights.get(target, 0)
                if candidate < best_cost:
                    best_cost, best_target = candidate, target
            if best_target != source:
                groups[source].remove(item)
                groups[best_target].append(item)
                group_of[item] = best_target
                _move(table, neighbors, item, source, best_target)
                changed = True
                continue
            for target in range(len(groups)):
                if target == source:
                    continue
                swapped = False
                for other in list(groups[target]):
                    pair_weight = neighbors[item].get(other, 0)
                    other_weights = table[other]
                    gain_item = current_cost - (weights.get(target, 0) - pair_weight)
                    gain_other = other_weights.get(target, 0) - (
                        other_weights.get(source, 0) - pair_weight
                    )
                    if gain_item + gain_other > 0:
                        groups[source].remove(item)
                        groups[target].remove(other)
                        groups[source].append(other)
                        groups[target].append(item)
                        group_of[item] = target
                        group_of[other] = source
                        _move(table, neighbors, item, source, target)
                        _move(table, neighbors, other, target, source)
                        changed = True
                        swapped = True
                        break
                if swapped:
                    break
        if not changed:
            break
    return groups


def _tied_problem(seed, words):
    """Names ``x14 … x1`` (string order differs from first touch) in short
    repeated cycles, so many pair weights and group weights tie."""
    rng = random.Random(seed)
    names = [f"x{index}" for index in range(rng.randint(3, 14), 0, -1)]
    cycle = rng.sample(names, k=min(len(names), rng.randint(2, 5)))
    sequence = []
    while len(sequence) < rng.randint(30, 140):
        if rng.random() < 0.5:
            sequence.extend(cycle)
        else:
            sequence.append(rng.choice(names))
    sequence.extend(name for name in names if name not in sequence)
    dbcs = -(-len(names) // words) + rng.randint(0, 3)
    config = DWMConfig(words_per_dbc=words, num_dbcs=dbcs, port_offsets=(0,))
    return PlacementProblem(trace=AccessTrace(sequence), config=config)


def _hub_problem(words=4):
    """One hub adjacent to every other item (degree n - 1), satellites in
    rounds so their weights tie."""
    sequence = []
    for _ in range(3):
        for index in range(1, 24):
            sequence += ["hub", f"s{index}"]
    config = DWMConfig(
        words_per_dbc=words, num_dbcs=-(-24 // words) + 1, port_offsets=(0,)
    )
    return PlacementProblem(trace=AccessTrace(sequence), config=config)


def _isolated_problem():
    """Items ``v`` and ``u`` are never accessed, so neither has a
    neighbour; ``w`` repeats itself (self-pairs are no pairs)."""
    items = ("z", "y", "x", "w", "v", "u")
    item_at = np.asarray([2, 0, 2, 1, 3, 3, 3, 0, 2, 1, 2], dtype=np.int64)
    trace = AccessTrace._from_dense(items, item_at, np.zeros(item_at.size, dtype=bool))
    config = DWMConfig(words_per_dbc=2, num_dbcs=4, port_offsets=(0,))
    return PlacementProblem(trace=trace, config=config)


@pytest.mark.parametrize("kernel_tier", TIERS, indirect=True)
class TestAgainstReference:
    @pytest.mark.parametrize("words", [2, 3, 4, 8, 16])
    @pytest.mark.parametrize("seed", range(40))
    def test_tied_traces(self, kernel_tier, seed, words):
        problem = _tied_problem(seed, words)
        greedy = _greedy_reference(problem)
        assert greedy_min_affinity_grouping(problem) == greedy
        for passes in (0, 1, 4):
            assert refine_grouping(greedy, problem, passes) == _refine_reference(
                greedy, problem, passes
            )
        assert min_affinity_groups(problem) == _refine_reference(greedy, problem)

    @pytest.mark.parametrize("words", [2, 3, 4, 8])
    def test_hub_of_degree_n(self, kernel_tier, words):
        problem = _hub_problem(words)
        hub = problem.item_index["hub"]
        graph = problem.pairs
        assert graph.nb_start[hub + 1] - graph.nb_start[hub] == problem.num_items - 1
        greedy = _greedy_reference(problem)
        assert greedy_min_affinity_grouping(problem) == greedy
        assert min_affinity_groups(problem) == _refine_reference(greedy, problem)

    def test_items_without_neighbours(self, kernel_tier):
        problem = _isolated_problem()
        graph = problem.pairs
        for item in ("v", "u"):
            code = problem.item_index[item]
            assert graph.nb_start[code + 1] == graph.nb_start[code]
        greedy = _greedy_reference(problem)
        assert greedy_min_affinity_grouping(problem) == greedy
        for passes in (0, 1, 4):
            assert refine_grouping(greedy, problem, passes) == _refine_reference(
                greedy, problem, passes
            )

    @pytest.mark.parametrize("seed", range(30))
    def test_bad_starting_groupings(self, kernel_tier, seed):
        # G differs from min(num_dbcs, n), groups may be empty or over
        # capacity, and some items may be left out altogether.
        rng = random.Random(seed)
        problem = _tied_problem(seed, rng.choice((2, 3, 4)))
        items = list(problem.items)
        rng.shuffle(items)
        if rng.random() < 0.3:
            items = items[: rng.randint(0, len(items))]
        groups = [[] for _ in range(rng.randint(1, len(items) + 2))]
        for item in items:
            rng.choice(groups).append(item)
        for passes in (0, 1, 4):
            assert refine_grouping(groups, problem, passes) == _refine_reference(
                groups, problem, passes
            )

    def test_overfull_group_only_shrinks(self, kernel_tier):
        trace = AccessTrace(["a", "b", "c", "d"] * 10 + ["a", "c"] * 10)
        config = DWMConfig(words_per_dbc=2, num_dbcs=3, port_offsets=(0,))
        problem = PlacementProblem(trace=trace, config=config)
        groups = [["a", "b", "c", "d"], [], []]
        refined = refine_grouping(groups, problem)
        assert refined == _refine_reference(groups, problem)
        assert len(refined[0]) < 4 and all(len(g) <= 2 for g in refined[1:])

    def test_suite_kernels(self, kernel_tier):
        for index, name in enumerate(KERNELS):
            trace = KERNELS[name](seed=101 + index)
            config = DWMConfig.for_items(trace.num_items, words_per_dbc=16)
            problem = PlacementProblem(trace=trace, config=config)
            greedy = _greedy_reference(problem)
            assert greedy_min_affinity_grouping(problem) == greedy, name
            assert min_affinity_groups(problem) == _refine_reference(
                greedy, problem
            ), name

    @pytest.mark.parametrize("seed", range(20))
    def test_chain_and_cut_chain(self, kernel_tier, seed):
        problem = _tied_problem(seed, 4)
        chain = greedy_chain_order(list(problem.items), problem.affinity)
        flat = [item for group in chain_and_cut_groups(problem) for item in group]
        assert flat == chain


class TestPairGraph:
    def test_affinity_is_a_view_of_the_pair_list(self):
        for seed in range(10):
            problem = _tied_problem(seed, 4)
            assert list(problem.affinity.items()) == list(
                pair_counts(problem.item_at, problem.items).items()
            )
            graph = problem.pairs
            names = problem.items
            for code, item in enumerate(names):
                span = slice(graph.nb_start[code], graph.nb_start[code + 1])
                got = {
                    names[other]: weight
                    for other, weight in zip(graph.nb[span].tolist(),
                                             graph.nb_w[span].tolist())
                }
                assert got == problem.neighbors[item]

    def test_hot_codes_follow_hot_order(self):
        problem = _tied_problem(3, 4)
        assert [problem.items[c] for c in problem.hot_codes.tolist()] == list(
            problem.hot_order
        )
        frequencies = problem.frequencies
        assert list(problem.hot_order) == sorted(
            problem.items, key=lambda item: -frequencies[item]
        )


class TestTypedErrors:
    def make_problem(self):
        trace = AccessTrace(["a", "b", "c", "a", "c"])
        config = DWMConfig(words_per_dbc=2, num_dbcs=2, port_offsets=(0,))
        return PlacementProblem(trace=trace, config=config)

    def test_unknown_item(self):
        with pytest.raises(OptimizationError, match="unknown item"):
            refine_grouping([["a", "zz"], ["b"]], self.make_problem())

    def test_duplicate_item(self):
        with pytest.raises(OptimizationError, match="duplicate"):
            refine_grouping([["a", "b"], ["a"]], self.make_problem())

    def test_negative_passes_are_zero(self):
        problem = self.make_problem()
        groups = [["a", "c"], ["b"]]
        assert refine_grouping(groups, problem, -3) == groups

    @pytest.mark.parametrize("kernel_tier", TIERS, indirect=True)
    def test_tier_rejects_malformed_arrays(self, kernel_tier):
        problem = self.make_problem()
        graph = problem.pairs
        csr = (graph.nb_start, graph.nb, graph.nb_w)
        hot = problem.hot_codes
        with pytest.raises(ValueError):
            kernel_tier.min_affinity_groups(2, 2, hot[:-1], *csr)
        with pytest.raises(IndexError):
            kernel_tier.min_affinity_groups(
                2, 2, hot, *csr, (np.asarray([[0, 7], [1, -1]]), np.asarray([2, 1]))
            )
        with pytest.raises(ValueError):
            kernel_tier.min_affinity_groups(
                2, 2, hot, *csr, (np.asarray([[0, 0], [1, -1]]), np.asarray([2, 1]))
            )
        with pytest.raises(ValueError):
            kernel_tier.min_affinity_groups(
                2, 2, hot, *csr, (np.asarray([[0, 2], [1, -1]]), np.asarray([3, 1]))
            )
        with pytest.raises(ValueError):  # rows narrower than capacity
            kernel_tier.min_affinity_groups(
                2, 3, hot, *csr, (np.asarray([[0, 2], [1, -1]]), np.asarray([2, 1]))
            )
        with pytest.raises(ValueError):
            kernel_tier.min_affinity_groups(1, 2, hot, *csr)  # no room for 3 items
