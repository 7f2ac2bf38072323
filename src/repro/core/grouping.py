"""Grouping phase: partition items across DBCs.

Because every DBC keeps its own head, a consecutive access pair placed on
*different* DBCs costs no shifts at all — the cost of a placement decomposes
over each DBC's restricted access subsequence.  The grouping phase therefore
partitions items into at most ``num_dbcs`` groups of at most ``L`` items
while **minimizing intra-group affinity** (the transition weight that remains
to be paid inside DBCs); the ordering phase then arranges each group to make
the remaining transitions short.

Two algorithms are provided:

* :func:`greedy_min_affinity_grouping` — items in descending frequency order,
  each assigned to the group where it adds the least intra-group affinity
  (capacity permitting).  O(n · g + pairs) and the default.
* :func:`refine_grouping` — Kernighan–Lin style improvement: single-item
  moves and pairwise swaps between groups accepted when they reduce total
  intra-group affinity.

Both read an item → group weight table (an item's affinity toward each
group's current members), updated in O(degree) on every assign, move and
swap; it is sparse, O(items + distinct pairs) whatever the group count.
"""

from __future__ import annotations

from repro.core.problem import PlacementProblem

#: item → {group index: affinity toward that group's current members}.
GroupWeights = dict[str, dict[int, int]]


def _move(
    table: GroupWeights,
    neighbors: dict[str, dict[str, int]],
    item: str,
    source: int | None,
    target: int,
) -> None:
    """Record ``item`` leaving group ``source`` (``None``: unplaced) for ``target``."""
    for other, weight in neighbors[item].items():
        row = table[other]
        if source is not None:
            row[source] -= weight
        row[target] = row.get(target, 0) + weight


def intra_group_affinity(
    groups: list[list[str]],
    affinity: dict[tuple[str, str], int],
) -> int:
    """Total affinity weight of pairs that share a group."""
    group_of: dict[str, int] = {}
    for index, group in enumerate(groups):
        for item in group:
            group_of[item] = index
    total = 0
    for (left, right), weight in affinity.items():
        if left == right:
            continue
        group_left = group_of.get(left)
        if group_left is not None and group_left == group_of.get(right):
            total += weight
    return total


def greedy_min_affinity_grouping(problem: PlacementProblem) -> list[list[str]]:
    """Assign items (hottest first) to the least-conflicting group.

    Returns ``min(num_dbcs, num_items)`` lists, each of size at most
    ``words_per_dbc``.  Hot items are placed first so they get the freest
    choice; ties break toward the emptiest group to balance load.
    """
    config = problem.config
    capacity = config.words_per_dbc
    neighbors = problem.neighbors
    groups: list[list[str]] = [
        [] for _ in range(min(config.num_dbcs, problem.num_items))
    ]
    table: GroupWeights = {item: {} for item in problem.items}
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


def refine_grouping(
    groups: list[list[str]],
    problem: PlacementProblem,
    max_passes: int = 4,
) -> list[list[str]]:
    """KL-style refinement: moves and swaps that reduce intra-group affinity.

    Runs first-improvement passes until a pass makes no change or
    ``max_passes`` is hit.  Capacity is respected throughout.
    """
    capacity = problem.config.words_per_dbc
    neighbors = problem.neighbors
    groups = [list(group) for group in groups]
    group_of = {
        item: index for index, group in enumerate(groups) for item in group
    }
    table: GroupWeights = {item: {} for item in problem.items}
    for item, index in group_of.items():
        _move(table, neighbors, item, None, index)

    for _ in range(max_passes):
        changed = False
        items = [item for group in groups for item in group]
        for item in items:
            source = group_of[item]
            weights = table[item]
            current_cost = weights.get(source, 0)
            if current_cost == 0:
                continue
            # Try moving to a group with spare capacity.
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
            # Try swapping with an item of another group.
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
