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

Both run over item codes in one kernel-tier call
(``kernels.active().min_affinity_groups``: compiled on the cc tier,
:func:`~repro.core.kernels.min_affinity_group_codes` on numpy), reading
the problem's neighbour CSR (:attr:`PlacementProblem.pairs`).  They keep
``own[item]`` — the item's weight toward its own group, updated in
O(degree) on every assign, move and swap — and scatter a visited item's
weight toward every group (and, for a swap, toward every item and every
item's toward its group) from the CSR into scratch arrays cleared after
it.  Groups are ``(G, width)`` member rows in list order.  Memory is
O(items + distinct pairs + G · width) whatever the group count: no
items × groups table.
"""

from __future__ import annotations

from repro.core import kernels
from repro.core.problem import PlacementProblem
from repro.errors import OptimizationError


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


def _grouped(problem: PlacementProblem, initial, max_passes: int, tier=None):
    """One kernel-tier grouping call over ``problem``'s codes, as names."""
    config = problem.config
    graph = problem.pairs
    if initial is None:
        num_groups = min(config.num_dbcs, problem.num_items)
    else:
        num_groups = initial[1].size
    members, sizes = (tier or kernels.active()).min_affinity_groups(
        num_groups, config.words_per_dbc, problem.hot_codes,
        graph.nb_start, graph.nb, graph.nb_w, initial, max_passes,
    )
    names = problem.items
    return [
        [names[code] for code in row[:size]]
        for row, size in zip(members.tolist(), sizes.tolist())
    ]


def greedy_min_affinity_grouping(
    problem: PlacementProblem, tier=None
) -> list[list[str]]:
    """Assign items (hottest first) to the least-conflicting group.

    Returns ``min(num_dbcs, num_items)`` lists, each of size at most
    ``words_per_dbc``.  Hot items are placed first so they get the freest
    choice; each goes to the group with spare capacity that minimizes
    ``(added affinity, group size, group index)``.  Runs on ``tier`` (the
    active one by default).
    """
    return _grouped(problem, None, 0, tier)


def refine_grouping(
    groups: list[list[str]],
    problem: PlacementProblem,
    max_passes: int = 4,
) -> list[list[str]]:
    """KL-style refinement: moves and swaps that reduce intra-group affinity.

    Runs first-improvement passes over the items in group order until a
    pass makes no change or ``max_passes`` (a negative count is 0) is
    hit: an item moves to the group with spare capacity it has strictly
    least affinity toward, else swaps with the first member of another
    group whose exchange has positive total gain.  Capacity is respected by every move; a group
    given over capacity only shrinks.  Unknown or repeated items raise
    :class:`OptimizationError`.
    """
    import numpy as np

    index = problem.item_index
    try:
        flat = [index[item] for group in groups for item in group]
    except KeyError as exc:
        raise OptimizationError(f"unknown item {exc.args[0]!r} in groups") from None
    if len(set(flat)) != len(flat):
        raise OptimizationError("grouping input contains duplicate items")
    sizes = np.asarray([len(group) for group in groups], dtype=np.int64)
    width = max(problem.config.words_per_dbc, int(sizes.max(initial=0)))
    members = np.full((sizes.size, width), -1, dtype=np.int64)
    members[np.arange(width) < sizes[:, None]] = flat
    return _grouped(problem, (members, sizes), max_passes)


def min_affinity_groups(problem: PlacementProblem, tier=None) -> list[list[str]]:
    """The interference-minimizing grouping: :func:`refine_grouping` of
    :func:`greedy_min_affinity_grouping`, in one call of ``tier`` (the
    active one by default)."""
    return _grouped(problem, None, 4, tier)
