"""ShiftsReduce-style bidirectional placement (Khan et al., arXiv 1903.03597).

ShiftsReduce builds each DBC's layout *bidirectionally*: the item with the
highest total adjacency weight seeds the chain, and every later item is
attached to whichever end of the partial chain costs less, so hot items
cluster around the centre instead of drifting to one edge the way purely
left-to-right constructions do.  On the MinLA view of the single-port lazy
cost model (docs/COST_MODEL.md) the attachment rule below is the exact
greedy step: appending item ``x`` at the left end adds
``Σ_p w(x,p)·(pos(p) − left + 1)`` to the arrangement objective, and the
algorithm picks the cheaper end.

Multi-DBC instances reuse the repo's grouping portfolio (the grouping and
ordering phases decompose per DBC, see ``repro.core.heuristic``), with the
bidirectional construction replacing the ordering phase.  Selection keeps
the paper heuristic's layouts in the candidate set, which makes
``shiftsreduce ≤ heuristic`` a structural guarantee — the same idiom that
makes ``heuristic ≤ declaration`` hold (its candidate set contains the
declaration layout).  Every tie-break is total (weights, then heat, then
first-touch rank), so the construction is byte-deterministic.
"""

from __future__ import annotations

from typing import Sequence

# Not called here, but perfbench/spans.py wraps these names in each placement
# module to time scoring, and fails if either is missing.
from repro.core.cost import evaluate_placement, evaluate_placements_fast  # noqa: F401
from repro.core.heuristic import portfolio_placement
from repro.core.ordering import GroupTrace, anchored_offsets
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.errors import OptimizationError

__all__ = ["bidirectional_order", "shiftsreduce_placement"]


def bidirectional_order(
    items: Sequence[str],
    affinity: dict[tuple[str, str], int],
    frequencies: dict[str, int] | None = None,
) -> list[str]:
    """ShiftsReduce's bidirectional chain over ``items``.

    The highest-degree item seeds the chain; each remaining item is chosen
    by maximum attachment weight to the placed set and appended to the end
    that increases the arrangement objective least.  Ties resolve by total
    degree, then access frequency, then first-touch rank — a total order,
    so the result is independent of dict/set iteration order.  Each unplaced
    item keeps its attachment weight ``A`` and moment ``B = Σ w·pos`` to the
    placed set, so the end costs are ``B − A·(left − 1)`` and
    ``A·(right + 1) − B`` and the whole chain takes O(k²).
    """
    items = list(items)
    if len(set(items)) != len(items):
        raise OptimizationError("ordering input contains duplicate items")
    if len(items) <= 1:
        return items
    frequencies = frequencies or {}
    member = set(items)
    rank = {item: position for position, item in enumerate(items)}
    neighbours: dict[str, dict[str, int]] = {item: {} for item in items}
    degree = {item: 0 for item in items}
    for (left, right), value in affinity.items():
        if left in member and right in member and left != right and value > 0:
            neighbours[left][right] = neighbours[left].get(right, 0) + value
            neighbours[right][left] = neighbours[right].get(left, 0) + value
            degree[left] += value
            degree[right] += value

    def tie_key(item: str) -> tuple[int, int, int]:
        return (degree[item], frequencies.get(item, 0), -rank[item])

    # Attachment weight and moment of each unplaced item to the placed set.
    attach = {item: 0 for item in items}
    moment = {item: 0 for item in items}
    remaining = set(items)
    position: dict[str, int] = {}
    left_end = right_end = 0

    def place(item: str, at: int) -> None:
        position[item] = at
        remaining.remove(item)
        for other, value in neighbours[item].items():
            if other in remaining:
                attach[other] += value
                moment[other] += value * at

    place(max(items, key=tie_key), 0)
    while remaining:
        best = max(remaining, key=lambda item: (attach[item],) + tie_key(item))
        left_cost = moment[best] - attach[best] * (left_end - 1)
        right_cost = attach[best] * (right_end + 1) - moment[best]
        if left_cost < right_cost:
            left_end -= 1
            place(best, left_end)
        else:
            right_end += 1
            place(best, right_end)
    return sorted(position, key=position.get)


def bidirectional_layouts(view: GroupTrace) -> list[dict[str, int]]:
    """The group's bidirectional chain and its reversal, median on a port."""
    config = view.config
    frequencies = view.frequencies
    order = bidirectional_order(view.items, view.affinity, frequencies)
    return [
        anchored_offsets(order, config, frequencies),
        anchored_offsets(order[::-1], config, frequencies),
    ]


def shiftsreduce_placement(problem: PlacementProblem) -> Placement:
    """Full ShiftsReduce placement: grouping portfolio + bidirectional order.

    The candidate set is every grouping of the repo portfolio laid out
    bidirectionally, then the same groupings laid out by the paper
    heuristic as guard candidates, so ``shiftsreduce ≤ heuristic`` holds
    structurally on every instance (E21's acceptance gate).  ShiftsReduce
    candidates are listed first, so they win cost ties.
    """
    return portfolio_placement(problem, bidirectional_layouts)
