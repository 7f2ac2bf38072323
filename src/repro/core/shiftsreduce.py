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
the paper heuristic's placement in the candidate set, which makes
``shiftsreduce ≤ heuristic`` a structural guarantee — the same idiom that
makes ``heuristic ≤ declaration`` hold (its candidate set contains the
declaration layout).  Every tie-break is total (weights, then heat, then
first-touch rank), so the construction is byte-deterministic.
"""

from __future__ import annotations

from typing import Sequence

# Not called here, but perfbench/spans.py wraps this name in each placement
# module to time scalar scoring, and fails if it is missing.
from repro.core.cost import evaluate_placement  # noqa: F401
from repro.core.cost import evaluate_placements_fast
from repro.core.heuristic import grouping_portfolio, heuristic_placement
from repro.core.ordering import GroupTrace, anchored_offsets, layout_groups
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
    so the result is independent of dict/set iteration order.
    """
    items = list(items)
    if len(set(items)) != len(items):
        raise OptimizationError("ordering input contains duplicate items")
    if len(items) <= 1:
        return items
    frequencies = frequencies or {}
    member = set(items)
    rank = {item: position for position, item in enumerate(items)}
    weight: dict[tuple[str, str], int] = {}
    degree = {item: 0 for item in items}
    for (left, right), value in affinity.items():
        if left in member and right in member and left != right and value > 0:
            weight[(left, right)] = weight.get((left, right), 0) + value
            weight[(right, left)] = weight.get((right, left), 0) + value
            degree[left] += value
            degree[right] += value

    def tie_key(item: str) -> tuple[int, int, int]:
        return (degree[item], frequencies.get(item, 0), -rank[item])

    seed = max(items, key=tie_key)
    position = {seed: 0}
    left_end = right_end = 0
    remaining = [item for item in items if item != seed]
    while remaining:
        best = max(
            remaining,
            key=lambda item: (
                sum(weight.get((item, placed), 0) for placed in position),
            )
            + tie_key(item),
        )
        left_cost = sum(
            weight.get((best, placed), 0) * (q - (left_end - 1))
            for placed, q in position.items()
        )
        right_cost = sum(
            weight.get((best, placed), 0) * ((right_end + 1) - q)
            for placed, q in position.items()
        )
        if left_cost < right_cost:
            left_end -= 1
            position[best] = left_end
        else:
            right_end += 1
            position[best] = right_end
        remaining.remove(best)
    return sorted(position, key=position.get)


def _order_groups_bidirectional(
    problem: PlacementProblem,
    groups: Sequence[Sequence[str]],
) -> Placement:
    """Assemble a placement with the bidirectional construction per group.

    Each group's chain (and its reversal) is anchored so the weighted
    median sits on a port; :func:`repro.core.ordering.layout_groups` keeps
    the cheaper layout.
    """
    config = problem.config
    frequencies = problem.frequencies

    def candidates(view: GroupTrace) -> list[dict[str, int]]:
        order = bidirectional_order(view.items, view.affinity, frequencies)
        return [
            anchored_offsets(order, config, frequencies),
            anchored_offsets(order[::-1], config, frequencies),
        ]

    return layout_groups(problem, groups, candidates)


def shiftsreduce_placement(problem: PlacementProblem) -> Placement:
    """Full ShiftsReduce placement: grouping portfolio + bidirectional order.

    The candidate set is every grouping of the repo portfolio laid out
    bidirectionally, plus the paper heuristic's own placement as a guard
    candidate, so ``shiftsreduce ≤ heuristic`` holds structurally on every
    instance (E21's acceptance gate).  ShiftsReduce candidates are listed
    first, so they win cost ties.
    """
    portfolio = grouping_portfolio(problem)
    placements = [_order_groups_bidirectional(problem, groups) for groups in portfolio]
    placements.append(heuristic_placement(problem, portfolio))
    costs = evaluate_placements_fast(problem, placements, validate=False)
    # ``index`` returns the first minimum, so earlier candidates win ties.
    return placements[costs.index(min(costs))]
