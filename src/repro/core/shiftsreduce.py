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
from repro.core import kernels
from repro.core.heuristic import portfolio_placement
from repro.core.ordering import GroupedTrace, Layout, anchored_layout
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
    ``A·(right + 1) − B`` and the whole chain takes O(k²)
    (:func:`~repro.core.kernels.bidirectional_chain_codes`, the int-coded
    construction the planner runs per grouping).
    """
    items = list(items)
    if len(set(items)) != len(items):
        raise OptimizationError("ordering input contains duplicate items")
    frequencies = frequencies or {}
    rank = {item: position for position, item in enumerate(items)}
    weights = [[0] * len(items) for _ in items]
    for (left, right), value in affinity.items():
        if left in rank and right in rank and left != right and value > 0:
            weights[rank[left]][rank[right]] += value
            weights[rank[right]][rank[left]] += value
    freq = [frequencies.get(item, 0) for item in items]
    return [items[code] for code in kernels.bidirectional_chain_codes(weights, freq)]


def bidirectional_layouts(view: GroupedTrace) -> list[Layout]:
    """Every group's bidirectional chain and its reversal, median on a port."""
    order = kernels.active().bidirectional_chains(view.pairs, view.sizes, view.freq)
    return [anchored_layout(view, order), anchored_layout(view, view.reversed(order))]


def shiftsreduce_placement(problem: PlacementProblem) -> Placement:
    """Full ShiftsReduce placement: grouping portfolio + bidirectional order.

    The candidate set is every grouping of the repo portfolio laid out
    bidirectionally, then the same groupings laid out by the paper
    heuristic as guard candidates, so ``shiftsreduce ≤ heuristic`` holds
    structurally on every instance (E21's acceptance gate).  ShiftsReduce
    candidates are listed first, so they win cost ties.
    """
    return portfolio_placement(problem, bidirectional_layouts)
