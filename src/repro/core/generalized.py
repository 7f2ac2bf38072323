"""Generalized port-aware placement (Khan et al., arXiv 1912.03507).

The generalized data placement work observes that the classic single-port
constructions stop being the right shape as soon as a DBC has several
access ports: the cheap offsets are no longer one contiguous window but a
*union of neighbourhoods around every port*, and a layout should split its
access chain across those neighbourhoods instead of anchoring the whole
chain at one port.  This module implements the port-count/position
parametric strategies:

* **port-proximity ranking** — offsets sorted by distance to their nearest
  port, hottest items on the cheapest offsets (the exact eager optimum by
  the rearrangement inequality, and a strong lazy generalization);
* **multi-port chain splitting** — the greedy affinity chain cut into one
  contiguous segment per port, each segment anchored so its access-weighted
  median sits on its port (:func:`multi_port_chain_offsets`); with one port
  this degrades exactly to the classic anchored chain;
* the single-port anchored chain itself, kept as a candidate so the
  generalization never loses to the specialization it extends.

Per group the cheapest strategy wins by exact evaluation of the restricted
subsequence (sound by the per-DBC cost decomposition); across grouping
candidates the cheapest full placement wins, with the paper heuristic's
placement kept in the candidate set so ``generalized ≤ heuristic`` is a
structural guarantee (the repo's portfolio idiom).  All tie-breaks are
total, so the construction is byte-deterministic.
"""

from __future__ import annotations

from typing import Sequence

# Not called here, but perfbench/spans.py wraps this name in each placement
# module to time scalar scoring, and fails if it is missing.
from repro.core.cost import evaluate_placement  # noqa: F401
from repro.core.cost import evaluate_placements_fast
from repro.core.grouping import greedy_min_affinity_grouping, refine_grouping
from repro.core.heuristic import (
    chain_and_cut_groups,
    declaration_block_groups,
    heuristic_placement,
    hot_spread_groups,
)
from repro.core.ordering import (
    anchored_offsets,
    greedy_chain_order,
    proximity_offsets,
    restricted_sequence_cost,
    weighted_median_index,
)
from repro.core.placement import Placement, Slot
from repro.core.problem import PlacementProblem
from repro.dwm.config import DWMConfig
from repro.errors import OptimizationError
from repro.trace.stats import affinity_graph

__all__ = ["multi_port_chain_offsets", "generalized_placement"]


def multi_port_chain_offsets(
    order: Sequence[str],
    config: DWMConfig,
    frequencies: dict[str, int] | None = None,
) -> dict[str, int]:
    """Split ``order`` into one contiguous segment per port, port-anchored.

    The chain is cut into ``num_ports`` balanced contiguous segments
    (leading segments absorb the remainder) assigned to ports in ascending
    offset order.  Each segment is placed contiguously with its
    access-weighted median as close to its port as the already-placed
    prefix and the space the remaining segments need allow, so the result
    is always injective and in range.  With one port this reduces to
    :func:`repro.core.ordering.anchored_offsets`.
    """
    order = list(order)
    length = config.words_per_dbc
    if len(order) > length:
        raise OptimizationError(
            f"group of {len(order)} items exceeds DBC capacity {length}"
        )
    frequencies = frequencies or {}
    ports = config.port_offsets
    num_segments = min(len(ports), len(order)) or 1
    base, extra = divmod(len(order), num_segments)
    segments: list[list[str]] = []
    start = 0
    for index in range(num_segments):
        size = base + (1 if index < extra else 0)
        segments.append(order[start : start + size])
        start += size
    offsets: dict[str, int] = {}
    floor = 0
    remaining = len(order)
    for segment, port in zip(segments, ports):
        remaining -= len(segment)
        median = weighted_median_index(segment, frequencies)
        seg_start = port - median
        seg_start = max(floor, min(length - len(segment) - remaining, seg_start))
        for position, item in enumerate(segment):
            offsets[item] = seg_start + position
        floor = seg_start + len(segment)
    return offsets


def _order_groups_generalized(
    problem: PlacementProblem,
    groups: Sequence[Sequence[str]],
) -> Placement:
    """Assemble a placement choosing the best port-aware layout per group."""
    frequencies = dict(problem.trace.frequencies())
    mapping: dict[str, Slot] = {}
    for dbc, group in enumerate(groups):
        group = list(group)
        if not group:
            continue
        if dbc >= problem.config.num_dbcs:
            raise OptimizationError(
                f"group index {dbc} exceeds array DBC count "
                f"{problem.config.num_dbcs}"
            )
        restricted = problem.trace.restricted_to(group)
        affinity = affinity_graph(restricted)
        chain = greedy_chain_order(group, affinity)
        candidates = [
            multi_port_chain_offsets(chain, problem.config, frequencies),
            multi_port_chain_offsets(
                list(reversed(chain)), problem.config, frequencies
            ),
            proximity_offsets(group, problem.config, frequencies),
            anchored_offsets(chain, problem.config, frequencies),
        ]
        best_offsets = None
        best_cost = None
        for offsets in candidates:
            cost = restricted_sequence_cost(restricted, offsets, problem.config)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_offsets = offsets
        assert best_offsets is not None
        for item, offset in best_offsets.items():
            mapping[item] = Slot(dbc, offset)
    return Placement(mapping)


def generalized_placement(
    problem: PlacementProblem,
    num_groups: int | None = None,
) -> Placement:
    """Full generalized placement: grouping portfolio + port-aware layouts.

    The candidate set is every grouping of the repo portfolio laid out
    with the port-parametric strategies, plus the paper heuristic's own
    placement as a guard candidate, making ``generalized ≤ heuristic`` a
    structural guarantee on every instance (E21's acceptance gate).
    Generalized candidates are listed first, so they win cost ties.
    """
    groupings: list[list[list[str]]] = [
        refine_grouping(
            greedy_min_affinity_grouping(problem, num_groups=num_groups), problem
        ),
        chain_and_cut_groups(problem, num_groups=num_groups),
        declaration_block_groups(problem),
        hot_spread_groups(problem, num_groups=num_groups),
    ]
    placements = [
        _order_groups_generalized(problem, groups) for groups in groupings
    ]
    placements.append(heuristic_placement(problem))
    costs = evaluate_placements_fast(problem, placements, validate=False)
    # ``index`` returns the first minimum, so earlier candidates win ties.
    return placements[costs.index(min(costs))]
