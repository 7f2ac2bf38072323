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

Per group the cheapest strategy wins by its exact cost, which the kernel
tier computes over the group's positions in the resolved trace (sound by
the per-DBC cost decomposition); across grouping candidates the cheapest
sum of group costs wins, with the paper heuristic's layouts kept in the
candidate set so ``generalized ≤ heuristic`` is a structural guarantee
(the repo's portfolio idiom).  All tie-breaks are total, so the
construction is byte-deterministic.
"""

from __future__ import annotations

from typing import Sequence

# Not called here, but perfbench/spans.py wraps these names in each placement
# module to time scoring, and fails if either is missing.
from repro.core.cost import evaluate_placement, evaluate_placements_fast  # noqa: F401
from repro.core.heuristic import portfolio_placement
from repro.core.ordering import (
    GroupTrace,
    anchored_offsets,
    proximity_offsets,
    weighted_median_index,
)
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem
from repro.dwm.config import DWMConfig
from repro.errors import OptimizationError

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


def port_aware_layouts(view: GroupTrace) -> list[dict[str, int]]:
    """The group's chain split over the ports (both ways), proximity, anchored chain."""
    config = view.config
    frequencies = view.frequencies
    chain = view.chain
    return [
        multi_port_chain_offsets(chain, config, frequencies),
        multi_port_chain_offsets(chain[::-1], config, frequencies),
        proximity_offsets(view.items, config, frequencies),
        anchored_offsets(chain, config, frequencies),
    ]


def generalized_placement(problem: PlacementProblem) -> Placement:
    """Full generalized placement: grouping portfolio + port-aware layouts.

    The candidate set is every grouping of the repo portfolio laid out
    with the port-parametric strategies, then the same groupings laid out
    by the paper heuristic as guard candidates, making
    ``generalized ≤ heuristic`` a structural guarantee on every instance
    (E21's acceptance gate).  Generalized candidates are listed first, so
    they win cost ties.
    """
    return portfolio_placement(problem, port_aware_layouts)
