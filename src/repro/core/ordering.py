"""Ordering phase: arrange a group's items along one DBC.

Given the items that share a DBC, the group's true shift cost (single port,
lazy policy) is the Minimum Linear Arrangement objective over the group's
**restricted affinity graph** — adjacency counts taken on the trace
*restricted to the group's items*, because only those accesses move this
DBC's head.  The ordering phase therefore:

1. restricts the trace to the group and rebuilds affinities,
2. grows a linear chain greedily (heaviest edge first, fragments merged at
   endpoints — the classic greedy-matching construction for MinLA/TSP-path),
3. anchors the chain so its access-weighted median sits on a port.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.placement import Placement, Slot
from repro.core.problem import PlacementProblem
from repro.dwm.config import DWMConfig
from repro.dwm.dbc import port_access_cost
from repro.errors import OptimizationError
from repro.trace.model import AccessTrace
from repro.trace.stats import affinity_graph


def restricted_affinity(
    trace: AccessTrace, group: Sequence[str]
) -> dict[tuple[str, str], int]:
    """Affinity graph of the trace restricted to ``group``'s items."""
    return affinity_graph(trace.restricted_to(group))


def greedy_chain_order(
    items: Sequence[str],
    affinity: dict[tuple[str, str], int],
) -> list[str]:
    """Arrange ``items`` in a line by greedy heaviest-edge chain growing.

    Maintains path fragments; edges are processed by descending weight and
    accepted when they join two distinct fragment endpoints.  Remaining
    fragments (including affinity-free singletons) are concatenated by
    decreasing total access relevance so related runs stay together.
    """
    items = list(items)
    if len(set(items)) != len(items):
        raise OptimizationError("ordering input contains duplicate items")
    member = set(items)
    # Each item starts as its own fragment.
    fragment_of: dict[str, list[str]] = {item: [item] for item in items}
    edges = sorted(
        (
            (weight, left, right)
            for (left, right), weight in affinity.items()
            if left in member and right in member and left != right
        ),
        key=lambda entry: (-entry[0], entry[1], entry[2]),
    )
    for weight, left, right in edges:
        frag_left = fragment_of[left]
        frag_right = fragment_of[right]
        if frag_left is frag_right:
            continue  # would form a cycle
        # Only endpoints can be joined.
        if frag_left[0] != left and frag_left[-1] != left:
            continue
        if frag_right[0] != right and frag_right[-1] != right:
            continue
        if frag_left[-1] != left:
            frag_left.reverse()
        if frag_right[0] != right:
            frag_right.reverse()
        frag_left.extend(frag_right)
        for item in frag_right:
            fragment_of[item] = frag_left
    # Collect distinct fragments preserving first-appearance order.
    seen: set[int] = set()
    fragments: list[list[str]] = []
    for item in items:
        fragment = fragment_of[item]
        if id(fragment) not in seen:
            seen.add(id(fragment))
            fragments.append(fragment)
    order: list[str] = []
    for fragment in fragments:
        order.extend(fragment)
    return order


def weighted_median_index(
    order: Sequence[str], frequencies: dict[str, int]
) -> int:
    """Index of the access-weighted median element of ``order``.

    Anchoring this element on a port minimises the expected one-off approach
    distance, and under multi-port layouts keeps the hot centre of the chain
    in the cheapest region.
    """
    total = sum(frequencies.get(item, 0) for item in order)
    if total == 0:
        return len(order) // 2
    half = total / 2
    cumulative = 0
    for index, item in enumerate(order):
        cumulative += frequencies.get(item, 0)
        if cumulative >= half:
            return index
    return len(order) - 1


def anchored_offsets(
    order: Sequence[str],
    config: DWMConfig,
    frequencies: dict[str, int] | None = None,
) -> dict[str, int]:
    """Map each ordered item to a DBC offset, anchored on a port.

    The chain is placed contiguously with its weighted median as close to
    the first port as capacity allows.
    """
    length = config.words_per_dbc
    if len(order) > length:
        raise OptimizationError(
            f"group of {len(order)} items exceeds DBC capacity {length}"
        )
    frequencies = frequencies or {}
    median = weighted_median_index(order, frequencies)
    port = config.port_offsets[0]
    start = port - median
    start = max(0, min(length - len(order), start))
    return {item: start + index for index, item in enumerate(order)}


def proximity_offsets(
    group: Sequence[str],
    config: DWMConfig,
    frequencies: dict[str, int],
) -> dict[str, int]:
    """Hottest items at the offsets closest to a port (star-pattern layout).

    Optimal when one very hot item dominates transitions (accumulators,
    lookup tables): the hot centre sits on the port and satellites surround
    it by decreasing heat.
    """
    ranked = sorted(
        group, key=lambda item: (-frequencies.get(item, 0), item)
    )
    by_proximity = sorted(
        range(config.words_per_dbc),
        key=lambda offset: (
            port_access_cost(offset, 0, config.port_offsets)[0],
            offset,
        ),
    )
    return {item: by_proximity[rank] for rank, item in enumerate(ranked)}


def restricted_sequence_cost(
    trace: AccessTrace,
    offsets: dict[str, int],
    config: DWMConfig,
) -> int:
    """Exact shift cost of one DBC given its restricted trace and offsets.

    Mirrors the single-DBC walk of the full evaluator; used to select the
    better of several candidate orders for the same group.
    """
    from repro.dwm.config import PortPolicy

    ports = config.port_offsets
    eager = config.port_policy is PortPolicy.EAGER
    head = 0
    total = 0
    for access in trace:
        offset = offsets.get(access.item)
        if offset is None:
            continue
        best_cost = None
        best_target = 0
        for port in ports:
            target = offset - port
            cost = abs(target - head)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_target = target
        if eager:
            total += 2 * min(abs(offset - port) for port in ports)
        else:
            total += best_cost
            head = best_target
    return total


def order_groups(
    problem: PlacementProblem,
    groups: Sequence[Sequence[str]],
) -> Placement:
    """Run the ordering phase on every group and assemble a placement.

    For each group two candidate layouts are generated — the greedy chain
    (anchored) and the port-proximity star — and the cheaper one is chosen
    by exact evaluation of the group's restricted subsequence (the per-DBC
    cost decomposition makes this selection globally exact).  Empty groups
    are skipped; group ``g`` lands on DBC ``g``.
    """
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
        chain_order = greedy_chain_order(group, affinity)
        first_touch_order = list(restricted.items)
        candidates = [
            anchored_offsets(chain_order, problem.config, frequencies),
            proximity_offsets(group, problem.config, frequencies),
            anchored_offsets(first_touch_order, problem.config, frequencies),
            {item: index for index, item in enumerate(first_touch_order)},
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
