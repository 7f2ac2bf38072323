"""Ordering phase: arrange a group's items along one DBC.

Given the items that share a DBC, the group's true shift cost (single port,
lazy policy) is the Minimum Linear Arrangement objective over the group's
**restricted affinity graph** — adjacency counts taken on the trace
*restricted to the group's items*, because only those accesses move this
DBC's head.  The ordering phase therefore:

1. views the group's accesses in the problem's resolved trace
   (:class:`GroupTrace`: positions, first-touch order, restricted
   affinities),
2. grows a linear chain greedily (heaviest edge first, fragments merged at
   endpoints — the classic greedy-matching construction for MinLA/TSP-path),
3. anchors the chain so its access-weighted median sits on a port.

:func:`layout_groups` is the one per-group loop: every method that lays
out groups (this module's :func:`order_groups`, ShiftsReduce, the
generalized strategies) passes it *families* of candidate layouts, and each
group keeps the candidate the kernel tier prices cheapest on its positions;
the sum of those costs is the placement's exact total.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence

from repro.core import kernels
from repro.core.placement import Placement, Slot
from repro.core.problem import PlacementProblem, pair_counts
from repro.dwm.config import DWMConfig, PortPolicy
from repro.dwm.dbc import proximity_order, rest_table
from repro.errors import OptimizationError


class GroupTrace:
    """One group's accesses, read from the problem's resolved trace.

    ``positions`` are the trace positions of the group's accesses
    (ascending), so the group's restricted subsequence is
    ``item_at[positions]`` without building a sub-trace.  Only these
    accesses move the group's DBC head, so by the per-DBC decomposition
    (docs/COST_MODEL.md §2) :meth:`cost` prices a layout of the group
    exactly.
    """

    def __init__(self, problem: PlacementProblem, group: Sequence[str]) -> None:
        import numpy as np

        index = problem.item_index
        self.items = list(group)
        self.config = problem.config
        self.frequencies = problem.frequencies
        self._names = problem.items
        self._codes = np.asarray([index[item] for item in self.items], np.int64)
        member_mask = np.zeros(len(index), dtype=bool)
        member_mask[self._codes] = True
        self._item_at = problem.item_at
        self.positions = np.flatnonzero(member_mask[self._item_at])
        self._seq = self._item_at[self.positions]
        config = problem.config
        self._ports = np.asarray(config.port_offsets, dtype=np.int64)
        self._rest = (
            rest_table(config) if config.port_policy is PortPolicy.EAGER else None
        )
        self._offset_of = np.zeros(len(index), dtype=np.int64)

    @cached_property
    def first_touch(self) -> list[str]:
        """The group's accessed items in first-access order."""
        import numpy as np

        codes, first = np.unique(self._seq, return_index=True)
        return [self._names[code] for code in codes[np.argsort(first)].tolist()]

    @cached_property
    def affinity(self) -> dict[tuple[str, str], int]:
        """Consecutive-pair counts of the restricted subsequence.

        Keyed like :attr:`PlacementProblem.affinity` (unordered name pairs,
        self-pairs dropped).  Restriction makes accesses adjacent that had
        other items between them, so this is not a submatrix of the full
        trace's affinity.
        """
        return pair_counts(self._seq, self._names)

    @cached_property
    def chain(self) -> list[str]:
        """The greedy affinity chain of the group's restricted affinities."""
        return greedy_chain_order(self.items, self.affinity)

    @cached_property
    def _walk(self) -> Callable[[], int]:
        """The lazy chain walk over this group's arrays, bound once."""
        return kernels.active().bind_chain(
            self.positions, self._item_at, self._offset_of, self._ports
        )

    def cost(self, offsets: dict[str, int]) -> int:
        """Exact shift cost of the group's DBC with the group at ``offsets``."""
        offset_of = self._offset_of
        offset_of[self._codes] = [offsets[item] for item in self.items]
        if self._rest is not None:
            return int(self._rest[offset_of[self._seq]].sum())
        return self._walk()


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
    by_proximity = proximity_order(config)
    return {item: by_proximity[rank] for rank, item in enumerate(ranked)}


#: One group's candidate layouts (offset maps), earlier ones winning ties.
Family = Callable[[GroupTrace], Sequence[dict[str, int]]]


def layout_groups(
    problem: PlacementProblem,
    groups: Sequence[Sequence[str]],
    *families: Family,
) -> list[tuple[dict[str, Slot], int]]:
    """Lay out group ``g`` on DBC ``g`` by each family: ``(mapping, total)`` each.

    One trace view per group is shared by every family.  A family's
    candidates are priced exactly by :meth:`GroupTrace.cost` and the first
    cheapest wins; by the per-DBC cost decomposition this choice is globally
    exact and ``total`` is the shift count of ``Placement(mapping)``, which
    the caller builds only for the mapping it keeps.  Empty groups are
    skipped.
    """
    mappings: list[dict[str, Slot]] = [{} for _ in families]
    totals = [0] * len(families)
    for dbc, group in enumerate(groups):
        if not group:
            continue
        if dbc >= problem.config.num_dbcs:
            raise OptimizationError(
                f"group index {dbc} exceeds array DBC count "
                f"{problem.config.num_dbcs}"
            )
        view = GroupTrace(problem, group)
        for index, family in enumerate(families):
            layouts = family(view)
            costs = [view.cost(layout) for layout in layouts]
            cost = min(costs)
            totals[index] += cost
            for item, offset in layouts[costs.index(cost)].items():
                mappings[index][item] = Slot(dbc, offset)
    return list(zip(mappings, totals))


def heuristic_layouts(view: GroupTrace) -> list[dict[str, int]]:
    """Anchored greedy chain, proximity star, first-touch anchored and packed."""
    config = view.config
    frequencies = view.frequencies
    return [
        anchored_offsets(view.chain, config, frequencies),
        proximity_offsets(view.items, config, frequencies),
        anchored_offsets(view.first_touch, config, frequencies),
        {item: index for index, item in enumerate(view.first_touch)},
    ]


def order_groups(
    problem: PlacementProblem,
    groups: Sequence[Sequence[str]],
) -> Placement:
    """Run the ordering phase on every group and assemble a placement.

    Each group keeps the cheapest of its :func:`heuristic_layouts`.
    """
    ((mapping, _total),) = layout_groups(problem, groups, heuristic_layouts)
    return Placement(mapping)
