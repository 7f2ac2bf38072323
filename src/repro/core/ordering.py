"""Ordering phase: arrange each group's items along its DBC.

Given the items that share a DBC, the group's true shift cost (single port,
lazy policy) is the Minimum Linear Arrangement objective over the group's
**restricted affinity graph** — adjacency counts taken on the trace
*restricted to the group's items*, because only those accesses move this
DBC's head.  The ordering phase therefore, for every group of a grouping:

1. reads the group's accesses in the problem's resolved trace,
2. grows a linear chain greedily (heaviest edge first, fragments merged at
   endpoints — the classic greedy-matching construction for MinLA/TSP-path),
3. anchors the chain so its access-weighted median sits on a port.

It does so for a whole grouping at once.  :class:`GroupedTrace` is one
view of every group: one stable sort of the trace positions by group gives
each group's restricted subsequence as a contiguous segment, one
``bincount`` gives the dense ``(G, k, k)`` pair table, and the chains run
over int codes in one kernel-tier call.  A candidate :class:`Layout` holds
an order and offsets for every group; :func:`layout_groups` prices every
candidate of every *family* (the heuristic's :func:`heuristic_layouts`,
ShiftsReduce's, the generalized strategies') in one :func:`price_layouts`
call, keeps per group the first cheapest candidate of each family, and
returns each family's :class:`Arrangement` with its exact total.  Only the
arrangement a caller keeps becomes a :class:`~repro.core.placement.Placement`.

The exact solvers (:mod:`repro.core.exact`) and the engine-agreement
oracle price through the same ``segment_costs`` walk.  The string helpers
(:func:`greedy_chain_order`, :func:`anchored_offsets`,
:func:`proximity_offsets`) lay out one group given as names.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple, Sequence

from repro.core import kernels
from repro.core.placement import Placement, Slot
from repro.core.problem import PlacementProblem
from repro.dwm.config import DWMConfig, PortPolicy
from repro.dwm.dbc import proximity_order, rest_table
from repro.errors import OptimizationError


class GroupedTrace:
    """Every group of one grouping, read from the resolved trace at once.

    Group ``g`` (DBC ``g``) holds ``sizes[g]`` items; item ``i`` of it (in
    the group's list order, its *local* number) has code
    ``members[g, i]``.  Tables are ``(G, k)`` with ``k`` the largest group
    size, entries past a group's size padding.  ``codes`` is the
    concatenation of the groups' restricted subsequences — one stable sort
    of the trace positions by group — with group ``g`` at
    ``codes[starts[g] : starts[g + 1]]``.
    """

    def __init__(
        self, problem: PlacementProblem, groups: Sequence[Sequence[str]]
    ) -> None:
        import numpy as np

        config = problem.config
        for dbc, group in enumerate(groups):
            if group and dbc >= config.num_dbcs:
                raise OptimizationError(
                    f"group index {dbc} exceeds array DBC count {config.num_dbcs}"
                )
        index = problem.item_index
        self.problem = problem
        self.config = config
        num_groups = self.num_groups = len(groups)
        sizes = self.sizes = np.asarray([len(g) for g in groups], dtype=np.int64)
        k = self.k = max(1, int(sizes.max(initial=0)))
        if k > config.words_per_dbc:
            raise OptimizationError(
                f"group of {k} items exceeds DBC capacity {config.words_per_dbc}"
            )
        try:
            flat = [index[item] for group in groups for item in group]
        except KeyError as exc:
            raise OptimizationError(f"unknown item {exc.args[0]!r} in groups") from None
        if len(set(flat)) != len(flat):
            raise OptimizationError("ordering input contains duplicate items")
        self.valid = np.arange(k) < sizes[:, None]
        members = self.members = np.zeros((num_groups, k), dtype=np.int64)
        members[self.valid] = flat
        group_of = self._group_of = np.full(len(index), num_groups, dtype=np.int64)
        local_of = self._local_of = np.zeros(len(index), dtype=np.int64)
        group_of[flat], local_of[flat] = np.nonzero(self.valid)
        resolved = problem.resolved
        item_pos, item_start = resolved.item_positions
        counts = self.counts = np.diff(item_start)
        self.freq = np.where(self.valid, counts[members], 0)
        # Small keys sort by radix: one O(T) pass for the whole grouping.
        keys = group_of.astype(np.min_scalar_type(num_groups))[resolved.item_at]
        per_group = np.bincount(keys, minlength=num_groups + 1)
        self.starts = np.zeros(num_groups + 1, dtype=np.int64)
        np.cumsum(per_group[:num_groups], out=self.starts[1:])
        positions = np.argsort(keys, kind="stable")[: self.starts[-1]]
        self.codes = resolved.item_at[positions]
        # Accessed members by first position, the unaccessed after them.
        accessed = counts[members] > 0
        first = np.where(
            accessed,
            item_pos[np.where(accessed, item_start[members], 0)],
            resolved.item_at.size,
        )
        self.first_touch = np.argsort(
            np.where(self.valid, first, resolved.item_at.size + 1),
            axis=1,
            kind="stable",
        )

    @cached_property
    def pairs(self):
        """``(G, k, k)`` symmetric consecutive-pair counts of each group's
        restricted subsequence (zero diagonal): one ``bincount``."""
        import numpy as np

        codes, k, num_groups = self.codes, self.k, self.num_groups
        keep = codes[:-1] != codes[1:]
        ends = self.starts[1:-1]
        keep[ends[(ends > 0) & (ends < codes.size)] - 1] = False  # across groups
        # Pair (a, b) of group g counts at (g * k + local a) * k + local b;
        # the narrowest key type keeps the per-access temporaries small.
        dtype = np.int32 if num_groups * k * k < 2**31 else np.int64
        local = self._local_of.astype(dtype)
        keys = (self._group_of.astype(dtype) * k + local)[codes[:-1][keep]]
        keys *= k
        keys += local[codes[1:][keep]]
        table = np.bincount(keys, minlength=num_groups * k * k).reshape(
            num_groups, k, k
        )
        return table + table.transpose(0, 2, 1)

    @cached_property
    def chain(self):
        """Every group's greedy chain (:func:`greedy_chain_order` on the
        group's restricted affinities) as a ``(G, k)`` local order."""
        return kernels.active().greedy_chains(*self.chain_edges, self.sizes, self.k)

    @cached_property
    def chain_edges(self):
        """The greedy chain's edges of every group, in processing order:
        ``(lo, hi, edge_start)`` with ``lo`` the endpoint whose name sorts
        first.  Weight descending, then the names' string order — the tie
        order of :func:`greedy_chain_order`."""
        import numpy as np

        pairs = self.pairs
        group, left, right = np.nonzero(np.triu(pairs, 1))
        weight = pairs[group, left, right]
        rank = self.problem.name_rank[self.members]
        rank_left, rank_right = rank[group, left], rank[group, right]
        swap = rank_right < rank_left
        lo = np.where(swap, right, left)
        hi = np.where(swap, left, right)
        order = np.lexsort(
            (
                np.maximum(rank_left, rank_right),
                np.minimum(rank_left, rank_right),
                -weight,
                group,
            )
        )
        edge_start = np.searchsorted(group[order], np.arange(self.num_groups + 1))
        return lo[order], hi[order], edge_start

    @cached_property
    def by_heat(self):
        """Each group's items by descending access count, ties by name."""
        import numpy as np

        rank = self.problem.name_rank[self.members]
        return np.lexsort((rank, np.where(self.valid, -self.freq, 1)), axis=1)

    def reversed(self, order):
        """``order`` with every group's items in reverse."""
        import numpy as np

        column = np.arange(self.k)
        back = np.where(self.valid, self.sizes[:, None] - 1 - column, column)
        return np.take_along_axis(order, back, axis=1)


class Layout(NamedTuple):
    """One candidate layout of every group of a grouping: group ``g``'s
    ``i``-th item is local item ``order[g, i]`` at offset ``offsets[g, i]``
    (the order is the slot mapping's insertion order)."""

    order: object
    offsets: object


#: A grouping's candidate layouts, earlier ones winning ties.
Family = Callable[[GroupedTrace], Sequence[Layout]]


def median_offsets(view: GroupedTrace, order, lo, size, port):
    """Per group, the start that puts the access-weighted median of
    ``order[g, lo[g] : lo[g] + size[g]]`` on ``port`` (the vector form of
    :func:`weighted_median_index`: first index whose running weight
    reaches half the total, the middle when the segment is unweighted)."""
    import numpy as np

    column = np.arange(view.k)
    inside = (column >= lo[:, None]) & (column < (lo + size)[:, None])
    weight = np.where(inside, np.take_along_axis(view.freq, order, axis=1), 0)
    running = weight.cumsum(axis=1)
    total = running[:, -1]
    reached = np.argmax(inside & (2 * running >= total[:, None]), axis=1)
    median = np.where(total > 0, reached - lo, size // 2)
    return port - median, inside


def anchored_layout(view: GroupedTrace, order) -> Layout:
    """Every group's ``order`` placed contiguously, its access-weighted
    median on the first port as capacity allows (:func:`anchored_offsets`)."""
    import numpy as np

    zero = np.zeros(view.num_groups, dtype=np.int64)
    start, _ = median_offsets(
        view, order, zero, view.sizes, view.config.port_offsets[0]
    )
    start = np.clip(start, 0, view.config.words_per_dbc - view.sizes)
    return Layout(order, start[:, None] + np.arange(view.k))


def proximity_layout(view: GroupedTrace) -> Layout:
    """Hottest items at the offsets closest to a port
    (:func:`proximity_offsets`)."""
    import numpy as np

    return Layout(
        view.by_heat, np.asarray(proximity_order(view.config)[: view.k])[None, :]
    )


def _stacked(members, layouts: Sequence[Layout]):
    """``(codes, offsets)``, each ``(C, G, k)``: candidate ``c`` puts item
    ``codes[c, g, i]`` at ``offsets[c, g, i]`` (for ``i < sizes[g]``)."""
    import numpy as np

    shape = members.shape
    orders = np.stack([np.broadcast_to(layout.order, shape) for layout in layouts])
    offsets = np.stack([np.broadcast_to(layout.offsets, shape) for layout in layouts])
    return members[np.arange(shape[0])[:, None], orders], offsets


def price_layouts(view: GroupedTrace, layouts: Sequence[Layout], tier=None):
    """Exact cost of every group under every layout: a ``(C, G)`` table.

    Lazy costs are one :meth:`segment_costs` call of ``tier`` (the active
    one by default) over the grouped subsequences, after one scatter of
    every candidate's offsets into a ``(C, items)`` table.  An eager
    access costs the rest table at its offset whatever came before, so
    eager costs are access counts times rest costs, summed per group.  By
    the per-DBC decomposition entry ``[c, g]`` is DBC ``g``'s shift count
    under layout ``c``.
    """
    import numpy as np

    codes, offsets = _stacked(view.members, layouts)
    valid = np.broadcast_to(view.valid, codes.shape)
    config = view.config
    if config.port_policy is PortPolicy.EAGER:
        rest = rest_table(config)[np.where(valid, offsets, 0)]
        return (rest * np.where(valid, view.counts[codes], 0)).sum(axis=2)
    candidate = np.broadcast_to(np.arange(len(layouts))[:, None, None], codes.shape)
    table = np.zeros((len(layouts), view.problem.num_items), dtype=np.int64)
    table[candidate[valid], codes[valid]] = offsets[valid]
    tier = tier or kernels.active()
    ports = np.asarray(config.port_offsets, dtype=np.int64)
    return tier.segment_costs(view.codes, view.starts, table, ports)


class Arrangement:
    """Per group, the chosen candidate of ``layouts``: group ``g`` keeps
    ``layouts[choice[g]]``.  Holds the view's ``(G, k)`` tables only, not
    its per-access arrays."""

    def __init__(self, view: GroupedTrace, layouts: Sequence[Layout], choice) -> None:
        self.names = view.problem.items
        self.members = view.members
        self.sizes = view.sizes
        self.layouts = layouts
        self.choice = choice

    def placement(self) -> Placement:
        """The arrangement's slots: DBC ``g`` holds group ``g``."""
        import numpy as np

        names = self.names
        rows = np.arange(self.sizes.size)
        codes, offsets = (
            table[self.choice, rows] for table in _stacked(self.members, self.layouts)
        )
        mapping: dict[str, Slot] = {}
        for dbc, size in enumerate(self.sizes.tolist()):
            for code, offset in zip(
                codes[dbc, :size].tolist(), offsets[dbc, :size].tolist()
            ):
                mapping[names[code]] = Slot(dbc, offset)
        return Placement(mapping)


def layout_groups(
    problem: PlacementProblem,
    groups: Sequence[Sequence[str]],
    *families: Family,
) -> list[tuple[Arrangement, int]]:
    """Lay out group ``g`` on DBC ``g`` by each family: ``(arrangement, total)`` each.

    One :class:`GroupedTrace` serves every family, and every family's
    candidates are priced in one :func:`price_layouts` call.  Each group
    keeps its family's first cheapest candidate; by the per-DBC cost
    decomposition this choice is globally exact and ``total`` is the shift
    count of the arrangement's placement, which the caller builds only for
    the arrangement it keeps.  Empty groups cost nothing and hold no slot.
    """
    view = GroupedTrace(problem, groups)
    per_family = [list(family(view)) for family in families]
    costs = price_layouts(view, [one for layouts in per_family for one in layouts])
    results = []
    first = 0
    for layouts in per_family:
        block = costs[first : first + len(layouts)]
        first += len(layouts)
        arrangement = Arrangement(view, layouts, block.argmin(axis=0))
        results.append((arrangement, int(block.min(axis=0).sum())))
    return results


def heuristic_layouts(view: GroupedTrace) -> list[Layout]:
    """Anchored greedy chain, proximity star and first-touch anchored."""
    return [
        anchored_layout(view, view.chain),
        proximity_layout(view),
        anchored_layout(view, view.first_touch),
    ]


def order_groups(
    problem: PlacementProblem,
    groups: Sequence[Sequence[str]],
) -> Placement:
    """Run the ordering phase on every group and assemble a placement.

    Each group keeps the cheapest of its :func:`heuristic_layouts`.
    """
    ((arrangement, _total),) = layout_groups(problem, groups, heuristic_layouts)
    return arrangement.placement()


def greedy_chain_order(
    items: Sequence[str],
    affinity: dict[tuple[str, str], int],
) -> list[str]:
    """Arrange ``items`` in a line by greedy heaviest-edge chain growing.

    Maintains path fragments; edges are processed by descending weight,
    ties by their ``(left, right)`` names, and accepted when they join two
    distinct fragment endpoints.  Remaining fragments (including
    affinity-free singletons) are concatenated in the order of their first
    item in ``items``.  The joining is
    :func:`~repro.core.kernels.greedy_chain_codes`, which
    :attr:`GroupedTrace.chain` runs on every group of a grouping.
    """
    items = list(items)
    index = {item: code for code, item in enumerate(items)}
    if len(index) != len(items):
        raise OptimizationError("ordering input contains duplicate items")
    edges = sorted(
        (-weight, left, right)
        for (left, right), weight in affinity.items()
        if left in index and right in index and left != right
    )
    order = kernels.greedy_chain_codes(
        len(items),
        [index[left] for _, left, _ in edges],
        [index[right] for _, _, right in edges],
    )
    return [items[code] for code in order]


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
