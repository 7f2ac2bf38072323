"""Exact placement search for small instances (the paper's OPT column).

The published paper solves small instances optimally with an ILP
(:mod:`repro.core.ilp` writes that model as LP text; :mod:`repro.core.cpsat`
solves its MinLA core in process).  This module holds the exact methods
that compute the same optima without a solver:

* :func:`minla_exact_order` — optimal linear arrangement of one DBC's items
  by dynamic programming over subsets (the prefix-cut formulation of MinLA):
  placing items left to right, the total cost ``Σ w(u,v)·|pos u − pos v|``
  equals ``Σ_k cut(prefix_k)``, so ``f(S) = cut(S) + min_{u∈S} f(S∖{u})``.
  Exact for the single-DBC / single-port / lazy-policy objective; O(2ⁿ·n).
* :func:`exact_partitioned_placement` / :func:`exact_single_dbc_placement`
  — the true single-port lazy optimum.  The per-DBC decomposition
  (docs/COST_MODEL.md §2) says a placement's cost is the sum of each DBC's
  cost on its *restricted* subsequence, which depends only on which items
  share the DBC and how they are laid out, so the optimum factors::

      OPT = min over partitions {S_1..S_g}   Σ_d  group_cost(S_d)
      group_cost(S) = min over orders+anchors of S   cost of trace|_S

  ``group_cost`` comes from the MinLA DP (plain and port-approach
  anchored) plus an anchor sweep; the outer minimisation is
  :func:`partition_minimum`, a subset-partition DP (3ⁿ submask
  enumeration) with a group-count bound.
* :func:`exhaustive_placement` — true-trace-cost brute force for very small
  item counts: per item subset it enumerates every within-group order and
  every offset assignment (all ``C(L, k)`` combinations while that count
  stays under :data:`MAX_OFFSET_COMBINATIONS`, else every contiguous
  window), then combines subset optima with the same partition DP.  Exact
  whenever the full combination enumeration applies — in particular for
  every single-port-lazy geometry (contiguous windows are optimal there)
  and every eager geometry (solved directly by frequency/offset pairing);
  see :func:`exhaustive_search_is_exact`.

Both price a group's candidate layouts the way the planner does: as rows
of one offset table walked over the group's restricted subsequence by the
kernel tier's ``segment_costs`` (:func:`_cheapest_layout`).

All raise :class:`OptimizationError` beyond their size guards rather than
silently taking hours.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Sequence

from repro.core import kernels
from repro.core.cost import linear_arrangement_cost
from repro.core.ordering import proximity_offsets
from repro.core.placement import Placement, Slot
from repro.core.problem import PlacementProblem, pair_counts
from repro.dwm.config import DWMConfig, PortPolicy
from repro.dwm.dbc import rest_table
from repro.errors import OptimizationError

#: Hard cap for the subset DP (2^n states with an n-way min each).
MAX_DP_ITEMS = 16

#: Hard cap for the partition DP: 3^n submask enumeration plus a 2^n·2^s
#: MinLA DP per subset.
MAX_PARTITION_ITEMS = 12

#: Hard cap for the brute-force search over grouped placements.
MAX_BRUTE_FORCE_ITEMS = 7

#: Per-subset cap on full offset-combination enumeration in the brute
#: force; beyond it the search falls back to contiguous anchor windows
#: (optimal for single-port lazy, best-effort for multi-port lazy).
MAX_OFFSET_COMBINATIONS = 4096

#: Candidate layouts priced per ``segment_costs`` call: bounds the
#: ``(rows, items)`` offset table a group's search holds at once.
PRICE_CHUNK_ROWS = 4096


def minla_exact_order(
    items: Sequence[str],
    affinity: dict[tuple[str, str], int],
    first_item: str | None = None,
    approach_costs: Sequence[int] | None = None,
) -> list[str]:
    """Optimal MinLA order of ``items`` under the pairwise affinity objective.

    Dynamic program over prefix subsets; see module docstring.  Ties resolve
    deterministically (lowest item index first).

    When ``first_item`` is given, the objective additionally charges the
    port-approach cost of the position ``first_item`` ends up at:
    ``approach_costs[q]`` for position ``q`` when ``approach_costs`` is
    supplied, else ``q`` itself (+1 per item placed before it — the
    port-at-offset-0, anchored-at-0 special case).  ``approach_costs`` lets
    callers model an arbitrary port position with anchor freedom exactly:
    pass ``min over feasible starts of |start + q - port|`` per position.
    """
    items = list(items)
    n = len(items)
    if n == 0:
        return []
    if n > MAX_DP_ITEMS:
        raise OptimizationError(
            f"minla_exact_order supports at most {MAX_DP_ITEMS} items, got {n}"
        )
    if len(set(items)) != n:
        raise OptimizationError("minla_exact_order needs distinct items")
    if first_item is not None and first_item not in items:
        raise OptimizationError(
            f"first_item {first_item!r} is not one of the items"
        )
    if approach_costs is not None and first_item is None:
        raise OptimizationError("approach_costs requires first_item")
    if approach_costs is not None and len(approach_costs) < n:
        raise OptimizationError(
            f"approach_costs needs {n} entries, got {len(approach_costs)}"
        )
    first_index = items.index(first_item) if first_item is not None else -1
    penalties = (
        list(approach_costs) if approach_costs is not None else list(range(n))
    )
    index = {item: i for i, item in enumerate(items)}
    # weights[i][j] symmetric matrix of affinities among the given items.
    weights = [[0] * n for _ in range(n)]
    for (left, right), weight in affinity.items():
        if left in index and right in index and left != right:
            i, j = index[left], index[right]
            weights[i][j] += weight
            weights[j][i] += weight
    row_totals = [sum(row) for row in weights]

    full = (1 << n) - 1
    # f[S] = minimal Σ cut(prefix) over orders of S as the prefix set.
    INF = float("inf")
    f = [INF] * (1 << n)
    parent = [-1] * (1 << n)
    f[0] = 0
    # cut(S) = Σ_{i∈S, j∉S} w(i,j); computed incrementally per transition:
    # cut(S) = cut(S\{u}) + row_totals[u] - 2 * w(u, S\{u}).
    cut = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low_bit = mask & -mask
        u = low_bit.bit_length() - 1
        rest = mask ^ low_bit
        w_u_rest = 0
        probe = rest
        while probe:
            bit = probe & -probe
            v = bit.bit_length() - 1
            w_u_rest += weights[u][v]
            probe ^= bit
        cut[mask] = cut[rest] + row_totals[u] - 2 * w_u_rest
    first_bit = (1 << first_index) if first_index >= 0 else 0
    for mask in range(1, 1 << n):
        position = mask.bit_count() - 1
        best = INF
        best_u = -1
        probe = mask
        while probe:
            bit = probe & -probe
            u = bit.bit_length() - 1
            candidate = f[mask ^ bit]
            # Charge the port-approach penalty of the position the trace's
            # first item lands at (it is placed as the prefix's last element,
            # i.e. at index |mask| - 1).
            if bit == first_bit:
                candidate += penalties[position]
            if candidate < best:
                best = candidate
                best_u = u
            probe ^= bit
        f[mask] = best + cut[mask]
        parent[mask] = best_u
    # Recover the order: parent[full] is the last-placed item of the prefix
    # == the item at the highest position.
    order_indices: list[int] = []
    mask = full
    while mask:
        u = parent[mask]
        order_indices.append(u)
        mask ^= 1 << u
    order_indices.reverse()
    return [items[i] for i in order_indices]


def minla_optimal_cost(
    items: Sequence[str],
    affinity: dict[tuple[str, str], int],
) -> int:
    """Optimal MinLA objective value for ``items`` (see DP above)."""
    order = minla_exact_order(items, affinity)
    return linear_arrangement_cost(order, affinity)


def partition_minimum(
    group_cost: dict[int, int],
    num_items: int,
    max_groups: int,
) -> tuple[int, list[int]]:
    """Minimum-cost partition of items ``{0..n-1}`` into feasible groups.

    ``group_cost`` maps subset bitmasks to their exact group cost; masks
    absent from it are infeasible (e.g. oversized).  Returns the optimal
    total and the chosen subset masks (at most ``max_groups`` of them).
    Classic submask-enumeration DP, canonicalised so each partition is
    counted once (every subset must contain the lowest uncovered item).
    Raises :class:`OptimizationError` when no feasible partition exists.
    """
    full = (1 << num_items) - 1
    INF = float("inf")
    # f[g][mask] = min cost covering `mask` with exactly g groups.
    f: list[dict[int, int | float]] = [dict() for _ in range(max_groups + 1)]
    f[0][0] = 0
    parent: dict[tuple[int, int], int] = {}
    for g in range(1, max_groups + 1):
        previous = f[g - 1]
        current = f[g]
        for mask, base in previous.items():
            remaining = full ^ mask
            if remaining == 0:
                if mask not in current or base < current[mask]:
                    current[mask] = base  # allow unused groups
                    parent[(g, mask)] = 0
                continue
            low_bit = remaining & -remaining
            rest = remaining ^ low_bit
            submask = rest
            while True:
                subset = submask | low_bit
                cost = group_cost.get(subset)
                if cost is not None:
                    candidate = base + cost
                    covered = mask | subset
                    if covered not in current or candidate < current[covered]:
                        current[covered] = candidate
                        parent[(g, covered)] = subset
                if submask == 0:
                    break
                submask = (submask - 1) & rest
    best_g: int | None = None
    best_value: int | float = INF
    for g in range(1, max_groups + 1):
        value = f[g].get(full, INF)
        if value < best_value:
            best_value = value
            best_g = g
    if best_g is None:
        raise OptimizationError(
            "no feasible partition (a group exceeds DBC capacity)"
        )
    groups: list[int] = []
    mask = full
    g = best_g
    while g > 0:
        subset = parent[(g, mask)]
        if subset:
            groups.append(subset)
        mask ^= subset
        g -= 1
    groups.reverse()
    return int(best_value), groups


def _partitioned_placement(
    problem: PlacementProblem,
    group_layout: Callable[[list[str]], tuple[int, dict[str, int]]],
) -> Placement:
    """Optimal placement assembled from exact per-group layouts.

    Scores every subset that fits one DBC with ``group_layout`` (members →
    exact cost and offset map on a DBC of their own), picks the
    cheapest cover with :func:`partition_minimum`, and places each chosen
    group on its own DBC.
    """
    items = list(problem.items)
    n = len(items)
    config = problem.config
    group_cost: dict[int, int] = {}
    layouts: dict[int, dict[str, int]] = {}
    for mask in range(1, 1 << n):
        if mask.bit_count() > config.words_per_dbc:
            continue
        members = [items[i] for i in range(n) if mask >> i & 1]
        group_cost[mask], layouts[mask] = group_layout(members)
    _, groups = partition_minimum(group_cost, n, min(config.num_dbcs, n))
    return Placement(
        {
            item: Slot(dbc, offset)
            for dbc, mask in enumerate(groups)
            for item, offset in layouts[mask].items()
        }
    )


def _offset_candidates(size: int, config: DWMConfig) -> Iterator[tuple[int, ...]]:
    """Ascending offset tuples a group of ``size`` items may occupy.

    Full ``C(L, size)`` enumeration while it fits the combination cap (the
    exact search space — multi-port optima may need gaps to straddle
    ports); contiguous windows beyond it (optimal for single-port lazy by
    the compaction argument, best-effort otherwise).
    """
    words = config.words_per_dbc
    if math.comb(words, size) <= MAX_OFFSET_COMBINATIONS:
        yield from itertools.combinations(range(words), size)
    else:
        for start in range(words - size + 1):
            yield tuple(range(start, start + size))


def exhaustive_search_is_exact(config: DWMConfig, num_items: int) -> bool:
    """Whether :func:`exhaustive_placement` provably reaches the optimum.

    True for every eager or single-port geometry, and for multi-port lazy
    geometries whose offset combinations are fully enumerable.
    """
    if config.port_policy is PortPolicy.EAGER or config.num_ports == 1:
        return True
    largest = min(num_items, config.words_per_dbc)
    return all(
        math.comb(config.words_per_dbc, size) <= MAX_OFFSET_COMBINATIONS
        for size in range(1, largest + 1)
    )


def _eager_group_layout(
    members: list[str],
    config: DWMConfig,
    frequencies: dict[str, int],
) -> tuple[int, dict[str, int]]:
    """Optimal eager layout of one group: hot items on cheap offsets.

    Each eager access costs ``2·dist(offset, nearest port)`` independently
    of history, so pairing descending frequencies with ascending offset
    costs is exact (rearrangement inequality).
    """
    offsets = proximity_offsets(members, config, frequencies)
    rest = rest_table(config).tolist()
    cost = sum(
        frequencies.get(item, 0) * rest[offset]
        for item, offset in offsets.items()
    )
    return cost, offsets


def _restricted(problem: PlacementProblem, members: Sequence[str]):
    """The group's restricted subsequence: the item codes of its accesses,
    in trace order."""
    resolved = problem.resolved
    codes = [problem.item_index[item] for item in members]
    return resolved.item_at[resolved.positions_of(codes)]


def _cheapest_layout(
    problem: PlacementProblem,
    members: list[str],
    seq,
    orders,
    offsets,
) -> tuple[int, dict[str, int]]:
    """First cheapest lazy layout of one group over ``orders × offsets``.

    ``seq`` is the group's :func:`_restricted` subsequence; ``orders`` is
    ``(O, k)`` (local item numbers), ``offsets`` ``(M, k)``;
    candidate ``o·M + m`` puts ``members[orders[o, i]]`` at
    ``offsets[m, i]`` — the order of two nested loops, orders outer.  The
    candidates are rows of an offset table priced over the group's
    restricted subsequence, one ``segment_costs`` call per
    :data:`PRICE_CHUNK_ROWS` rows; by the per-DBC decomposition each row's
    cost is the group's DBC cost.  Stops at the first zero-cost candidate.
    The offset map follows the candidate's order.
    """
    import numpy as np

    codes = np.asarray([problem.item_index[item] for item in members], np.int64)
    tier = kernels.active()
    ports = np.asarray(problem.config.port_offsets, dtype=np.int64)
    starts = np.asarray([0, seq.size], dtype=np.int64)
    width = len(offsets)
    count = len(orders) * width
    best_cost, best = -1, 0
    for first in range(0, count, PRICE_CHUNK_ROWS):
        rows = np.arange(first, min(count, first + PRICE_CHUNK_ROWS))
        table = np.zeros((rows.size, problem.num_items), dtype=np.int64)
        table[np.arange(rows.size)[:, None], codes[orders[rows // width]]] = (
            offsets[rows % width]
        )
        costs = tier.segment_costs(seq, starts, table, ports)[:, 0]
        row = int(costs.argmin())
        if best_cost < 0 or costs[row] < best_cost:
            best_cost, best = int(costs[row]), first + row
            if best_cost == 0:
                break
    order, chosen = orders[best // width].tolist(), offsets[best % width].tolist()
    return best_cost, {members[i]: offset for i, offset in zip(order, chosen)}


def _lazy_group_layout(
    problem: PlacementProblem,
    members: list[str],
) -> tuple[int, dict[str, int]]:
    """Optimal lazy layout of one group by order × offset enumeration."""
    import numpy as np

    size = len(members)
    orders = np.asarray(list(itertools.permutations(range(size))), np.int64)
    offsets = np.asarray(list(_offset_candidates(size, problem.config)), np.int64)
    return _cheapest_layout(
        problem, members, _restricted(problem, members), orders, offsets
    )


def exhaustive_placement(problem: PlacementProblem) -> Placement:
    """True-cost brute force via the per-DBC cost decomposition.

    A placement's cost is the sum of each DBC's cost on its *restricted*
    subsequence (docs/COST_MODEL.md §2), so the search solves each item
    subset exactly — every within-group order crossed with every offset
    assignment from :func:`_offset_candidates`, priced by
    :func:`_cheapest_layout` (eager groups are solved directly by
    frequency/offset pairing) — and combines subset optima with a
    partition DP.  Exponential; guarded to :data:`MAX_BRUTE_FORCE_ITEMS`
    items.  Exact whenever :func:`exhaustive_search_is_exact` holds for the
    geometry.
    """
    n = problem.num_items
    if n > MAX_BRUTE_FORCE_ITEMS:
        raise OptimizationError(
            f"exhaustive_placement supports at most {MAX_BRUTE_FORCE_ITEMS} "
            f"items, got {n}"
        )
    config = problem.config
    if config.port_policy is PortPolicy.EAGER:
        frequencies = problem.frequencies
        return _partitioned_placement(
            problem,
            lambda members: _eager_group_layout(members, config, frequencies),
        )
    return _partitioned_placement(
        problem, lambda members: _lazy_group_layout(problem, members)
    )


def _group_cost_and_layout(
    problem: PlacementProblem,
    items: list[str],
) -> tuple[int, dict[str, int]]:
    """Exact single-port lazy cost and offset map of one group on its DBC.

    The trace cost of an order anchored at ``start`` is its pairwise MinLA
    cost plus the initial port approach ``|start + index(first) − port|``.
    The pairwise part is anchor-independent, so minimising over starts
    leaves ``approach(q) = min over starts of |start + q − port|`` — a
    function of the first item's position ``q`` only — which the DP charges
    exactly via ``approach_costs``.  The pure MinLA order is kept as a cheap
    extra candidate; every feasible anchor of each order (and its reversal)
    is priced exactly by :func:`_cheapest_layout`.  A group nobody
    accesses costs nothing wherever it sits.
    """
    import numpy as np

    config = problem.config
    seq = _restricted(problem, items)
    if seq.size == 0:
        return 0, {item: position for position, item in enumerate(items)}
    affinity = pair_counts(seq, problem.items)
    first_item = problem.items[seq[0]]
    port = config.port_offsets[0]
    max_start = config.words_per_dbc - len(items)
    approach = [
        max(0, q - port, port - q - max_start) for q in range(len(items))
    ]
    orders = (
        minla_exact_order(items, affinity),
        minla_exact_order(
            items, affinity, first_item=first_item, approach_costs=approach
        ),
    )
    index = {item: local for local, item in enumerate(items)}
    local_orders = np.asarray(
        [
            [index[item] for item in candidate]
            for order in orders
            for candidate in (order, order[::-1])
        ]
    )
    windows = np.arange(max_start + 1)[:, None] + np.arange(len(items))
    return _cheapest_layout(problem, items, seq, local_orders, windows)


def _require_single_port_lazy(config: DWMConfig, method: str) -> None:
    """Reject geometries the MinLA-based group layout is not exact for."""
    if config.num_ports != 1:
        raise OptimizationError(
            f"{method} is exact only for single-port DBCs; "
            "use exhaustive_placement for small multi-port instances"
        )
    if config.port_policy is not PortPolicy.LAZY:
        raise OptimizationError(f"{method} requires the lazy shift policy")


def exact_partitioned_placement(problem: PlacementProblem) -> Placement:
    """Exact optimal placement (single-port, lazy) via partition DP.

    Contiguous within-group layouts are without loss of generality for a
    single port (compacting an order weakly decreases every pairwise
    distance, and the anchor sweep covers the approach term); with several
    ports the optimum may need *gaps* to straddle ports, so multi-port
    geometries are rejected rather than silently approximated.  Raises
    :class:`OptimizationError` beyond :data:`MAX_PARTITION_ITEMS` items, for
    multi-port or eager geometries, or when the items cannot fit the
    configured capacity.
    """
    config = problem.config
    _require_single_port_lazy(config, "exact_partitioned_placement")
    n = problem.num_items
    if n > MAX_PARTITION_ITEMS:
        raise OptimizationError(
            "exact_partitioned_placement supports at most "
            f"{MAX_PARTITION_ITEMS} items, got {n}"
        )
    if n > config.num_dbcs * config.words_per_dbc:
        raise OptimizationError("items exceed array capacity")
    return _partitioned_placement(
        problem, lambda members: _group_cost_and_layout(problem, members)
    )


def exact_single_dbc_placement(problem: PlacementProblem) -> Placement:
    """Optimal single-DBC placement via the MinLA DP, port-anchored.

    Requires all items to fit in one DBC (single port, lazy policy); the
    layout is :func:`_group_cost_and_layout` of all items on DBC 0.
    """
    config = problem.config
    _require_single_port_lazy(config, "exact_single_dbc_placement")
    if problem.num_items > config.words_per_dbc:
        raise OptimizationError(
            f"{problem.num_items} items exceed a single DBC "
            f"({config.words_per_dbc} words)"
        )
    _, offsets = _group_cost_and_layout(problem, list(problem.items))
    return Placement({item: Slot(0, offset) for item, offset in offsets.items()})
