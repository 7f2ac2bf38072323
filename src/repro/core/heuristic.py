"""The paper's placement heuristic: grouping + ordering (+ refinement).

Pipeline (see DESIGN.md §4):

1. **Affinity graph** — adjacency counts of consecutive accesses, as a
   pair list and neighbour CSR over item codes
   (:attr:`PlacementProblem.pairs`).
2. **Grouping** — candidate partitions of items over DBCs.  Because
   cross-DBC transitions are free but splitting a stream creates
   *second-order* adjacencies inside each DBC's restricted subsequence, no
   single grouping objective wins on every access pattern.  The heuristic
   therefore builds a small portfolio of candidate groupings:

   * *interference-minimizing* — greedy + KL-refined partition minimizing the
     global affinity weight kept inside DBCs (wins on alternation-heavy
     patterns);
   * *chain-and-cut* — a global greedy affinity chain cut into balanced
     contiguous blocks (wins on streaming patterns, which it keeps intact);
   * *declaration blocks* — first-touch blocks of ``L`` (the safe fallback);
   * *hot-spread* — hottest items dealt round-robin so every DBC keeps a hot
     core at its port (wins on skewed, structure-free patterns).

3. **Ordering** — per DBC, MinLA-style chain construction on the *restricted*
   affinity graph, anchored on a port (:mod:`repro.core.ordering`), applied
   to every candidate.
4. **Selection** — a placement's total is the sum of the group costs the
   ordering phase already computed (per-DBC decomposition), so the cheapest
   candidate wins without re-scoring the trace (:func:`portfolio_placement`).
5. Optional **local refinement** (:mod:`repro.core.local_search`).

:func:`heuristic_placement` is the full algorithm; the ablation variants
(`grouping_only_placement`, `ordering_only_placement`) isolate each phase's
contribution for experiment E10.
"""

from __future__ import annotations

# Not called here, but perfbench/spans.py wraps these names in each placement
# module to time scoring, and fails if either is missing.
from repro.core.cost import evaluate_placement, evaluate_placements_fast  # noqa: F401
from repro.core import kernels
from repro.core.grouping import min_affinity_groups
from repro.core.ordering import (
    Family,
    heuristic_layouts,
    layout_groups,
    order_groups,
)
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem


def chain_and_cut_groups(problem: PlacementProblem, tier=None) -> list[list[str]]:
    """Global affinity chain cut into balanced contiguous blocks.

    The chain keeps strongly-affine (e.g. streaming) items consecutive; the
    cut spreads it over all available DBCs so each block stays short and can
    be anchored near a port.  It is
    :func:`~repro.core.ordering.greedy_chain_order` of every item over the
    problem's pair list, built as one group of ``tier``'s (the active one
    by default) ``greedy_chains``.
    """
    import numpy as np

    config = problem.config
    num_items = problem.num_items
    num_groups = min(config.num_dbcs, num_items)
    lo, hi, weight = problem.pairs[:3]
    rank = problem.name_rank
    rank_lo, rank_hi = rank[lo], rank[hi]
    order = np.lexsort(
        (np.maximum(rank_lo, rank_hi), np.minimum(rank_lo, rank_hi), -weight)
    )
    swap = rank_hi < rank_lo
    (chain,) = (tier or kernels.active()).greedy_chains(
        np.where(swap, hi, lo)[order],
        np.where(swap, lo, hi)[order],
        np.asarray([0, lo.size]),
        np.asarray([num_items]),
        num_items,
    )
    names = problem.items
    chain = [names[code] for code in chain.tolist()]
    # At most num_groups blocks of the ceil size, and at most num_dbcs once
    # capacity clamps it (the problem guarantees items <= num_dbcs * L).
    size = min(-(-num_items // num_groups), config.words_per_dbc)
    return [chain[start : start + size] for start in range(0, num_items, size)]


def declaration_block_groups(problem: PlacementProblem) -> list[list[str]]:
    """First-touch order cut into blocks of ``L`` (declaration grouping)."""
    length = problem.config.words_per_dbc
    items = list(problem.items)
    return [items[start : start + length] for start in range(0, len(items), length)]


def hot_spread_groups(problem: PlacementProblem) -> list[list[str]]:
    """Hottest items dealt round-robin across DBCs (hot-spread grouping).

    Gives every DBC a hot core near its port; wins on popularity-skewed
    patterns with little pairwise structure (e.g. table lookups around a hot
    accumulator).
    """
    num_groups = min(problem.config.num_dbcs, problem.num_items)
    groups: list[list[str]] = [[] for _ in range(num_groups)]
    for index, item in enumerate(problem.hot_order):
        groups[index % num_groups].append(item)
    return groups


def grouping_portfolio(problem: PlacementProblem) -> list[list[list[str]]]:
    """The four candidate groupings, earlier ones winning cost ties.

    The heuristic, ShiftsReduce and the generalized method build it once
    per plan.
    """
    return [
        min_affinity_groups(problem),
        chain_and_cut_groups(problem),
        declaration_block_groups(problem),
        hot_spread_groups(problem),
    ]


def portfolio_placement(problem: PlacementProblem, *families: Family) -> Placement:
    """Cheapest layout of the grouping portfolio by ``families``, then the heuristic's.

    Each portfolio grouping is laid out by every family in one pass (one
    grouped view, one pricing call) and each candidate priced by its summed
    group costs.  The first strict minimum wins, scanning family by family
    and, inside each family, in portfolio order; only the winner becomes a
    placement.
    """
    per_grouping = [
        layout_groups(problem, groups, *families, heuristic_layouts)
        for groups in grouping_portfolio(problem)
    ]
    candidates = [pair for per_family in zip(*per_grouping) for pair in per_family]
    # ``min`` returns the first minimum, so earlier candidates win ties.
    arrangement, _total = min(candidates, key=lambda candidate: candidate[1])
    return arrangement.placement()


def heuristic_placement(problem: PlacementProblem) -> Placement:
    """Full grouping + ordering heuristic with candidate selection."""
    return portfolio_placement(problem)


def grouping_only_placement(problem: PlacementProblem) -> Placement:
    """Ablation: affinity-aware grouping, but naive (first-touch) ordering.

    Groups are computed as in the full heuristic; within each DBC items are
    laid out in first-touch order starting at offset 0 (no chain
    construction, no port anchoring).
    """
    groups = min_affinity_groups(problem)
    first_touch = {item: index for index, item in enumerate(problem.items)}
    naive_groups = [
        sorted(group, key=lambda item: first_touch[item]) for group in groups
    ]
    return Placement.from_groups(
        {dbc: group for dbc, group in enumerate(naive_groups) if group},
        problem.config,
        anchor_offsets={
            dbc: 0 for dbc, group in enumerate(naive_groups) if group
        },
    )


def ordering_only_placement(problem: PlacementProblem) -> Placement:
    """Ablation: affinity-aware ordering, but naive (packed) grouping.

    Items fill DBCs in first-touch order blocks of ``L`` (as the declaration
    baseline would), then each block is chain-ordered and port-anchored.
    """
    return order_groups(problem, declaration_block_groups(problem))
