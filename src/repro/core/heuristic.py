"""The paper's placement heuristic: grouping + ordering (+ refinement).

Pipeline (see DESIGN.md §4):

1. **Affinity graph** — adjacency counts of consecutive accesses
   (:attr:`PlacementProblem.affinity`).
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
4. **Selection** — candidates are scored with the exact trace-cost evaluator
   and the cheapest placement wins (three evaluations; still linear time in
   the trace).
5. Optional **local refinement** (:mod:`repro.core.local_search`).

:func:`heuristic_placement` is the full algorithm; the ablation variants
(`grouping_only_placement`, `ordering_only_placement`) isolate each phase's
contribution for experiment E10.
"""

from __future__ import annotations

# Not called here, but perfbench/spans.py wraps this name in each placement
# module to time scalar scoring, and fails if it is missing.
from repro.core.cost import evaluate_placement  # noqa: F401
from repro.core.cost import evaluate_placements_fast
from repro.core.grouping import greedy_min_affinity_grouping, refine_grouping
from repro.core.ordering import greedy_chain_order, order_groups
from repro.core.placement import Placement
from repro.core.problem import PlacementProblem


def chain_and_cut_groups(
    problem: PlacementProblem,
    num_groups: int | None = None,
) -> list[list[str]]:
    """Global affinity chain cut into balanced contiguous blocks.

    The chain keeps strongly-affine (e.g. streaming) items consecutive; the
    cut spreads it over all available DBCs so each block stays short and can
    be anchored near a port.
    """
    config = problem.config
    if num_groups is None:
        num_groups = min(config.num_dbcs, problem.num_items)
    chain = greedy_chain_order(list(problem.items), problem.affinity)
    size = -(-len(chain) // num_groups)  # ceil division
    size = min(size, config.words_per_dbc)
    groups = [chain[start : start + size] for start in range(0, len(chain), size)]
    # The ceil split can yield at most num_groups blocks of `size` unless
    # size was clamped by capacity; re-check the group count.
    if len(groups) > config.num_dbcs:
        size = config.words_per_dbc
        groups = [
            chain[start : start + size] for start in range(0, len(chain), size)
        ]
    return groups


def declaration_block_groups(problem: PlacementProblem) -> list[list[str]]:
    """First-touch order cut into blocks of ``L`` (declaration grouping)."""
    length = problem.config.words_per_dbc
    items = list(problem.items)
    return [items[start : start + length] for start in range(0, len(items), length)]


def hot_spread_groups(
    problem: PlacementProblem,
    num_groups: int | None = None,
) -> list[list[str]]:
    """Hottest items dealt round-robin across DBCs (hot-spread grouping).

    Gives every DBC a hot core near its port; wins on popularity-skewed
    patterns with little pairwise structure (e.g. table lookups around a hot
    accumulator).
    """
    config = problem.config
    if num_groups is None:
        num_groups = min(config.num_dbcs, problem.num_items)
    groups: list[list[str]] = [[] for _ in range(num_groups)]
    for index, item in enumerate(problem.hot_order):
        groups[index % num_groups].append(item)
    return groups


def heuristic_placement(
    problem: PlacementProblem,
    refine_groups: bool = True,
    num_groups: int | None = None,
) -> Placement:
    """Full grouping + ordering heuristic with candidate selection."""
    candidates: list[list[list[str]]] = []
    interference = greedy_min_affinity_grouping(problem, num_groups=num_groups)
    if refine_groups:
        interference = refine_grouping(interference, problem)
    candidates.append(interference)
    candidates.append(chain_and_cut_groups(problem, num_groups=num_groups))
    candidates.append(declaration_block_groups(problem))
    candidates.append(hot_spread_groups(problem, num_groups=num_groups))
    placements = [order_groups(problem, groups) for groups in candidates]
    costs = evaluate_placements_fast(problem, placements, validate=False)
    # ``index`` returns the first minimum, so earlier candidates win ties.
    return placements[costs.index(min(costs))]


def grouping_only_placement(problem: PlacementProblem) -> Placement:
    """Ablation: affinity-aware grouping, but naive (first-touch) ordering.

    Groups are computed as in the full heuristic; within each DBC items are
    laid out in first-touch order starting at offset 0 (no chain
    construction, no port anchoring).
    """
    groups = refine_grouping(
        greedy_min_affinity_grouping(problem), problem
    )
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
    length = problem.config.words_per_dbc
    items = list(problem.items)
    groups = [items[start : start + length] for start in range(0, len(items), length)]
    return order_groups(problem, groups)
