"""Trace statistics and affinity-graph construction.

The placement heuristic's main input is the **affinity graph**: nodes are
items, and the weight of edge ``(u, v)`` counts how often ``u`` and ``v`` are
accessed consecutively.  For single-port DBCs under the lazy shift policy the
intra-DBC shift cost of a placement decomposes exactly over these adjacent
pairs (restricted to each DBC's own sub-sequence), which is why the graph is
the right abstraction.

:class:`TraceStats` additionally reports the locality measures used in the
benchmark-characteristics table (E1): reuse distances, read/write mix, and
the working-set size.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.trace.model import AccessTrace


def affinity_graph(
    trace: AccessTrace,
    include_self_pairs: bool = False,
) -> dict[tuple[str, str], int]:
    """Adjacency-frequency weights over unordered item pairs.

    ``include_self_pairs`` keeps ``(u, u)`` entries; they cost no shifts so
    the optimizers exclude them by default.
    """
    weights: dict[tuple[str, str], int] = defaultdict(int)
    for left, right in trace.adjacent_pairs():
        if left == right and not include_self_pairs:
            continue
        key = (left, right) if left <= right else (right, left)
        weights[key] += 1
    return dict(weights)


def transition_counts(trace: AccessTrace) -> dict[tuple[str, str], int]:
    """Directed consecutive-access counts (keeps order and self-pairs)."""
    counts: dict[tuple[str, str], int] = defaultdict(int)
    for pair in trace.adjacent_pairs():
        counts[pair] += 1
    return dict(counts)


def reuse_distances(trace: AccessTrace) -> list[int]:
    """LRU stack distance of each reuse (unique items since last access).

    First accesses (cold misses) are excluded.  Small distances mean high
    temporal locality, which is where shift-aware placement gains the most.

    The stack distance of a reuse at time ``t`` equals the number of
    distinct items whose *last* access falls strictly between the item's
    previous access and ``t``; a Fenwick tree over access timestamps counts
    those in O(log n) per access (O(n log n) overall, where the explicit
    LRU-stack walk is quadratic on low-locality traces).
    """
    n = len(trace)
    tree = [0] * (n + 1)  # Fenwick tree over 1-based access timestamps

    def add(index: int, delta: int) -> None:
        while index <= n:
            tree[index] += delta
            index += index & -index

    def prefix(index: int) -> int:
        total = 0
        while index > 0:
            total += tree[index]
            index -= index & -index
        return total

    distances: list[int] = []
    last_time: dict[str, int] = {}
    for now, access in enumerate(trace, start=1):
        item = access.item
        previous = last_time.get(item)
        if previous is not None:
            distances.append(prefix(now - 1) - prefix(previous))
            add(previous, -1)
        add(now, 1)
        last_time[item] = now
    return distances


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a trace (one row of the E1 table)."""

    name: str
    num_accesses: int
    num_items: int
    reads: int
    writes: int
    mean_reuse_distance: float
    median_reuse_distance: float
    unique_pairs: int
    max_item_frequency: int
    top_item: str

    @property
    def write_fraction(self) -> float:
        """Share of accesses that are writes (0..1)."""
        if not self.num_accesses:
            return 0.0
        return self.writes / self.num_accesses

    @property
    def accesses_per_item(self) -> float:
        """Average number of accesses per distinct item."""
        if not self.num_items:
            return 0.0
        return self.num_accesses / self.num_items


def compute_stats(trace: AccessTrace) -> TraceStats:
    """Compute :class:`TraceStats` for a trace."""
    reads, writes = trace.read_write_counts()
    distances = reuse_distances(trace)
    if distances:
        ordered = sorted(distances)
        mean = sum(ordered) / len(ordered)
        middle = len(ordered) // 2
        if len(ordered) % 2:
            median = float(ordered[middle])
        else:
            median = (ordered[middle - 1] + ordered[middle]) / 2
    else:
        mean = 0.0
        median = 0.0
    frequencies = trace.frequencies()
    if frequencies:
        top_count = max(frequencies.values())
        # Deterministic tie-break: lowest item name among the most frequent
        # (most_common(1) depends on insertion order).
        top_item = min(
            item for item, count in frequencies.items() if count == top_count
        )
    else:
        top_item, top_count = "", 0
    return TraceStats(
        name=trace.name,
        num_accesses=len(trace),
        num_items=trace.num_items,
        reads=reads,
        writes=writes,
        mean_reuse_distance=mean,
        median_reuse_distance=median,
        unique_pairs=len(affinity_graph(trace)),
        max_item_frequency=top_count,
        top_item=top_item,
    )


def hot_items(trace: AccessTrace) -> list[str]:
    """Items ordered by descending access frequency (ties: first touch)."""
    frequencies = trace.frequencies()
    first_touch = {item: i for i, item in enumerate(trace.items)}
    return sorted(
        frequencies,
        key=lambda item: (-frequencies[item], first_touch[item]),
    )


def shift_locality_score(trace: AccessTrace) -> float:
    """Heuristic 0..1 score of how placement-sensitive a trace is.

    Computed as the weight mass of the top ``n`` affinity edges (``n`` =
    number of items) over the total affinity mass: a high score means a few
    pairs dominate transitions, so a good linear arrangement can serve most
    transitions with short shifts.
    """
    weights = sorted(affinity_graph(trace).values(), reverse=True)
    total = sum(weights)
    if not total:
        return 0.0
    top = sum(weights[: max(1, trace.num_items)])
    return top / total
