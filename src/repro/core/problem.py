"""The placement problem: trace + geometry, with cached derived structures.

:class:`PlacementProblem` bundles everything an algorithm needs — the access
trace, the DWM geometry, the affinity graph, item frequencies — behind one
object so the individual optimizers stay small.  Construction validates that
the trace fits the configured array.  The derived tables are built once, from
the trace's resolved item codes and its one per-item position index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

from repro.dwm.config import DWMConfig
from repro.errors import CapacityError, TraceError
from repro.trace.model import AccessTrace


def pair_list(codes, size: int):
    """Distinct consecutive differing code pairs: ``(lo, hi, weight)``.

    ``lo < hi`` are codes below ``size``, ``weight`` the pair's count; the
    pairs come in first-occurrence order.  One ``np.unique``.
    """
    import numpy as np

    left, right = codes[:-1], codes[1:]
    keys = (np.minimum(left, right) * size + np.maximum(left, right))[left != right]
    unique, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    unique = unique[order]
    return unique // size, unique % size, counts[order]


def pair_counts(codes, names: Sequence[str]) -> dict[tuple[str, str], int]:
    """Counts of consecutive differing codes, keyed by ``names[code]`` pairs.

    Keys are ``(a, b)`` with ``a <= b``, in first-occurrence order, exactly
    as :func:`repro.trace.stats.affinity_graph` builds them from a trace.
    """
    return _named_pairs(pair_list(codes, len(names)), names)


def _named_pairs(pairs, names: Sequence[str]) -> dict[tuple[str, str], int]:
    """``pair_list`` output keyed by name pairs (``a <= b``), in its order."""
    affinity: dict[tuple[str, str], int] = {}
    for lo, hi, count in zip(*(array.tolist() for array in pairs)):
        a, b = names[lo], names[hi]
        affinity[(a, b) if a <= b else (b, a)] = count
    return affinity


class PairGraph(NamedTuple):
    """The problem's affinity graph over item codes.

    Pair ``p`` joins ``lo[p] < hi[p]`` with ``weight[p]`` consecutive
    accesses (first-occurrence order).  Item ``i``'s neighbours are
    ``nb[nb_start[i] : nb_start[i + 1]]`` with weights ``nb_w[…]`` (a CSR
    holding every pair twice).  O(items + distinct pairs).
    """

    lo: object
    hi: object
    weight: object
    nb_start: object
    nb: object
    nb_w: object


@dataclass(frozen=True)
class PlacementProblem:
    """An instance of the shift-minimizing data placement problem."""

    trace: AccessTrace
    config: DWMConfig

    def __post_init__(self) -> None:
        if len(self.trace) == 0:
            raise TraceError("cannot build a placement problem from an empty trace")
        if self.trace.num_items > self.config.capacity_words:
            raise CapacityError(
                f"trace {self.trace.name!r} touches {self.trace.num_items} items "
                f"but the array holds only {self.config.capacity_words} words "
                f"({self.config.describe()})"
            )

    # ------------------------------------------------------------------
    # Cached derived structures
    # ------------------------------------------------------------------
    @cached_property
    def items(self) -> tuple[str, ...]:
        """Items in first-touch (declaration) order."""
        return self.trace.items

    @property
    def num_items(self) -> int:
        return len(self.items)

    @property
    def resolved(self):
        """The trace's shared :class:`~repro.trace.model.ResolvedTrace`."""
        return self.trace._resolved

    @property
    def item_at(self):
        """Per-access item codes (indices into :attr:`items`)."""
        return self.resolved.item_at

    @cached_property
    def frequencies(self) -> dict[str, int]:
        """Access count per item, in first-touch order (position index)."""
        import numpy as np

        return dict(zip(self.items, np.diff(self.resolved.item_positions[1]).tolist()))

    @cached_property
    def hot_codes(self):
        """Item codes by descending access frequency (ties: first touch)."""
        import numpy as np

        return np.argsort(-np.diff(self.resolved.item_positions[1]), kind="stable")

    @cached_property
    def hot_order(self) -> tuple[str, ...]:
        """Items by descending access frequency (ties: first touch)."""
        items = self.items
        return tuple(items[code] for code in self.hot_codes.tolist())

    @cached_property
    def pairs(self) -> PairGraph:
        """The affinity graph over item codes: pair list and neighbour CSR,
        built with one ``np.unique`` and one ``bincount``."""
        import numpy as np

        lo, hi, weight = pair_list(self.item_at, self.num_items)
        source = np.concatenate((lo, hi))
        order = np.argsort(source, kind="stable")
        nb_start = np.zeros(self.num_items + 1, dtype=np.int64)
        np.cumsum(np.bincount(source, minlength=self.num_items), out=nb_start[1:])
        return PairGraph(
            lo, hi, weight,
            nb_start,
            np.concatenate((hi, lo))[order],
            np.concatenate((weight, weight))[order],
        )

    @cached_property
    def affinity(self) -> dict[tuple[str, str], int]:
        """Unordered adjacent-pair counts (self-pairs excluded): a name view
        of :attr:`pairs`.

        Equal to :func:`repro.trace.stats.affinity_graph` of the trace, key
        order included.
        """
        return _named_pairs(self.pairs[:3], self.items)

    @cached_property
    def neighbors(self) -> dict[str, dict[str, int]]:
        """Item → {neighbour: affinity weight}, every item present (the
        spectral comparator walks it).

        Iterates in first-touch, then :attr:`affinity` order, never by hash.
        """
        neighbors: dict[str, dict[str, int]] = {item: {} for item in self.items}
        for (left, right), weight in self.affinity.items():
            neighbors[left][right] = weight
            neighbors[right][left] = weight
        return neighbors

    @cached_property
    def name_rank(self):
        """Each item's rank in the string order of the names (int64 by
        code): the planner's int-coded chains break ties on it as the
        name-keyed ones break them on the names."""
        import numpy as np

        by_name = sorted(range(self.num_items), key=self.items.__getitem__)
        rank = np.empty(self.num_items, dtype=np.int64)
        rank[by_name] = np.arange(self.num_items)
        return rank

    @cached_property
    def item_index(self) -> dict[str, int]:
        """Item name → dense index (first-touch order)."""
        return {item: i for i, item in enumerate(self.items)}

    @property
    def min_dbcs_needed(self) -> int:
        """Fewest DBCs that can hold all items."""
        length = self.config.words_per_dbc
        return -(-self.num_items // length)

    def with_config(self, config: DWMConfig) -> "PlacementProblem":
        """Same trace on a different geometry (used by parameter sweeps)."""
        return PlacementProblem(trace=self.trace, config=config)


@dataclass(frozen=True)
class PlacementResult:
    """An algorithm's output: the placement plus evaluation bookkeeping."""

    method: str
    placement: "Placement"  # noqa: F821 - forward ref, avoids import cycle
    total_shifts: int
    runtime_seconds: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def shifts_per_access(self) -> float:
        """Average shifts per access given the problem recorded in details."""
        accesses = self.details.get("num_accesses")
        if not accesses:
            return float("nan")
        return self.total_shifts / accesses

    def normalized_to(self, baseline: "PlacementResult") -> float:
        """This result's shift count relative to a baseline's (lower=better)."""
        if baseline.total_shifts == 0:
            return 0.0 if self.total_shifts == 0 else float("inf")
        return self.total_shifts / baseline.total_shifts
