"""Incremental (delta) shift-cost evaluation — the optimizer hot path.

Every local-search optimizer scores candidate moves (swap two items, move an
item to a free slot, reverse a segment) against the exact trace cost.  The
reference evaluator (:func:`repro.core.cost.evaluate_placement`) re-walks the
*entire* trace per candidate — O(T) per move.  :class:`CostEvaluator`
exploits the per-DBC decomposition (docs/COST_MODEL.md §2) to score a move
as a **delta touching only the affected DBCs' access subsequences** —
O(T_affected) per move, exact for every port count and policy:

* **eager** (any port count) — each access costs ``2·min_p|offset−p|``
  independent of history, so an item's contribution is
  ``freq(item)·2·dist(offset)`` and a move is O(1) per moved item;
* **lazy** (any port count) — the touched DBCs' restricted subsequences
  are replayed by the active kernel tier (:mod:`repro.core.kernels`: the
  cc kernel, or the numpy tier's diff / closed form / scan) — only the
  touched DBCs, never the full trace.  A probe prices the DBC's new
  membership with ``lazy_merge_cost`` over its cached positions, so the
  merged position array is built only when a move is committed.

Local search prices candidates a row at a time: ``swap_deltas``,
``move_deltas`` and ``reversal_deltas`` return one exact delta per
candidate as an ``int64`` array, equal entry for entry to the single
probes ``swap_delta`` / ``move_delta`` / ``reversal_delta``.  Lazy rows
are one kernel call over a per-DBC position CSR (built on first use and
dropped whenever the assignment changes); eager rows are numpy
expressions over the per-offset distance table.

The evaluator maintains the current assignment mutably with ``apply_*`` /
``undo`` (no :class:`Placement` dict rebuild per candidate) and materialises
a :class:`Placement` only on demand.  Differential tests assert that totals
and deltas agree exactly with the reference evaluator under every policy ×
port-count combination, including after arbitrary apply/undo sequences.
"""

from __future__ import annotations

from typing import Collection, Mapping, Sequence

from repro.core import kernels
from repro.core.placement import Placement, Slot
from repro.core.problem import PlacementProblem
from repro.dwm.config import PortPolicy
from repro.dwm.dbc import rest_table
from repro.errors import PlacementError


def multi_port_access_costs(offsets, ports):
    """Per-access shift costs of a lazy multi-port replay (``P ≥ 2``).

    Dispatches to the active kernel tier (:func:`repro.core.kernels.active`):
    the cc kernel's single fused walk, or the numpy tier's closed form
    (two ports) / Hillis–Steele scan (``P ≥ 3``) — bit-identical either
    way.
    """
    return kernels.active().lazy_costs(offsets, ports)


#: Former two-port entry point; the dispatcher above covers every port
#: count.  Kept bound because ``perfbench/spans.py`` wraps this name.
two_port_access_costs = multi_port_access_costs

#: The numpy tier's head-carrying replay; bound here because
#: ``perfbench/spans.py`` wraps this name.
lazy_costs_from_state = kernels.lazy_costs_from_state


class CostEvaluator:
    """Exact incremental cost evaluation of moves on one placement.

    Parameters
    ----------
    problem:
        The placement problem (trace + geometry).  The trace is resolved
        once into per-item access-position arrays.
    placement:
        Starting placement.  Items of the placement that the problem's trace
        never touches are tracked for occupancy (they block slots) but
        contribute zero cost, mirroring the reference evaluator.
    validate:
        Validate the placement against the geometry first (default True).
    """

    def __init__(
        self,
        problem: PlacementProblem,
        placement: Placement,
        validate: bool = True,
    ) -> None:
        import numpy as np

        self._np = np
        self._problem = problem
        config = problem.config
        self._config = config
        self._ports: tuple[int, ...] = config.port_offsets
        self._ports_np = np.asarray(config.port_offsets, dtype=np.int64)
        self._eager = config.port_policy is PortPolicy.EAGER
        #: the lazy-walk kernel tier (cc or numpy).
        self._kernel = kernels.active()
        if validate:
            placement.validate(config, problem.items)

        items = problem.items
        self._items = items
        self._index = problem.item_index
        n = len(items)
        # Lazy import: batch_sim imports this module.
        from repro.memory.batch_sim import resolve_trace

        item_at = resolve_trace(problem.trace).item_at
        self._item_at = item_at
        order = np.argsort(item_at, kind="stable").astype(np.int64, copy=False)
        boundaries = np.searchsorted(item_at[order], np.arange(n + 1)).astype(
            np.int64, copy=False
        )
        # Per-item position CSR: item i's positions are
        # order[boundaries[i]:boundaries[i + 1]].
        self._order = order
        self._boundaries = boundaries
        #: trace positions of each item's accesses, ascending.
        self._positions: list = [
            order[boundaries[i] : boundaries[i + 1]] for i in range(n)
        ]
        self._freq = [int(boundaries[i + 1] - boundaries[i]) for i in range(n)]

        # Current assignment (dense per-item arrays; _offset_np mirrors
        # _offset for vectorised gathers).
        self._dbc: list[int] = [0] * n
        self._offset: list[int] = [0] * n
        self._offset_np = np.zeros(n, dtype=np.int64)
        self._members: dict[int, set[int]] = {}
        for i, item in enumerate(items):
            slot = placement[item]
            self._dbc[i] = slot.dbc
            self._offset[i] = slot.offset
            self._offset_np[i] = slot.offset
            self._members.setdefault(slot.dbc, set()).add(i)
        #: placement entries outside the trace: occupancy only, zero cost.
        self._extra: dict[str, tuple[int, int]] = {
            item: (slot.dbc, slot.offset)
            for item, slot in placement.items()
            if item not in self._index
        }
        self._occupied: set[tuple[int, int]] = {
            (self._dbc[i], self._offset[i]) for i in range(n)
        }
        self._occupied.update(self._extra.values())

        # Eager: 2 * distance-to-nearest-port per offset.
        self._eager_dist_np = rest_table(config)
        self._eager_dist: list[int] = self._eager_dist_np.tolist()
        self._freq_np = np.diff(boundaries)
        self._item_cost: list[int] = [0] * n
        self._dbc_cost: dict[int, int] = {}
        self._dbc_positions: dict[int, object] = {}
        self._undo: list = []
        self._probe: tuple | None = None
        # Row-probe state of the current assignment, built on first use and
        # dropped by ``_reassign``: the kernel layout (lazy) or the dense
        # item-cost array (eager).
        self._layout: kernels.RowLayout | None = None
        self._eager_costs = None
        #: instrumentation: number of delta computations performed.
        self.delta_evaluations = 0
        #: instrumentation: number of applied (committed) moves.
        self.applied_moves = 0

        if self._eager:
            total = 0
            for i in range(n):
                cost = self._freq[i] * self._eager_dist[self._offset[i]]
                self._item_cost[i] = cost
                total += cost
            self._total = total
        else:
            total = 0
            for dbc, members in self._members.items():
                positions = self._merged_positions(members)
                self._dbc_positions[dbc] = positions
                cost = self._lazy_dbc_cost(positions)
                self._dbc_cost[dbc] = cost
                total += cost
            self._total = total

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        """Current exact total shift count."""
        return self._total

    def slot_of(self, item: str) -> Slot:
        """Current slot of ``item``."""
        if item in self._extra:
            return Slot(*self._extra[item])
        i = self._index.get(item)
        if i is None:
            raise PlacementError(f"item {item!r} has no placement")
        return Slot(self._dbc[i], self._offset[i])

    def placement(self) -> Placement:
        """Materialise the current assignment as a :class:`Placement`."""
        mapping: dict[str, Slot] = {
            item: Slot(self._dbc[i], self._offset[i])
            for i, item in enumerate(self._items)
        }
        for item, slot in self._extra.items():
            mapping[item] = Slot(*slot)
        return Placement(mapping)

    def dbcs_used(self) -> list[int]:
        """Sorted DBC indices holding at least one item (incl. extras)."""
        used = {dbc for dbc, members in self._members.items() if members}
        used.update(dbc for dbc, _ in self._extra.values())
        return sorted(used)

    def dbc_contents(self, dbc: int) -> dict[int, str]:
        """``{offset: item}`` for one DBC (incl. extras)."""
        contents = {
            self._offset[i]: self._items[i]
            for i in self._members.get(dbc, ())
        }
        for item, (extra_dbc, offset) in self._extra.items():
            if extra_dbc == dbc:
                contents[offset] = item
        return contents

    def free_slots(self) -> list[Slot]:
        """Unoccupied slots on used DBCs, in (DBC, offset) order.

        Matches the enumeration the local-search refiners historically used,
        so seeded runs stay reproducible.
        """
        occupied = self._occupied
        free: list[Slot] = []
        for dbc in self.dbcs_used():
            for offset in range(self._config.words_per_dbc):
                if (dbc, offset) not in occupied:
                    free.append(Slot(dbc, offset))
        return free

    # ------------------------------------------------------------------
    # Per-DBC machinery
    # ------------------------------------------------------------------
    def _merged_positions(self, members: Collection[int]):
        """Ascending trace positions of all accesses to ``members``."""
        np = self._np
        if not members:
            return np.empty(0, dtype=np.int64)
        if len(members) == 1:
            return self._positions[next(iter(members))]
        merged = np.concatenate([self._positions[i] for i in members])
        merged.sort()
        return merged

    def _lazy_dbc_cost(self, positions) -> int:
        """Exact lazy-policy cost of one DBC's restricted subsequence."""
        return self._kernel.lazy_chain_cost(
            positions, self._item_at, self._offset_np, self._ports_np
        )

    def _positions_of_dbc(self, dbc: int):
        cached = self._dbc_positions.get(dbc)
        if cached is None:
            cached = self._merged_positions(self._members.get(dbc, ()))
            self._dbc_positions[dbc] = cached
        return cached

    # ------------------------------------------------------------------
    # Delta computation
    # ------------------------------------------------------------------
    def _compute(self, changes: Mapping[int, tuple[int, int]]):
        """(delta, commit-info) for moving each item index to a new slot."""
        self.delta_evaluations += 1
        if self._eager:
            delta = 0
            new_item_costs: dict[int, int] = {}
            for i, (_dbc, offset) in changes.items():
                cost = self._freq[i] * self._eager_dist[offset]
                new_item_costs[i] = cost
                delta += cost - self._item_cost[i]
            return delta, new_item_costs
        affected: set[int] = set()
        for i, (dbc, _offset) in changes.items():
            affected.add(self._dbc[i])
            affected.add(dbc)
        # Temporarily poke the hypothetical offsets into the gather array.
        saved = [(i, int(self._offset_np[i])) for i in changes]
        for i, (_dbc, offset) in changes.items():
            self._offset_np[i] = offset
        new_costs: dict[int, tuple[int, frozenset | None]] = {}
        delta = 0
        try:
            for dbc in affected:
                base = self._members.get(dbc, set())
                outgoing = {
                    i for i in changes
                    if self._dbc[i] == dbc and changes[i][0] != dbc
                }
                incoming = {
                    i for i in changes
                    if changes[i][0] == dbc and self._dbc[i] != dbc
                }
                if outgoing or incoming:
                    # Walk (base \ outgoing) ∪ incoming without touching the
                    # cached positions; the merged array is only
                    # materialised if the move is committed (see ``_apply``).
                    cost = self._kernel.lazy_merge_cost(
                        self._positions_of_dbc(dbc),
                        self._merged_positions(outgoing),
                        self._merged_positions(incoming),
                        self._item_at,
                        self._offset_np,
                        self._ports_np,
                    )
                    payload = frozenset((base - outgoing) | incoming)
                else:
                    cost = self._lazy_dbc_cost(self._positions_of_dbc(dbc))
                    payload = None
                new_costs[dbc] = (cost, payload)
                delta += cost - self._dbc_cost.get(dbc, 0)
        finally:
            for i, offset in saved:
                self._offset_np[i] = offset
        return delta, new_costs

    def _probe_delta(self, changes: dict[int, tuple[int, int]]) -> int:
        key = tuple(sorted(changes.items()))
        delta, info = self._compute(changes)
        self._probe = (key, delta, info)
        return delta

    def _changes_for_swap(self, item_a: str, item_b: str):
        try:
            a = self._index[item_a]
            b = self._index[item_b]
        except KeyError as exc:
            raise PlacementError(
                f"item {exc.args[0]!r} is not part of the problem trace"
            ) from None
        return {
            a: (self._dbc[b], self._offset[b]),
            b: (self._dbc[a], self._offset[a]),
        }

    def _changes_for_move(self, item: str, slot: Slot | tuple[int, int]):
        slot = slot if isinstance(slot, Slot) else Slot(*slot)
        try:
            i = self._index[item]
        except KeyError:
            raise PlacementError(
                f"item {item!r} is not part of the problem trace"
            ) from None
        target = (slot.dbc, slot.offset)
        if target != (self._dbc[i], self._offset[i]) and target in self._occupied:
            raise PlacementError(
                f"slot {slot} is occupied; moves require a free slot"
            )
        return {i: target}

    def _changes_for_reversal(self, dbc: int, offsets: Sequence[int]):
        contents = self.dbc_contents(dbc)
        changes: dict[int, tuple[int, int]] = {}
        for source, target in zip(offsets, reversed(list(offsets))):
            if source not in contents:
                raise PlacementError(
                    f"offset {source} on DBC {dbc} holds no item"
                )
            item = contents[source]
            if item in self._extra:
                raise PlacementError(
                    f"cannot reverse over untraced item {item!r}"
                )
            changes[self._index[item]] = (dbc, target)
        return changes

    # ------------------------------------------------------------------
    # Public deltas (no state change)
    # ------------------------------------------------------------------
    def swap_delta(self, item_a: str, item_b: str) -> int:
        """Cost change if the two items' slots were exchanged."""
        return self._probe_delta(self._changes_for_swap(item_a, item_b))

    def move_delta(self, item: str, slot: Slot | tuple[int, int]) -> int:
        """Cost change if ``item`` moved to the (free) ``slot``."""
        return self._probe_delta(self._changes_for_move(item, slot))

    def reversal_delta(self, dbc: int, offsets: Sequence[int]) -> int:
        """Cost change if the occupied ``offsets`` of ``dbc`` were reversed.

        ``offsets`` lists occupied offsets in ascending order; the items at
        those offsets are re-laid in reverse (the 2-opt move).
        """
        return self._probe_delta(self._changes_for_reversal(dbc, offsets))

    # ------------------------------------------------------------------
    # Row probes (no state change)
    # ------------------------------------------------------------------
    def _row_layout(self) -> kernels.RowLayout:
        """The kernel layout of the current assignment (built lazily)."""
        layout = self._layout
        if layout is None:
            np = self._np
            used = sorted(dbc for dbc, members in self._members.items() if members)
            size = max([self._config.num_dbcs] + [dbc + 1 for dbc in used])
            sizes = np.zeros(size, dtype=np.int64)
            dbc_cost = np.zeros(size, dtype=np.int64)
            chunks = [np.empty(0, dtype=np.int64)]
            for dbc in used:
                positions = self._positions_of_dbc(dbc)
                chunks.append(positions)
                sizes[dbc] = positions.size
                dbc_cost[dbc] = self._dbc_cost.get(dbc, 0)
            dbc_start = np.zeros(size + 1, dtype=np.int64)
            np.cumsum(sizes, out=dbc_start[1:])
            layout = kernels.RowLayout(
                item_at=self._item_at,
                offset_of=self._offset_np,
                ports=self._ports_np,
                item_pos=self._order,
                item_start=self._boundaries,
                item_dbc=np.asarray(self._dbc, dtype=np.int64),
                dbc_pos=np.concatenate(chunks),
                dbc_start=dbc_start,
                dbc_cost=dbc_cost,
            )
            self._layout = layout
        return layout

    def _item_costs(self):
        """Dense per-item eager costs of the current assignment (lazily)."""
        if self._eager_costs is None:
            self._eager_costs = self._np.asarray(
                self._item_cost, dtype=self._np.int64
            )
        return self._eager_costs

    def _trace_indices(self, items: Sequence[str]):
        try:
            return [self._index[item] for item in items]
        except KeyError as exc:
            raise PlacementError(
                f"item {exc.args[0]!r} is not part of the problem trace"
            ) from None

    def swap_deltas(self, item: str, candidates: Sequence[str]):
        """``swap_delta(item, b)`` for every ``b`` in ``candidates``.

        Returns an ``int64`` array, one exact delta per candidate, priced
        in one kernel call (one numpy expression under the eager policy).
        """
        np = self._np
        (a,) = self._trace_indices([item])
        partners = np.asarray(self._trace_indices(candidates), dtype=np.int64)
        self.delta_evaluations += partners.size
        if self._eager:
            freq, dist, cost = self._freq_np, self._eager_dist_np, self._item_costs()
            offsets = self._offset_np
            return (
                freq[a] * dist[offsets[partners]]
                + freq[partners] * dist[offsets[a]]
                - cost[a]
                - cost[partners]
            )
        return self._kernel.lazy_swap_row(self._row_layout(), a, partners)

    def move_deltas(self, item: str, slots: Sequence[Slot | tuple[int, int]]):
        """``move_delta(item, slot)`` for every (free) slot in ``slots``."""
        np = self._np
        (a,) = self._trace_indices([item])
        targets = [self._changes_for_move(item, slot)[a] for slot in slots]
        config = self._config
        for dbc, offset in targets:
            # The lazy kernel indexes its per-DBC arrays with the target DBC.
            if not (0 <= dbc < config.num_dbcs and 0 <= offset < config.words_per_dbc):
                raise PlacementError(
                    f"slot {Slot(dbc, offset)} is outside the geometry"
                )
        slot_dbc = np.asarray([dbc for dbc, _ in targets], dtype=np.int64)
        slot_offset = np.asarray([offset for _, offset in targets], dtype=np.int64)
        self.delta_evaluations += len(targets)
        if self._eager:
            cost = self._item_costs()
            return self._freq_np[a] * self._eager_dist_np[slot_offset] - cost[a]
        return self._kernel.lazy_move_row(
            self._row_layout(), a, slot_dbc, slot_offset
        )

    def reversal_deltas(self, dbc: int, offsets: Sequence[int], first: int = 1):
        """``reversal_delta(dbc, offsets[:k + 1])`` for ``k`` in
        ``range(first, len(offsets))``.

        Every segment starts at ``offsets[0]``; ``first`` skips the shorter
        ones (a row resumed after an accepted reversal).
        """
        np = self._np
        if first < 0:
            raise PlacementError(f"first must be >= 0, got {first}")
        changes = self._changes_for_reversal(dbc, offsets)
        seg_items = np.asarray(list(changes), dtype=np.int64)
        seg_offsets = np.asarray(offsets, dtype=np.int64)
        count = max(0, len(offsets) - first)
        self.delta_evaluations += count
        if not self._eager:
            return self._kernel.lazy_reversal_row(
                self._row_layout(), dbc, seg_items, seg_offsets, first
            )
        freq = self._freq_np[seg_items]
        dist = self._eager_dist_np[seg_offsets]
        ends = np.arange(first, len(offsets))[:, None]
        starts = np.arange(len(offsets))[None, :]
        # Row k, column s: item s moves to offsets[k - s] when s <= k.
        moved = np.where(
            starts <= ends, freq * dist[np.maximum(ends - starts, 0)], 0
        ).sum(axis=1)
        before = np.cumsum(self._item_costs()[seg_items])[first:]
        return moved - before

    # ------------------------------------------------------------------
    # Apply / undo
    # ------------------------------------------------------------------
    def _apply(self, changes: dict[int, tuple[int, int]]) -> int:
        key = tuple(sorted(changes.items()))
        if self._probe is not None and self._probe[0] == key:
            _key, delta, info = self._probe
        else:
            delta, info = self._compute(changes)
        self._probe = None
        record_slots = [
            (i, self._dbc[i], self._offset[i]) for i in changes
        ]
        if self._eager:
            record_costs = [(i, self._item_cost[i]) for i in changes]
            for i, cost in info.items():
                self._item_cost[i] = cost
            record = ("eager", record_slots, record_costs, delta)
        else:
            affected = list(info)
            record_costs = [
                (dbc, self._dbc_cost.get(dbc, 0), self._dbc_positions.get(dbc))
                for dbc in affected
            ]
            for dbc, (cost, payload) in info.items():
                self._dbc_cost[dbc] = cost
                if payload is not None:
                    # Probes defer materialising the merged position array
                    # to commit time.
                    self._dbc_positions[dbc] = self._merged_positions(payload)
            record = ("lazy", record_slots, record_costs, delta)
        self._reassign(changes.items())
        self._total += delta
        self._undo.append(record)
        self.applied_moves += 1
        return self._total

    def _reassign(self, assignments) -> None:
        """Commit new (dbc, offset) slots, keeping occupancy/members in sync."""
        assignments = list(assignments)
        self._layout = None
        self._eager_costs = None
        for i, _slot in assignments:
            self._occupied.discard((self._dbc[i], self._offset[i]))
        for i, (dbc, offset) in assignments:
            old_dbc = self._dbc[i]
            if old_dbc != dbc:
                self._members[old_dbc].discard(i)
                self._members.setdefault(dbc, set()).add(i)
            self._dbc[i] = dbc
            self._offset[i] = offset
            self._offset_np[i] = offset
            self._occupied.add((dbc, offset))

    def apply_swap(self, item_a: str, item_b: str) -> int:
        """Exchange the two items' slots; returns the new total."""
        return self._apply(self._changes_for_swap(item_a, item_b))

    def apply_move(self, item: str, slot: Slot | tuple[int, int]) -> int:
        """Move ``item`` to the free ``slot``; returns the new total."""
        return self._apply(self._changes_for_move(item, slot))

    def apply_reversal(self, dbc: int, offsets: Sequence[int]) -> int:
        """Reverse the items at ``offsets`` on ``dbc``; returns the total."""
        return self._apply(self._changes_for_reversal(dbc, offsets))

    def undo(self) -> int:
        """Revert the most recent applied move; returns the restored total."""
        if not self._undo:
            raise PlacementError("nothing to undo")
        kind, record_slots, record_costs, delta = self._undo.pop()
        self._reassign((i, (dbc, offset)) for i, dbc, offset in record_slots)
        if kind == "eager":
            for i, cost in record_costs:
                self._item_cost[i] = cost
        else:
            for dbc, cost, positions in record_costs:
                self._dbc_cost[dbc] = cost
                if positions is None:
                    self._dbc_positions.pop(dbc, None)
                else:
                    self._dbc_positions[dbc] = positions
        self._total -= delta
        self._probe = None
        return self._total
