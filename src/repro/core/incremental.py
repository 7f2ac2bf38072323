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

Local search runs as refinement passes: ``swap_pass`` and
``reversal_pass`` scan ``swap_refinement``'s / ``two_opt_refinement``'s
candidates one probe at a time, applying each improving move before the
next probe.  On the cc tier a pass is one compiled call over the trace's
per-item position index and a per-DBC position CSR and head trajectories
it lays out itself, pricing each lazy probe by a rejoin walk (it walks
from each changed access only until the head meets the cached
trajectory), after which the evaluator adopts the new assignment once;
the pass's probes, accepted moves and walked steps are counted in the
``repro.obs`` registry (``core.refine.*``).  Elsewhere it is
the single-probe scan ``scan_swaps`` / ``scan_reversals`` over the probes
below, which defines the sequence of moves both reproduce.

The evaluator maintains the current assignment mutably with ``apply_*`` /
``undo`` (no :class:`Placement` dict rebuild per candidate) and materialises
a :class:`Placement` only on demand.  Differential tests assert that totals
and deltas agree exactly with the reference evaluator under every policy ×
port-count combination, including after arbitrary apply/undo sequences.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core import kernels
from repro.core.placement import Placement, Slot
from repro.core.problem import PlacementProblem
from repro.dwm.config import PortPolicy
from repro.dwm.dbc import rest_table
from repro.errors import PlacementError
from repro.obs.metrics import get_registry


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
        The placement problem (trace + geometry).  Positions and access
        counts come from its resolved trace's shared position index.
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
        config = problem.config
        self._config = config
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
        self._resolved = problem.resolved
        self._item_at = self._resolved.item_at
        #: access counts per item (eager weights); the list keeps probes fast.
        self._counts = np.diff(self._resolved.item_positions[1])
        self._count_list: list[int] = self._counts.tolist()

        # Current assignment (dense per-item arrays; _offset_np mirrors
        # _offset for vectorised gathers).
        self._dbc: list[int] = [0] * n
        self._offset: list[int] = [0] * n
        self._members: dict[int, set[int]] = {}
        for i, item in enumerate(items):
            slot = placement[item]
            self._dbc[i] = slot.dbc
            self._offset[i] = slot.offset
            self._members.setdefault(slot.dbc, set()).add(i)
        self._offset_np = np.asarray(self._offset, dtype=np.int64)
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
        self._item_cost: list[int] = []  # eager only
        self._dbc_cost: dict[int, int] = {}
        self._dbc_positions: dict[int, object] = {}
        self._undo: list = []
        self._probe: tuple | None = None
        #: instrumentation: number of delta computations performed.
        self.delta_evaluations = 0
        #: instrumentation: number of applied (committed) moves.
        self.applied_moves = 0

        if self._eager:
            costs = self._counts * self._eager_dist_np[self._offset_np]
            self._item_cost = costs.tolist()
            self._total = sum(self._item_cost)
        else:
            for dbc in self._members:
                self._dbc_cost[dbc] = self._lazy_dbc_cost(self._positions_of_dbc(dbc))
            self._total = sum(self._dbc_cost.values())

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
    def _lazy_dbc_cost(self, positions) -> int:
        """Exact lazy-policy cost of one DBC's restricted subsequence."""
        return self._kernel.lazy_chain_cost(
            positions, self._item_at, self._offset_np, self._ports_np
        )

    def _positions_of_dbc(self, dbc: int):
        cached = self._dbc_positions.get(dbc)
        if cached is None:
            cached = self._resolved.positions_of(self._members.get(dbc, ()))
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
                cost = self._count_list[i] * self._eager_dist[offset]
                new_item_costs[i] = cost
                delta += cost - self._item_cost[i]
            return delta, new_item_costs
        old_dbc = self._dbc
        # Items that change DBC; a same-DBC move re-walks its DBC's chain.
        cross = [i for i, (dbc, _offset) in changes.items() if dbc != old_dbc[i]]
        affected = {old_dbc[i] for i in changes}
        affected.update(changes[i][0] for i in cross)
        # Temporarily poke the hypothetical offsets into the gather array.
        offset_np = self._offset_np
        for i, (_dbc, offset) in changes.items():
            offset_np[i] = offset
        new_costs: dict[int, tuple[int, tuple | None]] = {}
        delta = 0
        try:
            for dbc in affected:
                outgoing = [i for i in cross if old_dbc[i] == dbc]
                incoming = [i for i in cross if changes[i][0] == dbc]
                if outgoing or incoming:
                    # Walk (base \ outgoing) ∪ incoming without touching the
                    # cached positions; the merged array is only
                    # materialised if the move is committed (see ``_apply``).
                    cost = self._kernel.lazy_merge_cost(
                        self._positions_of_dbc(dbc),
                        self._resolved.positions_of(outgoing),
                        self._resolved.positions_of(incoming),
                        self._item_at,
                        offset_np,
                        self._ports_np,
                    )
                    payload = (outgoing, incoming)
                else:
                    cost = self._lazy_dbc_cost(self._positions_of_dbc(dbc))
                    payload = None
                new_costs[dbc] = (cost, payload)
                delta += cost - self._dbc_cost.get(dbc, 0)
        finally:
            offset = self._offset
            for i in changes:
                offset_np[i] = offset[i]
        return delta, new_costs

    def _probe_delta(self, changes: dict[int, tuple[int, int]]) -> int:
        delta, info = self._compute(changes)
        self._probe = (changes, delta, info)
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
        offset = self._offset
        traced = {offset[i]: i for i in self._members.get(dbc, ())}
        changes: dict[int, tuple[int, int]] = {}
        for source, target in zip(offsets, reversed(list(offsets))):
            i = traced.get(source)
            if i is None:
                untraced = [
                    item for item, slot in self._extra.items()
                    if slot == (dbc, source)
                ]
                if untraced:
                    raise PlacementError(
                        f"cannot reverse over untraced item {untraced[0]!r}"
                    )
                raise PlacementError(
                    f"offset {source} on DBC {dbc} holds no item"
                )
            changes[i] = (dbc, target)
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
    # Apply / undo
    # ------------------------------------------------------------------
    def _apply(self, changes: dict[int, tuple[int, int]]) -> int:
        # Dict equality ignores order: the probe of the same move commits.
        if self._probe is not None and self._probe[0] == changes:
            _changes, delta, info = self._probe
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
                    outgoing, incoming = payload
                    members = self._members.get(dbc, set()).difference(outgoing)
                    members.update(incoming)
                    self._dbc_positions[dbc] = self._resolved.positions_of(members)
            record = ("lazy", record_slots, record_costs, delta)
        self._reassign(changes.items())
        self._total += delta
        self._undo.append(record)
        self.applied_moves += 1
        return self._total

    def _reassign(self, assignments) -> None:
        """Commit new (dbc, offset) slots, keeping occupancy/members in sync."""
        assignments = list(assignments)
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

    # ------------------------------------------------------------------
    # Refinement passes
    # ------------------------------------------------------------------
    def swap_pass(self, max_passes: int, max_evaluations: int) -> None:
        """Run :func:`~repro.core.local_search.swap_refinement`'s scan.

        One compiled call on the cc tier, :meth:`scan_swaps` elsewhere;
        both leave the same assignment, total and ``delta_evaluations``.
        """
        self._refine(
            "swap", self._kernel.swap_pass, self.scan_swaps, max_passes,
            max_evaluations,
        )

    def reversal_pass(self, max_passes: int, max_evaluations: int) -> None:
        """Run :func:`~repro.core.local_search.two_opt_refinement`'s scan,
        as :meth:`swap_pass` does."""
        self._refine(
            "two_opt", self._kernel.reversal_pass, self.scan_reversals,
            max_passes, max_evaluations,
        )

    def scan_swaps(self, max_passes: int, max_evaluations: int) -> None:
        """The swap scan one single probe at a time.

        Each pass probes ``swap(items[i], items[j])`` for ``i < j``, then
        moves of every item to each slot that is free when the item's scan
        begins, applying each improving move before the next probe; a pass
        that accepts nothing ends the scan.  The start counts as one of the
        ``max_evaluations``, every probe as one more.
        """
        probes = _probe_budget(max_evaluations)
        items = self._items
        for _ in range(_pass_budget(max_passes)):
            accepted = self.applied_moves
            for i, item_a in enumerate(items):
                for item_b in items[i + 1 :]:
                    if probes == 0:
                        return self._end_pass()
                    probes -= 1
                    if self.swap_delta(item_a, item_b) < 0:
                        self.apply_swap(item_a, item_b)
            free_slots = None
            for item in items:
                if free_slots is None:
                    free_slots = self.free_slots()
                moved = False
                for slot in free_slots:
                    if probes == 0:
                        return self._end_pass()
                    probes -= 1
                    if self.move_delta(item, slot) < 0:
                        # The rest of the list is still free; the next
                        # item lists the slots afresh.
                        self.apply_move(item, slot)
                        moved = True
                if moved:
                    free_slots = None
            if self.applied_moves == accepted:
                break
        self._end_pass()

    def scan_reversals(self, max_passes: int, max_evaluations: int) -> None:
        """The 2-opt scan one single probe at a time.

        Each pass walks every used DBC's traced offsets in ascending order
        and probes reversing ``offsets[i..j]`` for ``i < j``; an untraced
        item keeps its slot.  A reversal keeps the occupied offsets, so
        the scan resumes at ``j + 1``.  Budget and stopping as in
        :meth:`scan_swaps`.
        """
        probes = _probe_budget(max_evaluations)
        for _ in range(_pass_budget(max_passes)):
            accepted = self.applied_moves
            for dbc in self.dbcs_used():
                offsets = sorted(
                    offset
                    for offset, item in self.dbc_contents(dbc).items()
                    if item in self._index
                )
                for i in range(len(offsets)):
                    for j in range(i + 1, len(offsets)):
                        if probes == 0:
                            return self._end_pass()
                        probes -= 1
                        segment = offsets[i : j + 1]
                        if self.reversal_delta(dbc, segment) < 0:
                            self.apply_reversal(dbc, segment)
            if self.applied_moves == accepted:
                break
        self._end_pass()

    def _end_pass(self) -> None:
        # A pass is not undone move by move.
        self._undo.clear()
        self._probe = None

    def _refine(self, name, compiled, scan, max_passes, max_evaluations) -> None:
        """Run one refiner's scan and count it in the metrics registry:
        ``core.refine.probes`` and ``core.refine.accepted`` on every tier,
        ``core.refine.steps`` (lazy steps walked) for a compiled pass; all
        labelled ``pass=name``."""
        config = self._config
        for dbc, offset in self._occupied:
            # A compiled pass indexes its per-DBC and per-slot arrays with
            # these, and a scan would list free slots outside the array.
            if dbc >= config.num_dbcs or offset >= config.words_per_dbc:
                raise PlacementError(
                    f"slot {Slot(dbc, offset)} is outside the geometry"
                )
        registry = get_registry()
        label = {"pass": name}
        start = self.delta_evaluations, self.applied_moves
        if compiled is None:
            scan(max_passes, max_evaluations)
        else:
            state = self._refine_state()
            probes, accepted, delta, steps = compiled(
                state, _pass_budget(max_passes), _probe_budget(max_evaluations)
            )
            self.delta_evaluations += probes
            if accepted:
                self._resync(state, accepted, delta)
            self._end_pass()
            registry.inc("core.refine.steps", steps, **label)
        registry.inc("core.refine.probes", self.delta_evaluations - start[0], **label)
        registry.inc("core.refine.accepted", self.applied_moves - start[1], **label)

    def _refine_state(self) -> kernels.RefineState:
        """The current (in-geometry) assignment laid out for a compiled pass."""
        np = self._np
        num_dbcs, words = self._config.num_dbcs, self._config.words_per_dbc
        trace_len = self._item_at.size
        item_dbc = np.asarray(self._dbc, dtype=np.int64)
        extra_dbc = [dbc for dbc, _ in self._extra.values()]
        load = np.bincount(
            np.asarray(self._dbc + extra_dbc, dtype=np.int64), minlength=num_dbcs
        )
        occupied = np.zeros(num_dbcs * words, dtype=np.int64)
        occupied[[dbc * words + offset for dbc, offset in self._occupied]] = 1
        dbc_cost = np.zeros(num_dbcs, dtype=np.int64)
        for dbc, cost in self._dbc_cost.items():
            dbc_cost[dbc] = cost
        item_pos, item_start = self._resolved.item_positions
        return kernels.RefineState(
            item_at=np.ascontiguousarray(self._item_at, dtype=np.int64),
            item_pos=item_pos,
            item_start=item_start,
            ports=self._ports_np,
            counts=np.ascontiguousarray(self._counts, dtype=np.int64),
            rest=self._eager_dist_np,
            offset_of=self._offset_np,
            item_dbc=item_dbc,
            dbc_cost=dbc_cost,
            load=load,
            occupied=occupied,
            dbc_pos=np.empty(trace_len, dtype=np.int64),
            dbc_start=np.empty(num_dbcs + 1, dtype=np.int64),
            dbc_head=np.empty(trace_len, dtype=np.int64),
            rank=np.empty(trace_len, dtype=np.int64),
            scratch=np.empty((num_dbcs + 2) * words + 2 * trace_len, dtype=np.int64),
            num_items=len(self._items),
            num_dbcs=num_dbcs,
            words=words,
            eager=self._eager,
        )

    def _resync(self, state: kernels.RefineState, accepted: int, delta: int) -> None:
        """Adopt the assignment a compiled pass left in ``state``."""
        self._dbc = state.item_dbc.tolist()
        self._offset = self._offset_np.tolist()
        self._members = {}
        for i, dbc in enumerate(self._dbc):
            self._members.setdefault(dbc, set()).add(i)
        self._occupied = set(zip(self._dbc, self._offset))
        self._occupied.update(self._extra.values())
        if self._eager:
            costs = self._counts * self._eager_dist_np[self._offset_np]
            self._item_cost = costs.tolist()
        else:
            start = state.dbc_start
            self._dbc_cost = {
                dbc: int(state.dbc_cost[dbc]) for dbc in self._members
            }
            self._dbc_positions = {
                dbc: state.dbc_pos[start[dbc] : start[dbc + 1]]
                for dbc in self._members
            }
        self._total += delta
        self.applied_moves += accepted


#: Budgets are clamped to what a C ``int64`` holds; no scan reaches it.
_BUDGET_CAP = 2**62


def _pass_budget(max_passes: int) -> int:
    return max(0, min(max_passes, _BUDGET_CAP))


def _probe_budget(max_evaluations: int) -> int:
    """Probes a scan may spend: the start counts as one evaluation."""
    return int(max(0, min(max_evaluations - 1, _BUDGET_CAP)))
