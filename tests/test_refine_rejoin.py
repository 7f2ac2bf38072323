"""Rejoin walks in the compiled refinement passes.

On the cc tier ``CostEvaluator.swap_pass`` / ``reversal_pass`` price every
lazy probe from the cached per-DBC head trajectories (``RefineState``
``dbc_head`` / ``rank``): a probe walks from each changed access only until
its head rejoins the cached one (docs/COST_MODEL.md §5).  These tests pin
those passes to the single-probe scans (``scan_swaps`` / ``scan_reversals``,
full replays) from random starts, so that many moves are accepted — cross-DBC
moves that empty a DBC's chain or fill an empty one among them — and check
the trajectories the pass leaves behind against a fresh walk.  On the numpy
tier the same tests check the scans against each other and the refinement
counters.
"""

import random

import numpy as np
import pytest

from repro.core import kernels
from repro.core.api import build_problem
from repro.core.baselines import random_placement
from repro.core.cost import evaluate_placement
from repro.core.incremental import CostEvaluator
from repro.core.placement import Placement
from repro.dwm.config import DWMConfig
from repro.dwm.dbc import port_access_cost
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.trace.kernels import KERNELS
from repro.trace.model import AccessTrace
from repro.trace.synthetic import markov_trace

#: Port layouts of an 8-word DBC: one, two and three ports, and two
#: tie-heavy layouts (many offsets equally far from two ports).
PORTS = {
    "1p": (4,),
    "2p": (2, 6),
    "3p": (1, 4, 7),
    "ties-2p": (0, 4),
    "ties-3p": (1, 3, 5),
}

#: Probe budgets: all but the last end mid-pass.
BUDGETS = (1, 9, 60, 400, 20000)

REFINERS = (
    ("swap", CostEvaluator.swap_pass, CostEvaluator.scan_swaps),
    ("two_opt", CostEvaluator.reversal_pass, CostEvaluator.scan_reversals),
)


def _problem(ports, seed):
    """24 markov items plus four items accessed once, on ten 8-word DBCs
    (four are never filled by the start placement)."""
    trace = markov_trace(24, 360, locality=0.7, seed=seed, write_fraction=0.2)
    names = [access.item for access in trace]
    rng = random.Random(seed)
    for k in range(4):
        names.insert(rng.randrange(len(names) + 1), f"once{k}")
    config = DWMConfig(
        words_per_dbc=8, num_dbcs=10, port_offsets=ports, port_policy="lazy"
    )
    return build_problem(AccessTrace(names), config)


def _start(problem, seed):
    """A random placement, then: an item accessed once alone on DBC 6, as
    far from the ports as any offset (moving it out empties that chain),
    and an untraced entry alone on DBC 7 (its chain is empty, its free
    slots are move targets)."""
    mapping = dict(random_placement(problem, seed).as_dict())
    ports = problem.config.port_offsets
    far = max(range(8), key=lambda o: min(abs(o - p) for p in ports))
    mapping[f"once{seed % 4}"] = (6, far)
    mapping["ghost"] = (7, random.Random(seed).randrange(8))
    return Placement(mapping)


class _Recording(CostEvaluator):
    """The single-probe scan, recording DBCs whose chain an applied move
    emptied or filled."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.emptied: set[int] = set()
        self.filled: set[int] = set()

    def _apply(self, changes):
        before = {dbc for dbc, members in self._members.items() if members}
        total = super()._apply(changes)
        after = {dbc for dbc, members in self._members.items() if members}
        self.emptied |= before - after
        self.filled |= after - before
        return total


def _record(evaluator):
    return (
        evaluator.placement(),
        evaluator.total,
        evaluator.delta_evaluations,
        evaluator.applied_moves,
    )


def _fresh_heads(state):
    """Each DBC chain of ``state`` walked from head 0 at its offsets."""
    ports = tuple(int(port) for port in state.ports)
    heads = np.empty_like(state.dbc_head)
    costs = np.zeros(state.num_dbcs, dtype=np.int64)
    for dbc in range(state.num_dbcs):
        head = 0
        for k in range(state.dbc_start[dbc], state.dbc_start[dbc + 1]):
            item = state.item_at[state.dbc_pos[k]]
            cost, _port, head = port_access_cost(
                int(state.offset_of[item]), head, ports
            )
            heads[k] = head
            costs[dbc] += cost
    return heads, costs


def _compiled_tier():
    tier = kernels.active()
    if tier.swap_pass is None:
        pytest.skip("the active tier has no compiled pass")
    return tier


@pytest.mark.parametrize("kernel_tier", ["active", "numpy"], indirect=True)
@pytest.mark.parametrize("ports", list(PORTS.values()), ids=list(PORTS))
def test_pass_equals_scan_from_random_starts(ports, kernel_tier):
    # Placement, total and probe count equal the full-replay scan at every
    # budget, and the scan moved items into the empty chain of DBC 7.
    filled, accepted = set(), 0
    for seed in (1, 2, 3):
        problem = _problem(ports, seed)
        start = _start(problem, seed)
        for name, refine, scan in REFINERS:
            for budget in BUDGETS:
                refined = CostEvaluator(problem, start)
                reference = _Recording(problem, start)
                refine(refined, 3, budget)
                scan(reference, 3, budget)
                assert _record(refined) == _record(reference), (name, budget)
                assert refined.total == evaluate_placement(
                    problem, refined.placement(), validate=False
                )
                filled |= reference.filled
                accepted += reference.applied_moves
    assert accepted > 300
    assert 7 in filled


@pytest.mark.parametrize("kernel_tier", ["active", "numpy"], indirect=True)
@pytest.mark.parametrize("ports", list(PORTS.values()), ids=list(PORTS))
def test_a_move_empties_one_chain_and_fills_another(ports, kernel_tier):
    # z sits at a port on a full DBC 0; x, accessed once, sits alone on
    # DBC 2 as far from the ports as any offset.  No swap improves, and the
    # first free slot that does is on DBC 1, whose only entry is untraced:
    # the move empties DBC 2's chain and fills DBC 1's.
    far = max(range(8), key=lambda o: min(abs(o - p) for p in ports))
    spare = min(set(range(8)) - set(ports))
    mapping = {"z": (0, ports[0]), "x": (2, far), "ghost": (1, spare)}
    mapping.update(
        {f"wall{o}": (0, o) for o in range(8) if o != ports[0]}
    )
    config = DWMConfig(
        words_per_dbc=8, num_dbcs=3, port_offsets=ports, port_policy="lazy"
    )
    problem = build_problem(AccessTrace(list("zzzxzz")), config)
    refined = CostEvaluator(problem, Placement(mapping))
    reference = _Recording(problem, Placement(mapping))
    refined.swap_pass(3, 100)
    reference.scan_swaps(3, 100)
    assert _record(refined) == _record(reference)
    assert (reference.emptied, reference.filled) == ({2}, {1})
    assert refined.slot_of("x").dbc == 1
    assert refined.total == 0


@pytest.mark.parametrize("ports", list(PORTS.values()), ids=list(PORTS))
def test_trajectories_match_a_fresh_walk(ports):
    # After every pass, mid-pass budgets included, the cached trajectories,
    # ranks and DBC costs are those of the assignment the pass left.
    tier = _compiled_tier()
    for seed in (4, 5):
        problem = _problem(ports, seed)
        evaluator = CostEvaluator(problem, _start(problem, seed))
        for step, budget in enumerate(BUDGETS * 2):
            entry = tier.swap_pass if step % 2 else tier.reversal_pass
            state = evaluator._refine_state()
            _probes, accepted, delta, steps = entry(state, 3, budget)
            heads, costs = _fresh_heads(state)
            np.testing.assert_array_equal(state.dbc_head, heads)
            np.testing.assert_array_equal(state.dbc_cost, costs)
            np.testing.assert_array_equal(
                state.dbc_pos[state.rank], np.arange(state.rank.size)
            )
            assert steps > 0
            # Carry the pass's assignment into the next start.
            if accepted:
                evaluator._resync(state, accepted, delta)
            assert evaluator.total == int(costs.sum())


def _count_full_replay(evaluator):
    """Route ``evaluator``'s walks through a counter of replayed accesses."""
    inner = evaluator._kernel
    walked = [0]

    class Counting:
        name = inner.name
        swap_pass = reversal_pass = None

        def lazy_chain_cost(self, positions, *args):
            walked[0] += len(positions)
            return inner.lazy_chain_cost(positions, *args)

        def lazy_merge_cost(self, base, skip, add, *args):
            walked[0] += len(base) - len(skip) + len(add)
            return inner.lazy_merge_cost(base, skip, add, *args)

    evaluator._kernel = Counting()
    return walked


@pytest.mark.parametrize("ports", [1, 2])
def test_rejoin_walks_fewer_steps_than_a_full_replay(ports):
    _compiled_tier()
    trace = KERNELS["fir"](seed=3)
    config = DWMConfig.for_items(trace.num_items, words_per_dbc=16, num_ports=ports)
    problem = build_problem(trace, config)
    start = random_placement(problem, 1)
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        for name, refine, scan in REFINERS:
            refined = CostEvaluator(problem, start)
            reference = CostEvaluator(problem, start)
            walked = _count_full_replay(reference)
            refine(refined, 2, 3000)
            scan(reference, 2, 3000)
            assert _record(refined) == _record(reference)
            steps = registry.counter_value("core.refine.steps", **{"pass": name})
            assert 0 < steps < walked[0]
    finally:
        set_registry(previous)


@pytest.mark.parametrize("kernel_tier", ["active", "numpy"], indirect=True)
def test_refinement_counters(kernel_tier):
    # Probes and accepted moves are counted per refiner on every tier and
    # equal the evaluator's own counts; walked steps only by a compiled pass.
    problem = _problem(PORTS["2p"], seed=6)
    start = _start(problem, 6)
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        counts = {}
        for name, refine, _scan in REFINERS:
            evaluator = CostEvaluator(problem, start)
            refine(evaluator, 3, 2000)
            label = {"pass": name}
            probes = registry.counter_value("core.refine.probes", **label)
            accepted = registry.counter_value("core.refine.accepted", **label)
            steps = registry.counter_value("core.refine.steps", **label)
            assert (probes, accepted) == (
                evaluator.delta_evaluations,
                evaluator.applied_moves,
            )
            assert accepted > 0
            assert (steps > 0) == (kernel_tier.swap_pass is not None)
            counts[name] = (probes, accepted)
    finally:
        set_registry(previous)
    # Both tiers count the same probes and moves from the same start.
    assert counts == {"swap": (1999, 56), "two_opt": (249, 17)}
