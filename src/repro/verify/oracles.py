"""Invariant oracles: every way the repo prices a placement must agree.

:func:`check_case` runs one :class:`~repro.verify.cases.FuzzCase` through
five oracle families and returns the (hopefully empty) list of
:class:`Violation` records:

* **engine agreement** — scalar reference vs vectorized vs incremental vs
  simulator engines vs the fault-injection cost stream, on totals, per-DBC
  decompositions (plus the planner's grouped pricer,
  :class:`~repro.core.ordering.GroupedTrace` +
  :func:`~repro.core.ordering.price_layouts`), and the per-access maximum;
* **round trips** — seeded swap/move/reversal mutation scripts through
  :class:`~repro.core.incremental.CostEvaluator`: probed deltas must match
  applied deltas, running totals must match from-scratch evaluation, and
  undo must restore the exact starting state; both refinement passes
  (compiled on the cc tier) must leave what the single-probe scans leave;
* **bounds** — ``shift_lower_bound ≤ cost`` always, and on tiny instances
  ``lower_bound ≤ brute-force optimum ≤ cost`` with the ``exact`` method
  landing exactly on the optimum (the brute force here enumerates *all*
  injective slot assignments — deliberately sharing no code with
  ``repro.core.exact``);
* **quality** — the cross-paper methods (``shiftsreduce``,
  ``generalized``) keep the paper heuristic's placement in their candidate
  portfolio, so a run that prices *worse* than the heuristic is a solver
  bug, not a modelling choice;
* **ilp solver** — on tiny instances the MinLA solver chain
  (:func:`repro.core.cpsat.solve_minla`: CP-SAT when installed, the
  subset DP otherwise) must report a *certified* optimum equal to the
  independent DP optimum, and its order must price to the cost it claims;
* **cache equivalence** — a cold placement-cache store followed by a warm
  lookup must be a hit and return the identical result;
* **fault determinism** — ``injection_seed`` is stable, ``run_injection``
  is a pure function of it, and fault reports are engine-independent;
* **kernel parity** — every available lazy-walk tier (the numpy tier
  always, the cc kernel when it is built) must match the Hillis–Steele
  numpy reference bit-for-bit on per-access costs, chain walks and merge
  walks, across single-port, two-port and the case's own port geometry;
  on every portfolio grouping the cc tier's compiled chains and candidate
  cost tables must equal the numpy tier's (``layout_mismatch``), and so
  must its greedy, refined and chain-and-cut groupings
  (``grouping_mismatch``);
* **streaming agreement** — the chunked out-of-core engine
  (:mod:`repro.memory.stream_sim`) must match the vectorized engine on
  totals, per-DBC decompositions and the per-access maximum, for
  degenerate and random chunk sizes (1, a seeded random size, and larger
  than the trace), on both the head-carrying sequential path and the
  ChunkState map+merge path.

Each family is guarded: an exception inside a check becomes a
``crash:<family>`` violation instead of aborting the sweep.
"""

from __future__ import annotations

import itertools
import math
import random
import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.cache import cache_scope
from repro.core import kernels
from repro.core.api import ALGORITHMS, optimize_placement
from repro.core.cost import evaluate_placement, per_dbc_costs, shift_lower_bound
from repro.core.exact import exhaustive_search_is_exact
from repro.core.incremental import CostEvaluator
from repro.core.kernels import multi_port_access_costs_numpy
from repro.core.generalized import port_aware_layouts
from repro.core.grouping import greedy_min_affinity_grouping, min_affinity_groups
from repro.core.heuristic import chain_and_cut_groups, grouping_portfolio
from repro.core.ordering import (
    GroupedTrace,
    Layout,
    heuristic_layouts,
    price_layouts,
)
from repro.core.placement import Placement, Slot
from repro.core.problem import PlacementProblem
from repro.core.shiftsreduce import bidirectional_layouts
from repro.dwm.dbc import port_access_cost
from repro.dwm.faults import FaultModel, injection_seed, run_injection
from repro.memory.batch_sim import per_access_costs
from repro.memory.spm import ScratchpadMemory
from repro.verify.cases import FuzzCase

#: Brute-force optimum oracle budget: skip when the number of injective
#: slot assignments exceeds this.
DEFAULT_BRUTE_FORCE_LIMIT = 2000

#: Item-count gate for running the ``exact`` method inside the oracle.
EXACT_ORACLE_MAX_ITEMS = 6

#: Methods whose candidate portfolio contains the paper heuristic, making
#: ``cost ≤ heuristic cost`` a structural invariant the quality oracle
#: polices.
GUARDED_METHODS = ("shiftsreduce", "generalized")

#: Item-count gate for the MinLA solver-chain oracle (the independent DP
#: reference is O(2^n·n)).
ILP_ORACLE_MAX_ITEMS = 7


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with enough data to read the disagreement."""

    kind: str
    detail: str
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail, "data": self.data}


def build_placement(case: FuzzCase) -> tuple[PlacementProblem, Placement]:
    """Instantiate the case's problem and run its placement method."""
    problem = case.problem()
    placement = ALGORITHMS[case.method](problem, **case.method_kwargs)
    return problem, placement


def brute_force_optimum(
    problem: PlacementProblem,
    limit: int = DEFAULT_BRUTE_FORCE_LIMIT,
) -> int | None:
    """True optimum over ALL injective slot assignments, or ``None``.

    Independent of ``repro.core.exact`` by design: this is the oracle the
    exact solvers are judged against, so it enumerates raw assignments
    (including non-contiguous, gap-straddling ones) with no search-space
    restriction.  Returns ``None`` when the assignment count exceeds
    ``limit``.
    """
    config = problem.config
    slots = [
        Slot(dbc, offset)
        for dbc in range(config.num_dbcs)
        for offset in range(config.words_per_dbc)
    ]
    items = list(problem.items)
    if math.perm(len(slots), len(items)) > limit:
        return None
    best: int | None = None
    for chosen in itertools.permutations(slots, len(items)):
        placement = Placement(dict(zip(items, chosen)))
        cost = evaluate_placement(problem, placement, validate=False)
        if best is None or cost < best:
            best = cost
    return best


def check_engine_agreement(
    case: FuzzCase,
    problem: PlacementProblem,
    placement: Placement,
) -> list[Violation]:
    """All cost engines must agree bit-for-bit with the scalar reference."""
    violations: list[Violation] = []
    trace, config = problem.trace, problem.config
    reference = evaluate_placement(problem, placement)
    spm = ScratchpadMemory(config, placement)
    scalar = spm.simulate(trace, engine="scalar")
    vectorized = spm.simulate(trace, engine="vectorized")
    dbc_seq, cost_seq = per_access_costs(trace, config, placement)
    totals = {
        "incremental": int(CostEvaluator(problem, placement).total),
        "simulator_scalar": int(scalar.shifts),
        "simulator_vectorized": int(vectorized.shifts),
        "fault_cost_stream": int(cost_seq.sum()),
    }
    for engine, total in totals.items():
        if total != reference:
            violations.append(
                Violation(
                    kind="engine_total_mismatch",
                    detail=(
                        f"{engine} total {total} != scalar reference "
                        f"{reference}"
                    ),
                    data={"engine": engine, "total": total, "reference": reference},
                )
            )
    per_dbc_reference = per_dbc_costs(problem, placement)
    views = {
        "simulator_scalar": tuple(int(s) for s in scalar.per_dbc_shifts),
        "simulator_vectorized": tuple(
            int(s) for s in vectorized.per_dbc_shifts
        ),
    }
    stream_per_dbc = [0] * config.num_dbcs
    for dbc, cost in zip(dbc_seq.tolist(), cost_seq.tolist()):
        stream_per_dbc[dbc] += cost
    views["fault_cost_stream"] = tuple(stream_per_dbc)
    groups: list[list[str]] = [[] for _ in range(config.num_dbcs)]
    for item in problem.items:
        groups[placement[item].dbc].append(item)
    grouped = GroupedTrace(problem, groups)
    offsets = np.zeros(grouped.members.shape, dtype=np.int64)
    offsets[grouped.valid] = [
        placement[item].offset for group in groups for item in group
    ]
    as_placed = Layout(np.arange(grouped.k)[None, :], offsets)
    views["grouped_trace"] = tuple(price_layouts(grouped, [as_placed])[0].tolist())
    for engine, per_dbc in views.items():
        expected = tuple(
            per_dbc_reference.get(dbc, 0) for dbc in range(config.num_dbcs)
        )
        if per_dbc != expected:
            violations.append(
                Violation(
                    kind="engine_per_dbc_mismatch",
                    detail=(
                        f"{engine} per-DBC {list(per_dbc)} != reference "
                        f"{list(expected)}"
                    ),
                    data={
                        "engine": engine,
                        "per_dbc": list(per_dbc),
                        "reference": list(expected),
                    },
                )
            )
    if scalar.max_access_shifts != vectorized.max_access_shifts:
        violations.append(
            Violation(
                kind="engine_max_access_mismatch",
                detail=(
                    f"max access shifts: scalar {scalar.max_access_shifts} "
                    f"!= vectorized {vectorized.max_access_shifts}"
                ),
                data={
                    "scalar": int(scalar.max_access_shifts),
                    "vectorized": int(vectorized.max_access_shifts),
                },
            )
        )
    return violations


def check_round_trip(
    case: FuzzCase,
    problem: PlacementProblem,
    placement: Placement,
    mutation_ops: int = 8,
) -> list[Violation]:
    """Seeded mutation script through CostEvaluator apply/undo."""
    violations: list[Violation] = []
    rng = random.Random(case.seed ^ 0x5EED)
    evaluator = CostEvaluator(problem, placement)
    start_total = evaluator.total
    start_mapping = evaluator.placement().as_dict()
    items = list(problem.items)
    # From-scratch cross-checks are O(trace) each; keep them per-step on
    # small traces, final-state-only on long ones.
    check_every_step = len(problem.trace) <= 200
    applied = 0
    for _step in range(mutation_ops):
        kind = rng.choice(("swap", "move", "reversal"))
        if kind == "swap" and len(items) >= 2:
            left, right = rng.sample(items, 2)
            delta = evaluator.swap_delta(left, right)
            before = evaluator.total
            evaluator.apply_swap(left, right)
        elif kind == "move":
            free = sorted(evaluator.free_slots())
            if not free:
                continue
            item = rng.choice(items)
            slot = rng.choice(free)
            delta = evaluator.move_delta(item, slot)
            before = evaluator.total
            evaluator.apply_move(item, slot)
        elif kind == "reversal":
            used = evaluator.dbcs_used()
            if not used:
                continue
            dbc = rng.choice(sorted(used))
            offsets = sorted(evaluator.dbc_contents(dbc))
            delta = evaluator.reversal_delta(dbc, offsets)
            before = evaluator.total
            evaluator.apply_reversal(dbc, offsets)
        else:
            continue
        applied += 1
        if evaluator.total != before + delta:
            violations.append(
                Violation(
                    kind="delta_apply_mismatch",
                    detail=(
                        f"{kind} probe delta {delta} but applied total moved "
                        f"{evaluator.total - before}"
                    ),
                    data={"op": kind, "delta": delta},
                )
            )
            break
        if check_every_step:
            scratch = evaluate_placement(problem, evaluator.placement())
            if scratch != evaluator.total:
                violations.append(
                    Violation(
                        kind="incremental_total_drift",
                        detail=(
                            f"running total {evaluator.total} != scratch "
                            f"evaluation {scratch} after {kind}"
                        ),
                        data={
                            "op": kind,
                            "running": evaluator.total,
                            "scratch": scratch,
                        },
                    )
                )
                break
    if not violations and not check_every_step:
        scratch = evaluate_placement(problem, evaluator.placement())
        if scratch != evaluator.total:
            violations.append(
                Violation(
                    kind="incremental_total_drift",
                    detail=(
                        f"running total {evaluator.total} != scratch "
                        f"evaluation {scratch} after {applied} ops"
                    ),
                    data={"running": evaluator.total, "scratch": scratch},
                )
            )
    for _ in range(applied):
        evaluator.undo()
    if (
        evaluator.total != start_total
        or evaluator.placement().as_dict() != start_mapping
    ):
        violations.append(
            Violation(
                kind="undo_not_restored",
                detail=(
                    f"after undoing {applied} ops: total {evaluator.total} "
                    f"(expected {start_total}), mapping "
                    f"{'differs' if evaluator.placement().as_dict() != start_mapping else 'matches'}"
                ),
                data={"total": evaluator.total, "expected": start_total},
            )
        )
    violations.extend(_check_refinement_parity(case, problem, placement))
    return violations


#: The refiners' default ``max_evaluations``.
_DEFAULT_REFINE_BUDGET = 20000


def _check_refinement_parity(
    case: FuzzCase, problem: PlacementProblem, placement: Placement
) -> list[Violation]:
    """``swap_refinement`` / ``two_opt_refinement`` on the active tier must
    equal the numpy tier's single-probe scan.

    Each refiner's pass (:meth:`CostEvaluator.swap_pass`, compiled on the
    cc tier) runs against :meth:`~CostEvaluator.scan_swaps` (the scan the
    numpy tier runs) from the same start, at a budget that usually ends in
    the first pass and at the default budget: placement, total and
    ``delta_evaluations`` must agree, and the total must be the
    placement's true cost.  Half the cases add an untraced placement
    entry on a free slot (possibly on a DBC no traced item uses).
    """
    rng = random.Random(case.seed ^ 0x2097)
    config = problem.config
    mapping = dict(placement.as_dict())
    taken = set(mapping.values())
    free = [
        slot
        for slot in itertools.product(
            range(config.num_dbcs), range(config.words_per_dbc)
        )
        if slot not in taken
    ]
    if free and rng.random() < 0.5:
        untraced = "untraced"
        while untraced in mapping:
            untraced += "_"
        mapping[untraced] = rng.choice(free)
    start = Placement(mapping)
    num_items = len(problem.items)
    mid_pass = 2 + rng.randrange(num_items * (num_items - 1) // 2 + 1)
    refiners = (
        ("swap", CostEvaluator.swap_pass, CostEvaluator.scan_swaps),
        ("two_opt", CostEvaluator.reversal_pass, CostEvaluator.scan_reversals),
    )
    for budget in (mid_pass, _DEFAULT_REFINE_BUDGET):
        for name, refine, scan in refiners:
            refined = CostEvaluator(problem, start)
            reference = CostEvaluator(problem, start)
            refine(refined, 3, budget)
            scan(reference, 3, budget)
            got, want = (
                (e.placement(), e.total, e.delta_evaluations)
                for e in (refined, reference)
            )
            true_cost = evaluate_placement(problem, got[0], validate=False)
            if got != want or got[1] != true_cost:
                return [
                    Violation(
                        kind="refinement_mismatch",
                        detail=(
                            f"{name} pass at budget {budget}: total {got[1]} "
                            f"(true cost {true_cost}) after "
                            f"{got[2]} probes, single-probe scan {want[1]} "
                            f"after {want[2]}"
                            + ("" if got[0] == want[0] else ", placements differ")
                        ),
                        data={
                            "refiner": name,
                            "budget": budget,
                            "total": got[1],
                            "true_cost": true_cost,
                            "scan_total": want[1],
                            "probes": got[2],
                            "scan_probes": want[2],
                        },
                    )
                ]
    return []


def check_bounds(
    case: FuzzCase,
    problem: PlacementProblem,
    placement: Placement,
    brute_force_limit: int = DEFAULT_BRUTE_FORCE_LIMIT,
) -> list[Violation]:
    """lower bound ≤ optimum ≤ evaluated cost; exact methods hit optimum."""
    violations: list[Violation] = []
    lower = shift_lower_bound(problem)
    cost = evaluate_placement(problem, placement)
    if lower > cost:
        violations.append(
            Violation(
                kind="lower_bound_exceeds_cost",
                detail=f"shift_lower_bound {lower} > evaluated cost {cost}",
                data={"lower_bound": lower, "cost": cost},
            )
        )
    optimum = brute_force_optimum(problem, brute_force_limit)
    if optimum is None:
        return violations
    if lower > optimum:
        violations.append(
            Violation(
                kind="lower_bound_unsound",
                detail=f"shift_lower_bound {lower} > true optimum {optimum}",
                data={"lower_bound": lower, "optimum": optimum},
            )
        )
    if cost < optimum:
        violations.append(
            Violation(
                kind="cost_below_optimum",
                detail=(
                    f"evaluated cost {cost} < brute-force optimum {optimum} "
                    "(reference evaluator disagrees with itself)"
                ),
                data={"cost": cost, "optimum": optimum},
            )
        )
    config = problem.config
    if problem.num_items <= EXACT_ORACLE_MAX_ITEMS and exhaustive_search_is_exact(
        config, problem.num_items
    ):
        exact_cost = evaluate_placement(
            problem, ALGORITHMS["exact"](problem)
        )
        if exact_cost != optimum:
            violations.append(
                Violation(
                    kind="exact_method_suboptimal",
                    detail=(
                        f"exact method cost {exact_cost} != brute-force "
                        f"optimum {optimum}"
                    ),
                    data={"exact": exact_cost, "optimum": optimum},
                )
            )
    return violations


def check_method_quality(
    case: FuzzCase,
    problem: PlacementProblem,
    placement: Placement,
) -> list[Violation]:
    """Guarded methods must never price worse than the paper heuristic.

    ``shiftsreduce`` and ``generalized`` keep the heuristic's placement in
    their candidate set, so any case where they return a more expensive
    placement is a real solver bug (broken candidate evaluation, lost
    candidate, nondeterministic selection) — the "solver returns
    worse-than-heuristic placement" violation class.
    """
    if case.method not in GUARDED_METHODS:
        return []
    from repro.core.heuristic import heuristic_placement

    cost = evaluate_placement(problem, placement, validate=False)
    heuristic_cost = evaluate_placement(
        problem, heuristic_placement(problem), validate=False
    )
    if cost > heuristic_cost:
        return [
            Violation(
                kind="method_worse_than_heuristic",
                detail=(
                    f"{case.method} cost {cost} > heuristic cost "
                    f"{heuristic_cost} despite the heuristic guard candidate"
                ),
                data={
                    "method": case.method,
                    "cost": cost,
                    "heuristic": heuristic_cost,
                },
            )
        ]
    return []


def check_ilp_solver(
    case: FuzzCase,
    problem: PlacementProblem,
) -> list[Violation]:
    """The MinLA solver chain must certify the true optimum on tiny instances.

    Runs :func:`repro.core.cpsat.solve_minla` (CP-SAT when the optional
    ortools dependency is installed, the subset DP otherwise) against the
    independent DP optimum, and re-prices the returned order to catch
    solutions whose claimed cost disagrees with their own arrangement.
    """
    if problem.num_items > ILP_ORACLE_MAX_ITEMS:
        return []
    from repro.core.cost import linear_arrangement_cost
    from repro.core.cpsat import solve_minla
    from repro.core.exact import minla_optimal_cost

    violations: list[Violation] = []
    items = list(problem.items)
    affinity = problem.affinity
    solution = solve_minla(items, affinity)
    reference = minla_optimal_cost(items, affinity)
    if not solution.certified:
        violations.append(
            Violation(
                kind="ilp_solver_uncertified",
                detail=(
                    f"{solution.backend} backend failed to certify a "
                    f"{len(items)}-item instance"
                ),
                data={"backend": solution.backend, "items": len(items)},
            )
        )
    if solution.cost != reference:
        violations.append(
            Violation(
                kind="ilp_solver_suboptimal",
                detail=(
                    f"{solution.backend} backend cost {solution.cost} != "
                    f"DP optimum {reference}"
                ),
                data={
                    "backend": solution.backend,
                    "cost": solution.cost,
                    "optimum": reference,
                },
            )
        )
    repriced = linear_arrangement_cost(list(solution.order), affinity)
    if repriced != solution.cost:
        violations.append(
            Violation(
                kind="ilp_solution_inconsistent",
                detail=(
                    f"{solution.backend} order re-prices to {repriced}, "
                    f"solver claimed {solution.cost}"
                ),
                data={
                    "backend": solution.backend,
                    "claimed": solution.cost,
                    "repriced": repriced,
                },
            )
        )
    return violations


def check_cache_equivalence(case: FuzzCase) -> list[Violation]:
    """A warm placement-cache hit must replay the cold result exactly."""
    violations: list[Violation] = []
    trace, config = case.trace(), case.config()
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as tmp:
        with cache_scope(enabled=True, root=tmp):
            cold = optimize_placement(
                trace, config, method=case.method, **case.method_kwargs
            )
            warm = optimize_placement(
                trace, config, method=case.method, **case.method_kwargs
            )
    if warm.details.get("cache") != "hit":
        violations.append(
            Violation(
                kind="cache_miss_on_replay",
                detail=(
                    "second optimize_placement call was not served from the "
                    f"placement cache (details: {warm.details.get('cache')!r})"
                ),
                data={"cache": str(warm.details.get("cache"))},
            )
        )
    if (
        cold.total_shifts != warm.total_shifts
        or cold.placement.as_dict() != warm.placement.as_dict()
    ):
        violations.append(
            Violation(
                kind="cache_hit_mismatch",
                detail=(
                    f"cache hit returned {warm.total_shifts} shifts, cold "
                    f"run computed {cold.total_shifts}"
                ),
                data={"cold": cold.total_shifts, "warm": warm.total_shifts},
            )
        )
    return violations


def check_fault_determinism(
    case: FuzzCase,
    problem: PlacementProblem,
    placement: Placement,
) -> list[Violation]:
    """Fault injection is a pure, engine-independent function of its seed."""
    violations: list[Violation] = []
    trace, config = problem.trace, problem.config
    model = FaultModel(
        shift_error_rate=0.02, check_interval=8, seed=case.seed % 997
    )
    seed_a = injection_seed(model, trace, config)
    seed_b = injection_seed(model, trace, config)
    if seed_a != seed_b:
        violations.append(
            Violation(
                kind="injection_seed_unstable",
                detail=f"injection_seed returned {seed_a} then {seed_b}",
                data={"first": seed_a, "second": seed_b},
            )
        )
    dbc_seq, cost_seq = per_access_costs(trace, config, placement)
    report_a = run_injection(dbc_seq, cost_seq, config.num_dbcs, model, seed_a)
    report_b = run_injection(dbc_seq, cost_seq, config.num_dbcs, model, seed_a)
    if report_a != report_b:
        violations.append(
            Violation(
                kind="fault_injection_nondeterministic",
                detail="run_injection differed across two identical runs",
                data={},
            )
        )
    spm = ScratchpadMemory(config, placement)
    scalar = spm.simulate(trace, engine="scalar", fault_model=model)
    vectorized = spm.simulate(trace, engine="vectorized", fault_model=model)
    if scalar.details.get("faults") != vectorized.details.get("faults"):
        violations.append(
            Violation(
                kind="fault_report_engine_mismatch",
                detail="fault reports differ between scalar and vectorized",
                data={
                    "scalar": scalar.details.get("faults"),
                    "vectorized": vectorized.details.get("faults"),
                },
            )
        )
    return violations


#: Access-chain length exercised by the kernel-parity oracle.
KERNEL_PARITY_MAX_ACCESSES = 256


def check_kernel_parity(
    case: FuzzCase,
    problem: PlacementProblem,
    placement: Placement,
) -> list[Violation]:
    """Every available lazy-walk tier must match the numpy reference exactly.

    The tiers are the numpy tier (always) and the cc kernel (when it is the
    active tier); the reference is :func:`multi_port_access_costs_numpy`,
    the Hillis–Steele scan, which neither tier uses for one or two ports.
    Exercises a seeded random offset chain against one-, two- and
    three-port sets and the case's own port geometry, plus the chain-walk
    and merge-walk entry points against a from-scratch evaluation of the
    same (sub)chains, and the interleaved ``lazy_scan`` (carried and
    conditioned, over ``.rtb`` records) against the reference per DBC
    group of the case's own trace and placement.
    """
    tiers = [kernels.NumpyKernels()]
    if kernels.backend_name() == "cc":
        tiers.append(kernels.active())
    violations: list[Violation] = []
    for tier in tiers:
        violations.extend(_check_tier_parity(case, problem, placement, tier))
    if len(tiers) > 1:
        layout = _check_layout_parity(problem, *tiers)
        violations.extend(layout)
        # The chain-and-cut chain is the greedy_chains entry point: a split
        # there is reported once, as a layout mismatch.
        if not layout:
            violations.extend(_check_grouping_parity(problem, *tiers))
    return violations


def _check_grouping_parity(problem, reference, tier) -> list[Violation]:
    """``tier`` must build the same greedy, refined and chain-and-cut
    groupings of the case's problem as ``reference`` (the numpy tier's
    int-coded loops), member for member and in order."""
    mismatched = [
        part
        for part, build in (
            ("greedy", greedy_min_affinity_grouping),
            ("refined", min_affinity_groups),
            ("chain-and-cut", chain_and_cut_groups),
        )
        if build(problem, reference) != build(problem, tier)
    ]
    if not mismatched:
        return []
    return [
        Violation(
            kind="grouping_mismatch",
            detail=(
                f"{tier.name} and {reference.name} group differently: "
                f"{', '.join(mismatched)}"
            ),
            data={"backend": tier.name, "parts": mismatched},
        )
    ]


def _check_layout_parity(problem, reference, tier) -> list[Violation]:
    """On every portfolio grouping of the case's problem, ``tier`` must
    build the same greedy and bidirectional chains as ``reference`` (the
    numpy tier's int-coded loops) and price every candidate layout of the
    three families to the same ``(C, G)`` cost table."""
    violations: list[Violation] = []
    for index, groups in enumerate(grouping_portfolio(problem)):
        view = GroupedTrace(problem, groups)
        mismatched = []
        greedy = (*view.chain_edges, view.sizes, view.k)
        bidirectional = (view.pairs, view.sizes, view.freq)
        if not np.array_equal(
            reference.greedy_chains(*greedy), tier.greedy_chains(*greedy)
        ):
            mismatched.append("greedy chains")
        if not np.array_equal(
            reference.bidirectional_chains(*bidirectional),
            tier.bidirectional_chains(*bidirectional),
        ):
            mismatched.append("bidirectional chains")
        if not mismatched:
            families = (heuristic_layouts, bidirectional_layouts, port_aware_layouts)
            layouts = [layout for family in families for layout in family(view)]
            if not np.array_equal(
                price_layouts(view, layouts, reference),
                price_layouts(view, layouts, tier),
            ):
                mismatched.append("candidate cost tables")
        if mismatched:
            violations.append(
                Violation(
                    kind="layout_mismatch",
                    detail=(
                        f"{tier.name} and {reference.name} differ on grouping "
                        f"{index}: {', '.join(mismatched)}"
                    ),
                    data={"backend": tier.name, "grouping": index, "parts": mismatched},
                )
            )
    return violations


def _check_tier_parity(case, problem, placement, tier) -> list[Violation]:
    violations: list[Violation] = []
    rng = np.random.default_rng(case.seed ^ 0xC0DE)
    config = problem.config
    length = config.words_per_dbc
    n = int(rng.integers(1, KERNEL_PARITY_MAX_ACCESSES + 1))
    offsets = rng.integers(0, length, size=n, dtype=np.int64)
    port_sets = {(0,), tuple(config.port_offsets)}
    if length >= 2:
        port_sets.add((0, length - 1))
    if length >= 3:
        port_sets.add((0, length // 2, length - 1))
    for ports in sorted(port_sets):
        violations.extend(_check_scan_parity(problem, placement, tier, ports, rng))
        ports_arr = np.asarray(ports, dtype=np.int64)
        reference = multi_port_access_costs_numpy(offsets, ports_arr)
        tier_costs = tier.lazy_costs(offsets, ports_arr)
        if not np.array_equal(reference, tier_costs):
            bad = int(np.argmax(reference != tier_costs))
            violations.append(
                Violation(
                    kind="kernel_costs_mismatch",
                    detail=(
                        f"{tier.name} lazy_costs diverges from the numpy "
                        f"reference at access {bad} (ports {list(ports)}): "
                        f"{int(tier_costs[bad])} != {int(reference[bad])}"
                    ),
                    data={
                        "backend": tier.name,
                        "ports": list(ports),
                        "index": bad,
                    },
                )
            )
            continue
        # Chain walk: identity item mapping makes offsets[positions] the
        # chain the tier should gather and price.
        item_at = np.arange(n, dtype=np.int64)
        keep = rng.random(n) < 0.7
        positions = np.flatnonzero(keep).astype(np.int64)
        chain_ref = (
            int(multi_port_access_costs_numpy(offsets[positions], ports_arr).sum())
            if positions.size
            else 0
        )
        chain_got = tier.lazy_chain_cost(positions, item_at, offsets, ports_arr)
        if chain_got != chain_ref:
            violations.append(
                Violation(
                    kind="kernel_chain_mismatch",
                    detail=(
                        f"{tier.name} lazy_chain_cost "
                        f"{chain_got} != numpy reference {chain_ref} "
                        f"(ports {list(ports)}, {positions.size} accesses)"
                    ),
                    data={
                        "backend": tier.name,
                        "ports": list(ports),
                        "got": int(chain_got),
                        "reference": chain_ref,
                    },
                )
            )
        # Merge walk: (base \ skip) ∪ add, all ascending and disjoint.
        base = positions
        skip = base[rng.random(base.size) < 0.3] if base.size else base
        others = np.flatnonzero(~keep).astype(np.int64)
        add = others[rng.random(others.size) < 0.5] if others.size else others
        merged = np.union1d(np.setdiff1d(base, skip), add).astype(np.int64)
        merge_ref = (
            int(multi_port_access_costs_numpy(offsets[merged], ports_arr).sum())
            if merged.size
            else 0
        )
        merge_got = tier.lazy_merge_cost(
            base, skip, add, item_at, offsets, ports_arr
        )
        if merge_got != merge_ref:
            violations.append(
                Violation(
                    kind="kernel_merge_mismatch",
                    detail=(
                        f"{tier.name} lazy_merge_cost "
                        f"{merge_got} != numpy reference {merge_ref} "
                        f"(ports {list(ports)}, {merged.size} accesses)"
                    ),
                    data={
                        "backend": tier.name,
                        "ports": list(ports),
                        "got": int(merge_got),
                        "reference": merge_ref,
                    },
                )
            )
    return violations


def _check_scan_parity(problem, placement, tier, ports, rng) -> list[Violation]:
    """``lazy_scan`` on the case's own trace, read as uint32 records with
    random write bits and split into two windows, against the reference
    per DBC group: carried per-access costs and exit totals, and the
    conditioned lane a fresh head selects."""
    from repro.memory.batch_sim import slot_arrays

    item_at = problem.item_at
    num_dbcs = problem.config.num_dbcs
    dbc_of, offset_of = slot_arrays(problem.items, placement)
    is_write = rng.random(item_at.size) < 0.3
    records = item_at.astype(np.uint32) | (is_write.astype(np.uint32) << 31)
    cut = int(rng.integers(0, item_at.size + 1))
    ports_arr = np.asarray(ports, dtype=np.int64)
    carried = kernels.ScanState(num_dbcs)
    lanes = kernels.ScanState(num_dbcs, len(ports))
    costs = np.empty(item_at.size, dtype=np.int64)
    writes = 0
    for low, high in ((0, cut), (cut, item_at.size)):
        window = records[low:high]
        writes += tier.lazy_scan(
            window, dbc_of, offset_of, ports_arr, carried, costs[low:high]
        )
        tier.lazy_scan(window, dbc_of, offset_of, ports_arr, lanes)
    problems = []
    if writes != int(is_write.sum()):
        problems.append(f"counted {writes} writes, records hold {is_write.sum()}")
    dbc_seq = dbc_of[item_at]
    for d in range(num_dbcs):
        positions = np.flatnonzero(dbc_seq == d)
        if not positions.size:
            if lanes.counts[d]:
                problems.append(f"DBC {d} counted accesses it never had")
            continue
        seq = offset_of[item_at[positions]]
        reference = multi_port_access_costs_numpy(seq, ports_arr)
        if not np.array_equal(costs[positions], reference):
            problems.append(f"DBC {d} carried per-access costs differ")
        if carried.totals[d] != reference.sum() or carried.maxes[d] != reference.max():
            problems.append(f"DBC {d} carried total/max differ")
        first_cost, port, _head = port_access_cost(int(seq[0]), 0, ports)
        lane = ports.index(port)
        if lanes.first[d] != seq[0] or lanes.counts[d] != seq.size:
            problems.append(f"DBC {d} conditioned first offset/count differ")
        elif first_cost + lanes.totals[d, lane] != reference.sum():
            problems.append(f"DBC {d} conditioned lane {lane} total differs")
    if not problems:
        return []
    return [
        Violation(
            kind="kernel_scan_mismatch",
            detail=(
                f"{tier.name} lazy_scan (ports {list(ports)}, windows split "
                f"at {cut}): {problems[0]}"
            ),
            data={"backend": tier.name, "ports": list(ports), "problems": problems},
        )
    ]


def check_streaming_agreement(
    case: FuzzCase,
    problem: PlacementProblem,
    placement: Placement,
) -> list[Violation]:
    """Streaming engine must be bit-identical to the vectorized engine.

    Sweeps chunk sizes covering the degenerate corners — one access per
    chunk, a seeded random interior size, and a single chunk larger than
    the trace — and runs each size through both scan paths: the
    sequential head-carrying fold and the ChunkState map+merge stitch
    (the path the pool workers execute).
    """
    from repro.memory.batch_sim import simulate_vectorized
    from repro.memory.stream_sim import simulate_streaming

    violations: list[Violation] = []
    trace, config = problem.trace, problem.config
    reference = simulate_vectorized(trace, config, placement, validate=False)
    rng = random.Random(case.seed ^ 0x57BEA)
    total = len(trace)
    chunk_sizes = sorted({1, rng.randint(1, max(1, total)), total + 7})
    for chunk_size in chunk_sizes:
        for force_merge in (False, True):
            result = simulate_streaming(
                trace,
                config,
                placement,
                chunk_size=chunk_size,
                validate=False,
                force_merge=force_merge,
            )
            mode = result.details["mode"]
            mismatches = []
            if result.shifts != reference.shifts:
                mismatches.append(
                    f"total {result.shifts} != {reference.shifts}"
                )
            if result.per_dbc_shifts != reference.per_dbc_shifts:
                mismatches.append(
                    f"per-DBC {list(result.per_dbc_shifts)} != "
                    f"{list(reference.per_dbc_shifts)}"
                )
            if result.max_access_shifts != reference.max_access_shifts:
                mismatches.append(
                    f"max-access {result.max_access_shifts} != "
                    f"{reference.max_access_shifts}"
                )
            if (result.reads, result.writes) != (
                reference.reads,
                reference.writes,
            ):
                mismatches.append("read/write counts differ")
            if mismatches:
                violations.append(
                    Violation(
                        kind="streaming_engine_mismatch",
                        detail=(
                            f"streaming ({mode}, chunk_size={chunk_size}) "
                            f"diverges from vectorized: "
                            + "; ".join(mismatches)
                        ),
                        data={
                            "chunk_size": chunk_size,
                            "mode": mode,
                            "shifts": int(result.shifts),
                            "reference": int(reference.shifts),
                        },
                    )
                )
    return violations


def check_case(
    case: FuzzCase,
    brute_force_limit: int = DEFAULT_BRUTE_FORCE_LIMIT,
    mutation_ops: int = 8,
) -> list[Violation]:
    """Run every oracle family on ``case``; return all violations found."""
    violations: list[Violation] = []
    try:
        problem, placement = build_placement(case)
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        return [
            Violation(
                kind="crash:build",
                detail=f"{type(exc).__name__}: {exc}",
                data={"stage": "build"},
            )
        ]
    try:
        placement.validate(problem.config, problem.items)
    except Exception as exc:  # noqa: BLE001
        return [
            Violation(
                kind="method_invalid_placement",
                detail=f"{case.method} produced an invalid placement: {exc}",
                data={"method": case.method},
            )
        ]
    checks = (
        ("engines", lambda: check_engine_agreement(case, problem, placement)),
        ("round_trip", lambda: check_round_trip(case, problem, placement, mutation_ops)),
        (
            "bounds",
            lambda: check_bounds(case, problem, placement, brute_force_limit),
        ),
        (
            "quality",
            lambda: check_method_quality(case, problem, placement),
        ),
        ("ilp", lambda: check_ilp_solver(case, problem)),
        ("cache", lambda: check_cache_equivalence(case)),
        (
            "faults",
            lambda: check_fault_determinism(case, problem, placement),
        ),
        (
            "kernels",
            lambda: check_kernel_parity(case, problem, placement),
        ),
        (
            "streaming",
            lambda: check_streaming_agreement(case, problem, placement),
        ),
    )
    for name, run in checks:
        try:
            violations.extend(run())
        except Exception as exc:  # noqa: BLE001 - crashes are findings too
            violations.append(
                Violation(
                    kind=f"crash:{name}",
                    detail=f"{type(exc).__name__}: {exc}",
                    data={"stage": name},
                )
            )
    return violations
