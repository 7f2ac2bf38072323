"""Golden pin of the local-search trajectory.

``tests/golden/local_search_v1.json`` holds the placements that
``heuristic+ls`` produces on six suite kernels (1-port lazy, 2-port lazy
and 2-port eager at three evaluation budgets), plus ``swap_refinement`` and
``two_opt_refinement`` runs from a random start on a 3-port lazy problem at
budgets that run out part-way through a candidate row.  Local search
accepts the first improving move in a fixed candidate order and deltas are
exact integers, so any change to how candidates are priced must reproduce
these placements slot for slot.

Regenerate (only when the trajectory is meant to change)::

    PYTHONPATH=src python tests/test_local_search_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.api import build_problem, plan_placement
from repro.core.baselines import random_placement
from repro.core.cost import evaluate_placement
from repro.core.local_search import swap_refinement, two_opt_refinement
from repro.dwm.config import DWMConfig
from repro.trace.kernels import KERNELS
from repro.trace.synthetic import markov_trace

GOLDEN = Path(__file__).parent / "golden" / "local_search_v1.json"

KERNEL_NAMES = ("histogram", "transpose", "crc32", "fir", "quicksort", "insertion_sort")
KERNEL_GEOMETRIES = ((1, "lazy"), (2, "lazy"), (2, "eager"))
KERNEL_BUDGETS = (1, 600, 5000)
#: Budgets for the random-start runs; all but the last end mid-row.
RANDOM_BUDGETS = (7, 50, 333, 20000)
REFINERS = {"swap": swap_refinement, "two_opt": two_opt_refinement}


def _kernel_problem(name, ports, policy):
    trace = KERNELS[name]()
    config = DWMConfig.for_items(
        trace.num_items, words_per_dbc=16, num_ports=ports, port_policy=policy
    )
    return build_problem(trace, config)


def _random_problem():
    # 21 items on 8-word DBCs: three DBCs, the last with three free slots.
    trace = markov_trace(21, 600, locality=0.7, seed=2015, write_fraction=0.2)
    config = DWMConfig.for_items(
        trace.num_items, words_per_dbc=8, num_ports=3, port_policy="lazy"
    )
    return build_problem(trace, config)


def _case_ids() -> list[str]:
    ids = [
        f"heuristic+ls/{name}/{ports}p-{policy}/{budget}"
        for name in KERNEL_NAMES
        for ports, policy in KERNEL_GEOMETRIES
        for budget in KERNEL_BUDGETS
    ]
    ids += [
        f"{refiner}/markov21/3p-lazy/{budget}"
        for refiner in REFINERS
        for budget in RANDOM_BUDGETS
    ]
    return ids


def _run(case_id: str):
    """(problem, placement) of one golden case."""
    method, name, geometry, budget = case_id.split("/")
    if method == "heuristic+ls":
        ports, policy = geometry.split("p-")
        problem = _kernel_problem(name, int(ports), policy)
        plan = plan_placement(problem, method, max_evaluations=int(budget))
        return problem, plan.placement
    problem = _random_problem()
    start = random_placement(problem, seed=3)
    return problem, REFINERS[method](problem, start, max_evaluations=int(budget))


def _record(problem, placement) -> dict:
    return {
        "shifts": evaluate_placement(problem, placement),
        "slots": [
            [placement[item].dbc, placement[item].offset]
            for item in sorted(problem.items)
        ],
    }


def _load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _tiered_cases() -> list:
    """Every case on the active tier; the random-start refiner runs also on
    the forced numpy tier (``REPRO_KERNEL=numpy``, id suffix ``-numpy``), so
    a split between the compiled pass and the single-probe scan fails here."""
    params = []
    for case_id in _case_ids():
        params.append(pytest.param(case_id, "active", id=case_id))
        if not case_id.startswith("heuristic+ls/"):
            params.append(pytest.param(case_id, "numpy", id=f"{case_id}-numpy"))
    return params


@pytest.mark.parametrize(
    "case_id,kernel_tier", _tiered_cases(), indirect=["kernel_tier"]
)
def test_trajectory_matches_golden(case_id, kernel_tier):
    expected = _load()["cases"][case_id]
    assert _record(*_run(case_id)) == expected


def test_golden_covers_every_case():
    assert sorted(_load()["cases"]) == sorted(_case_ids())


def main() -> None:
    cases = {case_id: _record(*_run(case_id)) for case_id in _case_ids()}
    lines = [
        f"    {json.dumps(case_id)}: {json.dumps(record, separators=(',', ':'))}"
        for case_id, record in cases.items()
    ]
    GOLDEN.write_text(
        '{\n  "version": 1,\n  "cases": {\n'
        + ",\n".join(lines)
        + "\n  }\n}\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
