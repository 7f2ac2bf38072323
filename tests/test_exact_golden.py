"""Golden pin of the exact solvers' placements.

``tests/golden/exact_v1.json`` holds the placements of the single-DBC
MinLA DP (``exact_single_dbc_placement``), the set-partition DP
(``exact_partitioned_placement``, port at offset 0 and an interior port)
and the brute force (``exhaustive_placement``, 1, 2 and 3 ports, lazy and
eager), each called directly (``direct``) and through the ``exact``
method's dispatch (``dispatch``).  Each case stores the total shift count
and every item's slot index ``dbc * L + offset``, in ``problem.items``
order.  Every solver keeps the first cheapest candidate of a fixed
enumeration, so any change to how they enumerate or price candidates must
reproduce these placements slot for slot.

Regenerate (only when the placements are meant to change)::

    PYTHONPATH=src python -m tests.test_exact_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.api import ALGORITHMS, build_problem
from repro.core.cost import evaluate_placement
from repro.core.exact import (
    exact_partitioned_placement,
    exact_single_dbc_placement,
    exhaustive_placement,
)
from repro.dwm.config import DWMConfig
from repro.trace.synthetic import markov_trace, zipf_trace

GOLDEN = Path(__file__).parent / "golden" / "exact_v1.json"

#: name → (solver, trace, words per DBC, DBCs, ports, policy).
CASES = {
    "single-dp/port0": (
        exact_single_dbc_placement, markov_trace(10, 200, locality=0.7, seed=31),
        12, 1, (0,), "lazy",
    ),
    "single-dp/port5": (
        exact_single_dbc_placement, zipf_trace(9, 160, seed=32),
        11, 1, (5,), "lazy",
    ),
    "partition/port0": (
        exact_partitioned_placement, markov_trace(8, 150, locality=0.8, seed=33),
        3, 4, (0,), "lazy",
    ),
    "partition/port2": (
        exact_partitioned_placement, markov_trace(8, 150, locality=0.6, seed=34),
        4, 3, (2,), "lazy",
    ),
    "brute/1p-lazy": (
        exhaustive_placement, markov_trace(6, 120, locality=0.7, seed=35),
        4, 2, (1,), "lazy",
    ),
    "brute/2p-lazy": (
        exhaustive_placement, markov_trace(6, 120, locality=0.7, seed=36),
        6, 2, (1, 4), "lazy",
    ),
    "brute/3p-lazy": (
        exhaustive_placement, zipf_trace(7, 120, seed=37),
        5, 2, (0, 2, 4), "lazy",
    ),
    "brute/1p-eager": (
        exhaustive_placement, markov_trace(6, 120, locality=0.7, seed=38),
        4, 2, (1,), "eager",
    ),
    "brute/2p-eager": (
        exhaustive_placement, zipf_trace(6, 120, seed=39),
        6, 2, (1, 4), "eager",
    ),
    "brute/3p-eager": (
        exhaustive_placement, markov_trace(7, 120, locality=0.5, seed=40),
        5, 2, (0, 2, 4), "eager",
    ),
}


def _case_ids() -> list[str]:
    return [f"{name}/{route}" for name in CASES for route in ("direct", "dispatch")]


def _record(case_id: str) -> dict:
    kind, geometry, route = case_id.split("/")
    solver, trace, words, dbcs, ports, policy = CASES[f"{kind}/{geometry}"]
    config = DWMConfig(
        words_per_dbc=words, num_dbcs=dbcs, port_offsets=ports, port_policy=policy
    )
    problem = build_problem(trace, config)
    placement = (solver if route == "direct" else ALGORITHMS["exact"])(problem)
    return {
        "shifts": evaluate_placement(problem, placement),
        "slots": [
            placement[item].dbc * words + placement[item].offset
            for item in problem.items
        ],
    }


def _load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case_id", _case_ids())
def test_placement_matches_golden(case_id):
    expected = _load()["cases"][case_id]
    assert _record(case_id) == expected


def test_golden_covers_every_case():
    assert sorted(_load()["cases"]) == sorted(_case_ids())


def main() -> None:
    cases = {case_id: _record(case_id) for case_id in _case_ids()}
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
