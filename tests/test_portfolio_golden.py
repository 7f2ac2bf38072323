"""Golden pin of the portfolio methods' placements.

``tests/golden/portfolio_v1.json`` holds the placements that
``heuristic``, ``shiftsreduce`` and ``generalized`` produce on the 17
suite kernels (kernel ``i`` built with seed ``101 + i``, 16 words per DBC)
at 1-port lazy, 2-port lazy and 2-port eager, and on the eight 32-item
``large``-shaped traces of ``tests/test_grouping_golden.py`` (8 words per
DBC) at 1- and 2-port lazy.  Each case stores the total shift count and
every item's slot index ``dbc * L + offset``, in ``problem.items`` order.
All three methods break cost ties by a fixed candidate order, so any
change to how they lay out or select candidates must reproduce these
placements slot for slot.

Regenerate (only when the placements are meant to change)::

    PYTHONPATH=src python -m tests.test_portfolio_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.api import build_problem
from repro.core.cost import evaluate_placement
from repro.core.generalized import generalized_placement
from repro.core.heuristic import heuristic_placement
from repro.core.shiftsreduce import shiftsreduce_placement
from repro.dwm.config import DWMConfig
from repro.trace.kernels import KERNELS
from tests.test_grouping_golden import LARGE_TRACES, _large_trace

GOLDEN = Path(__file__).parent / "golden" / "portfolio_v1.json"

METHODS = {
    "heuristic": heuristic_placement,
    "shiftsreduce": shiftsreduce_placement,
    "generalized": generalized_placement,
}
KERNEL_GEOMETRIES = ("1p-lazy", "2p-lazy", "2p-eager")
LARGE_GEOMETRIES = ("1p-lazy", "2p-lazy")


def _case_ids() -> list[str]:
    ids = [
        f"{method}/{name}/{geometry}"
        for method in METHODS
        for name in KERNELS
        for geometry in KERNEL_GEOMETRIES
    ]
    ids += [
        f"{method}/large{index}/{geometry}"
        for method in METHODS
        for index in range(LARGE_TRACES)
        for geometry in LARGE_GEOMETRIES
    ]
    return ids


def _problem(name: str, geometry: str):
    ports, policy = geometry.split("p-")
    if name in KERNELS:
        trace = KERNELS[name](seed=101 + list(KERNELS).index(name))
        words = 16
    else:
        trace = _large_trace(int(name.removeprefix("large")))
        words = 8
    config = DWMConfig.for_items(
        trace.num_items,
        words_per_dbc=words,
        num_ports=int(ports),
        port_policy=policy,
    )
    return build_problem(trace, config)


def _record(case_id: str) -> dict:
    method, name, geometry = case_id.split("/")
    problem = _problem(name, geometry)
    placement = METHODS[method](problem)
    length = problem.config.words_per_dbc
    return {
        "shifts": evaluate_placement(problem, placement),
        "slots": [
            placement[item].dbc * length + placement[item].offset
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
