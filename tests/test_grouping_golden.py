"""Golden pin of the grouping phase.

``tests/golden/grouping_v1.json`` holds the groups that
``greedy_min_affinity_grouping`` and ``greedy_min_affinity_grouping`` +
``refine_grouping`` produce on the 17 suite kernels (kernel ``i`` built
with seed ``101 + i``) at 8, 16 and 32 words per DBC, and on eight
32-item markov+zipf traces shaped like perfbench's ``large`` workload at 8
words per DBC.  Both algorithms visit items in a fixed order and break
ties by a total key, so any change to how they price a group must
reproduce these groups member for member, in order.

Regenerate (only when the groupings are meant to change)::

    PYTHONPATH=src python tests/test_grouping_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.api import build_problem
from repro.core.grouping import greedy_min_affinity_grouping, refine_grouping
from repro.dwm.config import DWMConfig
from repro.trace.kernels import KERNELS
from repro.trace.model import AccessTrace
from repro.trace.synthetic import markov_trace, zipf_trace

GOLDEN = Path(__file__).parent / "golden" / "grouping_v1.json"

KERNEL_WORDS = (8, 16, 32)
LARGE_TRACES = 8


def _large_trace(index: int) -> AccessTrace:
    """Four 2,048-access phases over 32 items, markov and zipf alternating."""
    accesses = []
    base = (10 + index) * 7
    for phase in range(4):
        generator = markov_trace if phase % 2 == 0 else zipf_trace
        accesses.extend(generator(32, 2048, seed=base + phase))
    return AccessTrace(accesses, name=f"large{index}")


def _case_ids() -> list[str]:
    ids = [
        f"{name}/{words}" for name in KERNELS for words in KERNEL_WORDS
    ]
    ids += [f"large{index}/8" for index in range(LARGE_TRACES)]
    return ids


def _problem(case_id: str):
    name, words = case_id.split("/")
    if name in KERNELS:
        trace = KERNELS[name](seed=101 + list(KERNELS).index(name))
    else:
        trace = _large_trace(int(name.removeprefix("large")))
    config = DWMConfig.for_items(trace.num_items, words_per_dbc=int(words))
    return build_problem(trace, config)


def _record(problem) -> dict:
    greedy = greedy_min_affinity_grouping(problem)
    return {"greedy": greedy, "refined": refine_grouping(greedy, problem)}


def _load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case_id", _case_ids())
def test_grouping_matches_golden(case_id):
    expected = _load()["cases"][case_id]
    assert _record(_problem(case_id)) == expected


def test_golden_covers_every_case():
    assert sorted(_load()["cases"]) == sorted(_case_ids())


def main() -> None:
    cases = {case_id: _record(_problem(case_id)) for case_id in _case_ids()}
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
