"""Unit tests for the ILP formulation (repro.core.ilp).

The formulation is checked on the exported text itself:
:func:`check_formulation` parses the CPLEX LP that
:func:`~repro.core.ilp.minla_lp_text` writes, plugs in the tight
assignment of every permutation, and asserts that every row and bound
holds, that no distance variable can drop below its tight value, and that
the minimum objective equals the subset-DP optimum.

``tests/golden/ilp_export_v1.json`` pins the exported CPLEX LP text byte
for byte on small markov instances, a one-item trace and two suite
kernels (the kernels by sha256).  Regenerate (only when the export format
is meant to change)::

    PYTHONPATH=src python tests/test_ilp.py
"""

import hashlib
import itertools
import json
import re
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core.cost import linear_arrangement_cost
from repro.core.exact import minla_optimal_cost
from repro.core.ilp import minla_lp_text
from repro.errors import OptimizationError
from repro.trace.io import save as save_trace
from repro.trace.kernels import benchmark_suite
from repro.trace.model import AccessTrace
from repro.trace.stats import affinity_graph
from repro.trace.synthetic import markov_trace

GOLDEN = Path(__file__).parent / "golden" / "ilp_export_v1.json"

#: Golden cases stored by sha256 rather than full text (hundreds of kB).
HASHED_KERNELS = ("fir", "histogram")

_TERM = re.compile(r"([+-]) (?:(\S+) )?([A-Za-z_]\w*)")


def _parse_expr(text: str) -> dict[str, float]:
    """``{var: coef}`` of one rendered LP expression (``0`` = empty)."""
    if text == "0":
        return {}
    terms: dict[str, float] = {}
    signed = text if text.startswith("- ") else f"+ {text}"
    for sign, magnitude, name in _TERM.findall(signed):
        value = float(magnitude) if magnitude else 1.0
        terms[name] = terms.get(name, 0.0) + (value if sign == "+" else -value)
    return terms


def parse_lp(text: str) -> dict:
    """Objective, rows, bounds and binaries of an exported LP model."""
    model: dict = {"objective": {}, "rows": {}, "bounds": {}, "binaries": []}
    section = None
    for line in text.splitlines():
        if not line.startswith(" "):
            section = line
            continue
        line = line.strip()
        if section == "Minimize":
            model["objective"] = _parse_expr(line.split(": ", 1)[1])
        elif section == "Subject To":
            name, body = line.split(": ", 1)
            expr, sense, rhs = re.fullmatch(r"(.*) (<=|>=|=) (\S+)", body).groups()
            model["rows"][name] = (_parse_expr(expr), sense, float(rhs))
        elif section == "Bounds":
            lower, name, upper = re.fullmatch(r"(\S+) <= (\S+) <= (\S+)", line).groups()
            model["bounds"][name] = (float(lower), float(upper))
        elif section == "Binary":
            model["binaries"].append(line)
    return model


def _violations(model: dict, assignment: dict[str, float]) -> list[str]:
    """Rows and bounds the assignment breaks (all variables must be set)."""
    broken = []
    for name, (terms, sense, rhs) in model["rows"].items():
        value = sum(coef * assignment[var] for var, coef in terms.items())
        holds = {"<=": value <= rhs, ">=": value >= rhs, "=": value == rhs}[sense]
        if not holds:
            broken.append(name)
    for name, (lower, upper) in model["bounds"].items():
        if not lower <= assignment[name] <= upper:
            broken.append(name)
    return broken


def _tight_assignment(model: dict, items: list[str], order) -> dict[str, float]:
    """``x`` from the order and ``d_a_b = |pos(a) − pos(b)|`` for every pair."""
    position = {item: k for k, item in enumerate(order)}
    assignment = {
        f"x_{i}_{k}": float(position[item] == k)
        for i, item in enumerate(items)
        for k in range(len(items))
    }
    for name in model["bounds"]:
        _, a, b = name.split("_")
        assignment[name] = float(
            abs(position[items[int(a)]] - position[items[int(b)]])
        )
    return assignment


def _objective(model: dict, assignment: dict[str, float]) -> float:
    return sum(coef * assignment[var] for var, coef in model["objective"].items())


def check_formulation(items, affinity) -> tuple[list[str], float]:
    """Verify the exported LP against the subset DP; return its optimum.

    For every permutation the tight assignment must satisfy every row and
    bound, and lowering any ``d`` below its tight value must break a row —
    so the LP's best objective over that order is the order's MinLA cost.
    The minimum over all orders must equal :func:`minla_optimal_cost`.
    Returns the first minimizing order and its objective.
    """
    items = list(items)
    model = parse_lp(minla_lp_text(items, affinity)[0])
    best: tuple[list[str], float] | None = None
    for order in itertools.permutations(items):
        assignment = _tight_assignment(model, items, order)
        assert set(assignment) == set(model["binaries"]) | set(model["bounds"])
        assert _violations(model, assignment) == [], order
        for name in model["bounds"]:
            loose = dict(assignment, **{name: assignment[name] - 1})
            assert _violations(model, loose), (order, name)
        value = _objective(model, assignment)
        if best is None or value < best[1]:
            best = (list(order), value)
    assert best is not None
    assert best[1] == minla_optimal_cost(items, affinity)
    return best


class TestModelStructure:
    @pytest.fixture
    def instance(self):
        items = ["a", "b", "c"]
        affinity = {("a", "b"): 2, ("b", "c"): 1}
        return items, affinity

    def test_variable_counts(self, instance):
        text, num_vars, _ = minla_lp_text(*instance)
        model = parse_lp(text)
        assert len(model["binaries"]) == 9  # n^2 assignment vars
        assert len(model["bounds"]) == 2  # one d per affinity pair
        assert num_vars == 11

    def test_constraint_counts(self, instance):
        text, _, num_constraints = minla_lp_text(*instance)
        # n item constraints + n position constraints + 2 per pair.
        assert num_constraints == len(parse_lp(text)["rows"]) == 3 + 3 + 2 * 2

    def test_empty_items_raise(self):
        with pytest.raises(OptimizationError):
            minla_lp_text([], {})


class TestLPExport:
    def test_lp_format_sections(self):
        text, _, _ = minla_lp_text(["a", "b"], {("a", "b"): 1})
        assert text.startswith("\\ dwm-placement-minla")
        for section in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
            assert section in text

    def test_lp_format_objective_mentions_d(self):
        text, _, _ = minla_lp_text(["a", "b"], {("a", "b"): 3})
        assert "3 d_0_1" in text


class TestAssignments:
    def test_assignment_is_feasible(self):
        items = ["a", "b", "c"]
        affinity = {("a", "b"): 2, ("a", "c"): 1}
        check_formulation(items, affinity)

    def test_objective_matches_arrangement_cost(self):
        items = ["a", "b", "c", "d"]
        affinity = {("a", "b"): 2, ("b", "d"): 3, ("a", "c"): 1}
        model = parse_lp(minla_lp_text(items, affinity)[0])
        for permutation in itertools.permutations(items):
            assignment = _tight_assignment(model, items, permutation)
            assert _objective(model, assignment) == linear_arrangement_cost(
                list(permutation), affinity
            )


class TestSolveAndVerify:
    def test_enumeration_matches_dp_on_random_instances(self):
        for seed in range(3):
            trace = markov_trace(5, 80, locality=0.7, seed=seed)
            check_formulation(list(trace.items), affinity_graph(trace))

    def test_known_optimum(self):
        # Path graph: chain order is optimal with cost = sum of weights.
        items = ["a", "b", "c"]
        affinity = {("a", "b"): 5, ("b", "c"): 7}
        order, value = check_formulation(items, affinity)
        assert value == 12.0
        assert order.index("b") == 1  # b must sit between a and c


def _golden_traces() -> dict[str, AccessTrace]:
    traces = {
        f"markov5-s{seed}": markov_trace(5, 80, locality=0.7, seed=seed)
        for seed in range(3)
    }
    traces["single"] = AccessTrace(["a", "a", "a"], name="single")
    traces["markov9-s0"] = markov_trace(9, 80, locality=0.7, seed=0)
    traces.update(benchmark_suite(HASHED_KERNELS))
    return traces


def _record(name: str, trace: AccessTrace) -> dict:
    text, num_vars, num_constraints = minla_lp_text(
        list(trace.items), affinity_graph(trace)
    )
    record: dict = {"num_vars": num_vars, "num_constraints": num_constraints}
    if name in HASHED_KERNELS:
        record["sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    else:
        record["text"] = text
    return record


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]


class TestGoldenExport:
    @pytest.mark.parametrize("name", sorted(_golden_traces()))
    def test_export_matches_golden(self, name):
        assert _record(name, _golden_traces()[name]) == _golden()[name]

    def test_golden_covers_every_case(self):
        assert sorted(_golden()) == sorted(_golden_traces())

    def test_cli_export_matches_golden(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        save_trace(_golden_traces()["markov5-s0"], trace_path)
        lp_path = tmp_path / "model.lp"
        code = cli_main([
            "place", str(trace_path), "--export-ilp", str(lp_path),
            "-o", str(tmp_path / "p.json"),
        ])
        err = capsys.readouterr().err
        expected = _golden()["markov5-s0"]
        assert code == 0
        assert lp_path.read_text(encoding="utf-8") == expected["text"]
        assert (
            f"wrote ILP ({expected['num_vars']} vars, "
            f"{expected['num_constraints']} constraints) to {lp_path}"
        ) in err


def main() -> None:
    cases = {
        name: _record(name, trace) for name, trace in _golden_traces().items()
    }
    GOLDEN.write_text(
        json.dumps({"version": 1, "cases": cases}, indent=2) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
