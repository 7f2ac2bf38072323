"""Unit tests for the differential conformance fuzzer (repro.verify)."""

import json
import random

import pytest

import repro.verify.oracles as oracles
from repro.core.cost import evaluate_placement
from repro.core.problem import PlacementProblem
from repro.dwm.config import DWMConfig
from repro.obs import get_registry
from repro.trace.model import AccessTrace
from repro.verify import (
    FuzzCase,
    ShrinkStats,
    brute_force_optimum,
    build_placement,
    check_case,
    generate_case,
    regression_snippet,
    run_fuzz,
    shrink_case,
)


def make_case(accesses, words=4, dbcs=2, ports=(0,), policy="lazy",
              method="frequency", seed=7):
    return FuzzCase(
        accesses=tuple((item, "R") for item in accesses),
        words_per_dbc=words,
        num_dbcs=dbcs,
        port_offsets=tuple(ports),
        port_policy=policy,
        method=method,
        seed=seed,
    )


def _overcounting(per_access_costs):
    """``per_access_costs`` with a deliberate off-by-one on nonzero totals."""

    def broken(*args, **kwargs):
        dbc_seq, cost_seq = per_access_costs(*args, **kwargs)
        if cost_seq.any():
            cost_seq = cost_seq.copy()
            cost_seq[0] += 1
        return dbc_seq, cost_seq

    return broken


class TestCaseGeneration:
    def test_deterministic_for_seed(self):
        first = [generate_case(random.Random(11), i) for i in range(30)]
        second = [generate_case(random.Random(11), i) for i in range(30)]
        assert first == second

    def test_different_seeds_differ(self):
        a = [generate_case(random.Random(1), i) for i in range(10)]
        b = [generate_case(random.Random(2), i) for i in range(10)]
        assert a != b

    def test_generated_cases_are_feasible(self):
        rng = random.Random(5)
        for index in range(50):
            case = generate_case(rng, index)
            assert case.num_items() <= case.num_dbcs * case.words_per_dbc
            assert all(
                0 <= p < case.words_per_dbc for p in case.port_offsets
            )

    def test_json_round_trip(self):
        case = generate_case(random.Random(3), 0)
        recovered = FuzzCase.from_dict(
            json.loads(json.dumps(case.to_dict()))
        )
        assert recovered == case

    def test_from_dict_rejects_unknown_schema(self):
        payload = generate_case(random.Random(3), 0).to_dict()
        payload["schema"] = 999
        with pytest.raises(Exception):
            FuzzCase.from_dict(payload)


class TestOracles:
    def test_clean_on_simple_case(self):
        case = make_case(["a", "b", "a", "b", "c"], words=3, dbcs=2)
        assert check_case(case) == []

    def test_clean_on_multi_port_eager(self):
        case = make_case(
            ["a", "b", "c", "a", "c"], words=4, dbcs=1,
            ports=(0, 3), policy="eager",
        )
        assert check_case(case) == []

    def test_brute_force_matches_known_optimum(self):
        # Two items, ports at 0 and 2: one item on each port costs zero.
        trace = AccessTrace(["a", "b"] * 3)
        config = DWMConfig(
            words_per_dbc=3, num_dbcs=1, port_offsets=(0, 2)
        )
        problem = PlacementProblem(trace=trace, config=config)
        assert brute_force_optimum(problem) == 0

    def test_build_placement_valid(self):
        case = make_case(["a", "b", "c", "a"], words=4, dbcs=2)
        problem, placement = build_placement(case)
        placement.validate(case.config(), problem.items)

    def test_detects_injected_overcount(self, monkeypatch):
        monkeypatch.setattr(
            oracles, "per_access_costs", _overcounting(oracles.per_access_costs)
        )
        case = make_case(["a", "b", "a", "b"], words=2, dbcs=1)
        kinds = {v.kind for v in check_case(case)}
        assert "engine_total_mismatch" in kinds


class TestShrink:
    def test_shrinks_to_single_access(self):
        case = make_case(
            ["x" if i % 3 == 0 else f"f{i}" for i in range(24)],
            words=9, dbcs=3,
        )

        def interesting(candidate):
            return any(item == "x" for item, _kind in candidate.accesses)

        shrunk = shrink_case(case, interesting)
        # The rename pass cannot fire (the predicate pins the name "x"),
        # but ddmin + item drops must reach the single witnessing access.
        assert shrunk.accesses == (("x", "R"),)

    def test_respects_check_budget(self):
        case = make_case([f"i{k}" for k in range(12)] * 4, words=12, dbcs=4)
        stats = ShrinkStats()
        shrink_case(case, lambda c: True, max_checks=5, stats=stats)
        assert stats.checks <= 6

    def test_result_still_interesting(self):
        case = make_case(["a", "b", "c", "a", "b", "c"], words=3, dbcs=2)

        def interesting(candidate):
            return candidate.num_items() >= 2

        shrunk = shrink_case(case, interesting)
        assert interesting(shrunk)
        assert shrunk.label.endswith("-shrunk")


class TestRunFuzz:
    def test_clean_sweep(self, tmp_path):
        report = run_fuzz(seed=2015, cases=25, out=tmp_path)
        assert report.ok
        assert report.cases_run == 25
        assert (tmp_path / "report.json").exists()
        summary = json.loads((tmp_path / "report.json").read_text())
        assert summary["num_findings"] == 0
        assert get_registry().counter_value("fuzz.cases") >= 25

    def test_budget_stops_early(self):
        report = run_fuzz(seed=1, cases=10_000, budget_seconds=0.5)
        assert report.stopped_on_budget
        assert report.cases_run < 10_000

    def test_injected_bug_is_caught_and_shrunk(self, tmp_path, monkeypatch):
        # Acceptance criterion: a deliberate off-by-one in one engine must
        # be detected and minimized to a repro of at most 10 accesses.
        monkeypatch.setattr(
            oracles, "per_access_costs", _overcounting(oracles.per_access_costs)
        )
        report = run_fuzz(seed=2015, cases=30, out=tmp_path)
        assert not report.ok
        finding = report.findings[0]
        assert "engine_total_mismatch" in finding.kinds
        assert len(finding.shrunk.accesses) <= 10
        assert any(
            v.kind == "engine_total_mismatch"
            for v in finding.shrunk_violations
        )
        with open(report.artifact_paths[0]) as handle:
            artifact = json.load(handle)
        assert artifact["kinds"] == list(finding.kinds)
        assert "def test_fuzz_repro_" in artifact["regression_test"]

    def test_regression_snippet_is_executable(self):
        case = make_case(["a", "b", "a"], words=2, dbcs=1)
        snippet = regression_snippet(case, ("engine_total_mismatch",))
        namespace = {}
        exec(snippet, namespace)
        test_fn = next(
            fn for name, fn in namespace.items()
            if name.startswith("test_fuzz_repro_")
        )
        test_fn()  # the pinned case must pass on a healthy tree


class TestCliFuzz:
    def run_cli(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_fuzz_smoke(self, tmp_path, capsys):
        code, out, _err = self.run_cli(
            capsys, "fuzz", "--seed", "2015", "--cases", "15",
            "--out", str(tmp_path / "artifacts"),
        )
        assert code == 0
        assert "all invariants held" in out
        assert (tmp_path / "artifacts" / "report.json").exists()

    def test_fuzz_budget_flag(self, capsys):
        code, out, _err = self.run_cli(
            capsys, "fuzz", "--seed", "4", "--cases", "5",
            "--budget-seconds", "30", "--no-shrink",
        )
        assert code == 0
        assert "findings" in out


class TestDifferentialAgainstBruteForce:
    """Every placement method must stay within [lower bound, and the exact
    methods must hit] the independent brute-force optimum on tiny cases."""

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_matches_independent_brute_force(self, seed):
        rng = random.Random(seed)
        items = [f"v{k}" for k in range(rng.randint(2, 4))]
        accesses = [rng.choice(items) for _ in range(rng.randint(4, 14))]
        words = rng.randint(2, 4)
        ports = tuple(
            sorted(rng.sample(range(words), rng.randint(1, min(2, words))))
        )
        trace = AccessTrace(accesses)
        config = DWMConfig(
            words_per_dbc=words,
            num_dbcs=2,
            port_offsets=ports,
        )
        problem = PlacementProblem(trace=trace, config=config)
        from repro.core.exact import (
            exhaustive_placement,
            exhaustive_search_is_exact,
        )

        if not exhaustive_search_is_exact(config, len(problem.items)):
            pytest.skip("offset enumeration truncated for this geometry")
        cost = evaluate_placement(problem, exhaustive_placement(problem))
        assert cost == brute_force_optimum(problem)
