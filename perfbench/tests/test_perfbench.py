"""The benchmark's own tests, at toy size.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, OpRecord  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [entry["name"] for entry in SPEC["workloads"]]


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "toy"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_workload_runs_and_prints_exactly_its_metrics(workload, trace):
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {entry["name"]: entry["unit"] for entry in group}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in expected)
    else:
        share = result["metrics"]["unattributed_share"]["value"]
        assert 0.0 <= share <= 1.0


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = run_benchmark("suite", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# Wrong results count as failed ops
# ---------------------------------------------------------------------------

def _off_by_one(original):
    def wrong(*args, **kwargs):
        result = original(*args, **kwargs)
        return dataclasses.replace(result, shifts=result.shifts + 1)

    return wrong


def _toy(name: str, tmp_path):
    workload = workloads.WORKLOADS[name](3, "toy", tmp_path)
    workload.setup()
    return workload


def _summary(workload, records):
    workload.verify(records, [])
    return child.summarize(workload, records, [], wall=1.0)


def test_suite_off_by_one_simulation_is_a_failed_op(tmp_path, monkeypatch):
    from repro.memory.spm import ScratchpadMemory

    workload = _toy("suite", tmp_path)
    ops = workload.schedule(1.0)[:4]
    monkeypatch.setattr(ScratchpadMemory, "simulate",
                        _off_by_one(ScratchpadMemory.simulate))
    records = [workload._run_one(op, i) for i, op in enumerate(ops)]
    assert not any(record.ok for record in records)
    assert "simulated" in records[0].error
    summary = _summary(workload, records)
    assert summary["failed"] == len(ops)
    assert summary["p50_ms"] == summary["p90_ms"] == 1e12


def test_large_off_by_one_simulation_is_a_failed_op(tmp_path, monkeypatch):
    from repro.memory import batch_sim

    workload = _toy("large", tmp_path)
    op = workload.schedule(1.0)[0]
    monkeypatch.setattr(batch_sim, "simulate_vectorized",
                        _off_by_one(batch_sim.simulate_vectorized))
    record = workload._run_one(op, 0)
    assert not record.ok
    assert _summary(workload, [record])["failed"] == 1


def test_stream_pooled_disagreement_is_a_failed_op(tmp_path, monkeypatch):
    from repro.memory import stream_sim

    original = stream_sim.simulate_streaming

    def pooled_off_by_one(*args, **kwargs):
        result = original(*args, **kwargs)
        if kwargs.get("jobs"):
            result = dataclasses.replace(result, shifts=result.shifts + 1)
        return result

    workload = _toy("stream", tmp_path)
    try:
        op = workload.schedule(1.0)[0]
        monkeypatch.setattr(stream_sim, "simulate_streaming", pooled_off_by_one)
        record = workload._run_one(op, 0)
    finally:
        workload.close()
    assert not record.ok
    assert "shifts differ" in record.error


def test_guarded_method_worse_than_heuristic_is_a_failed_op():
    def record(method: str, shifts: int) -> OpRecord:
        op = Op(f"{method}/1p", ("k", 1, method))
        return OpRecord(op, 0.01, True, shifts=shifts, accesses=10,
                        key=("k", 1, method))

    heuristic = record("heuristic", 100)
    worse = record("shiftsreduce", 101)
    workloads._guard_and_repeat_checks([heuristic, worse], [])
    assert heuristic.ok
    assert not worse.ok
    assert "worse than heuristic" in worse.error


def test_nondeterministic_total_is_a_failed_op():
    op = Op("heuristic/1p", ("k", 1, "heuristic"))
    first = OpRecord(op, 0.01, True, shifts=100, key=("k", 1, "heuristic"))
    second = OpRecord(op, 0.01, True, shifts=99, key=("k", 1, "heuristic"))
    workloads._guard_and_repeat_checks([first, second], [])
    assert first.ok and not second.ok


def test_serve_recheck_catches_a_wrong_simulate_response(tmp_path):
    from repro.trace.synthetic import markov_trace

    serve = workloads.Serve(3, "toy", tmp_path)
    serve.big = markov_trace(16, 500, seed=3)
    serve.slots = [(0, offset) for offset in range(16)]
    rng = workloads.random.Random(0)
    records = []
    for shift_error in (0, 1):
        payload = serve._simulate_payload(rng, 2)
        record = OpRecord(Op("simulate", payload), 0.01, True)
        expected = serve._local_simulation(*payload)
        record.info["response"] = {
            "shifts": expected.shifts + shift_error,
            "per_dbc_shifts": list(expected.per_dbc_shifts),
            "max_access_shifts": expected.max_access_shifts,
        }
        records.append(record)
    serve.verify(records, [])
    assert records[0].ok
    assert not records[1].ok


def test_failed_op_counts_as_slower_than_every_limit(tmp_path):
    workload = _toy("large", tmp_path)
    op = workload.schedule(1.0)[0]
    records = [OpRecord(op, 0.001, True, shifts=1, accesses=1)
               for _ in range(99)]
    records.append(OpRecord(op, 0.0, False, "CheckFailed: wrong"))
    summary = child.summarize(workload, records, [], wall=1.0)
    assert summary["attempted"] == 100
    assert summary["failed"] == 1
    assert summary["ops_per_s"] == pytest.approx(99.0)
    assert summary["p50_ms"] == pytest.approx(1.0)
    assert summary["p90_ms"] == 1e12


def test_harrell_davis_matches_the_middle_of_a_uniform_list():
    values = [float(i) for i in range(1, 102)]
    assert child.harrell_davis(values, 0.5) == pytest.approx(51.0, rel=1e-3)
    assert 88.0 < child.harrell_davis(values, 0.9) < 93.0
