"""Unit tests for the command-line interface."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import load_placement_json, main

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    """Invoke the CLI and return (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_restores_the_callers_sigterm_handler(tmp_path, capsys):
    before = signal.getsignal(signal.SIGTERM)
    code, _out, _err = run_cli(
        capsys, "trace", "generate", "fir", "-o", str(tmp_path / "fir.jsonl")
    )
    assert code == 0
    assert signal.getsignal(signal.SIGTERM) is before


class TestTraceGenerate:
    def test_kernel_to_jsonl(self, tmp_path, capsys):
        path = tmp_path / "fir.jsonl"
        code, out, _err = run_cli(capsys, "trace", "generate", "fir", "-o", str(path))
        assert code == 0
        assert path.exists()
        assert "wrote" in out

    def test_synthetic_with_size(self, tmp_path, capsys):
        path = tmp_path / "m.trc"
        code, out, _err = run_cli(
            capsys, "trace", "generate", "markov",
            "--items", "10", "--accesses", "200", "--seed", "3",
            "-o", str(path),
        )
        assert code == 0
        assert "200 accesses" in out

    def test_unknown_source(self, tmp_path, capsys):
        code, _out, err = run_cli(
            capsys, "trace", "generate", "nope", "-o", str(tmp_path / "x.trc")
        )
        assert code == 2
        assert "unknown source" in err


class TestTraceInfo:
    def test_prints_stats(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        run_cli(capsys, "trace", "generate", "histogram", "-o", str(path))
        code, out, _err = run_cli(capsys, "trace", "info", str(path))
        assert code == 0
        assert "accesses" in out
        assert "locality score" in out

    def test_missing_file(self, capsys):
        code, _out, err = run_cli(capsys, "trace", "info", "/no/such/file.jsonl")
        assert code == 1
        assert "error" in err


class TestPlaceAndSimulate:
    @pytest.fixture
    def trace_file(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        run_cli(capsys, "trace", "generate", "markov",
                "--items", "12", "--accesses", "300", "-o", str(path))
        capsys.readouterr()
        return path

    def test_place_to_stdout(self, trace_file, capsys):
        code, out, err = run_cli(capsys, "place", str(trace_file))
        assert code == 0
        payload = json.loads(out[: out.rindex("}") + 1])
        assert payload["method"] == "heuristic"
        assert payload["total_shifts"] <= payload["baseline_shifts"]
        assert "vs declaration" in err

    def test_place_to_file_and_reload(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "placement.json"
        code, _out, _err = run_cli(
            capsys, "place", str(trace_file), "-o", str(out_path),
            "--words-per-dbc", "8",
        )
        assert code == 0
        placement, config = load_placement_json(out_path)
        assert config.words_per_dbc == 8
        assert len(placement) == 12

    def test_place_respects_method_flag(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "placement.json"
        code, _out, _err = run_cli(
            capsys, "place", str(trace_file), "--method", "declaration",
            "-o", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["method"] == "declaration"
        assert payload["total_shifts"] == payload["baseline_shifts"]

    def test_simulate_reports_shifts(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "placement.json"
        run_cli(capsys, "place", str(trace_file), "-o", str(out_path))
        capsys.readouterr()
        code, out, _err = run_cli(
            capsys, "simulate", str(trace_file), str(out_path)
        )
        assert code == 0
        assert "shifts/access" in out
        assert "total energy" in out

    def test_simulate_matches_place_shift_count(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "placement.json"
        run_cli(capsys, "place", str(trace_file), "-o", str(out_path))
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        _code, out, _err = run_cli(
            capsys, "simulate", str(trace_file), str(out_path)
        )
        assert f"{payload['total_shifts']}" in out

    def test_geometry_flags(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "placement.json"
        code, _out, _err = run_cli(
            capsys, "place", str(trace_file),
            "--words-per-dbc", "4", "--ports", "2", "--num-dbcs", "5",
            "--policy", "eager", "-o", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["config"]["words_per_dbc"] == 4
        assert payload["config"]["num_dbcs"] == 5
        assert len(payload["config"]["port_offsets"]) == 2
        assert payload["config"]["port_policy"] == "eager"


class TestExperimentsCommand:
    def test_single_experiment(self, capsys):
        code, out, _err = run_cli(capsys, "experiments", "e1")
        assert code == 0
        assert "Benchmark characteristics" in out

    def test_stdout_is_the_rendered_tables(self, capsys):
        # One experiment prints its table and nothing after it, which is
        # what results/<id>.txt holds; sections are one blank line apart.
        from repro.analysis.experiments import run_experiments

        e1, e2 = (output.rendered for output in run_experiments(["e1", "e2"]))
        code, out, _err = run_cli(capsys, "experiments", "e1", "--no-cache")
        assert code == 0
        assert out == e1 + "\n"
        assert out == (ROOT / "results" / "e1.txt").read_text()
        code, out, _err = run_cli(capsys, "experiments", "e1", "e2", "--no-cache")
        assert code == 0
        assert out == e1 + "\n\n" + e2 + "\n"

    def test_jobs_flag(self, capsys):
        code, out, _err = run_cli(capsys, "experiments", "e1", "--jobs", "2")
        assert code == 0
        assert "Benchmark characteristics" in out

    def test_no_cache_flag(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        code, _out, _err = run_cli(
            capsys, "experiments", "e9", "--no-cache",
            "--cache-dir", str(cache_dir),
        )
        assert code == 0
        assert not cache_dir.exists()

    def test_markdown_report(self, tmp_path, capsys):
        report = tmp_path / "report.md"
        code, _out, err = run_cli(
            capsys, "experiments", "e1", "-o", str(report)
        )
        assert code == 0
        assert "wrote report" in err
        text = report.read_text()
        assert text.startswith("# repro — experiment report")
        assert "## E1" in text


class TestExportILP:
    def test_lp_file_written(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        run_cli(capsys, "trace", "generate", "markov",
                "--items", "6", "--accesses", "80", "-o", str(trace_path))
        capsys.readouterr()
        lp_path = tmp_path / "model.lp"
        code, _out, err = run_cli(
            capsys, "place", str(trace_path), "--export-ilp", str(lp_path),
            "-o", str(tmp_path / "p.json"),
        )
        assert code == 0
        assert "wrote ILP" in err
        text = lp_path.read_text()
        assert "Minimize" in text and "Binary" in text and "End" in text


class TestDseCommand:
    def test_dse_prints_front(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        run_cli(capsys, "trace", "generate", "markov",
                "--items", "16", "--accesses", "300", "-o", str(path))
        capsys.readouterr()
        code, out, _err = run_cli(
            capsys, "dse", str(path), "--lengths", "8,16", "--port-counts", "1,2"
        )
        assert code == 0
        assert "Pareto-efficient" in out
        assert "knee" in out

    def test_dse_populates_cache(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        run_cli(capsys, "trace", "generate", "markov",
                "--items", "12", "--accesses", "200", "-o", str(path))
        capsys.readouterr()
        cache_dir = tmp_path / "cache"
        code, _out, _err = run_cli(
            capsys, "dse", str(path), "--lengths", "8,16",
            "--port-counts", "1", "--cache-dir", str(cache_dir),
        )
        assert code == 0
        assert any(cache_dir.glob("??/*.json"))

    def test_dse_jobs_output_byte_identical(self, tmp_path, capsys):
        """--jobs 4 must print exactly what a serial run prints."""
        path = tmp_path / "t.jsonl"
        run_cli(capsys, "trace", "generate", "markov",
                "--items", "16", "--accesses", "300", "-o", str(path))
        capsys.readouterr()
        runs = {}
        for jobs in ("1", "4"):
            code, out, _err = run_cli(
                capsys, "dse", str(path), "--lengths", "8,16",
                "--port-counts", "1,2", "--no-cache", "--jobs", jobs,
            )
            assert code == 0
            runs[jobs] = out.encode("utf-8")
        assert runs["1"] == runs["4"]


class TestResilienceFlags:
    """--task-timeout / --retries / --checkpoint / --resume and SIGINT."""

    def test_resume_requires_checkpoint(self, capsys):
        code, _out, err = run_cli(capsys, "experiments", "e1", "--resume")
        assert code == 1
        assert "--resume requires --checkpoint" in err

    def test_experiments_checkpoint_then_resume(self, tmp_path, capsys):
        journal = tmp_path / "exp.jsonl"
        code, first, _err = run_cli(
            capsys, "experiments", "e1", "--no-cache",
            "--checkpoint", str(journal),
        )
        assert code == 0
        assert journal.exists()
        # The resumed run restores the journaled experiment and renders
        # byte-identically without recomputing it.
        code, second, err = run_cli(
            capsys, "experiments", "e1", "--no-cache",
            "--checkpoint", str(journal), "--resume",
        )
        assert code == 0
        assert "1 completed task(s) restored" in err
        assert second == first

    def test_resume_skips_recompute(self, tmp_path, capsys, monkeypatch):
        journal = tmp_path / "exp.jsonl"
        code, first, _err = run_cli(
            capsys, "experiments", "e1", "--no-cache",
            "--checkpoint", str(journal),
        )
        assert code == 0

        def explode(_key):
            raise AssertionError("restored experiment must not recompute")

        monkeypatch.setitem(
            __import__("repro.analysis.experiments", fromlist=["EXPERIMENTS"])
            .EXPERIMENTS, "e1", explode,
        )
        code, second, _err = run_cli(
            capsys, "experiments", "e1", "--no-cache",
            "--checkpoint", str(journal), "--resume",
        )
        assert code == 0
        assert second == first

    def test_failed_experiment_reported_not_fatal(self, capsys, monkeypatch):
        from repro.analysis.experiments import EXPERIMENTS

        def explode():
            raise RuntimeError("poisoned experiment")

        monkeypatch.setitem(EXPERIMENTS, "e1", explode)
        code, out, err = run_cli(
            capsys, "experiments", "e1", "e2", "--no-cache", "--retries", "1",
        )
        # The poisoned experiment is reported; the sibling still renders.
        assert code == 1
        assert "experiment task #0 failed" in err
        assert "poisoned experiment" in err
        assert "shift" in out.lower() or out  # e2 output still printed

    def test_keyboard_interrupt_exits_130_and_flushes(
        self, tmp_path, capsys, monkeypatch
    ):
        journal = tmp_path / "exp.jsonl"

        def interrupted(*_args, **kwargs):
            checkpoint = kwargs.get("checkpoint")
            checkpoint.record("partial-key", {"v": 1})
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli.run_experiments", interrupted)
        code, _out, err = run_cli(
            capsys, "experiments", "e1", "--no-cache",
            "--checkpoint", str(journal),
        )
        assert code == 130
        assert "interrupted" in err
        # The record landed on disk before the interrupt surfaced.
        assert "partial-key" in journal.read_text(encoding="utf-8")

    def test_dse_checkpoint_resume_byte_identical(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        run_cli(capsys, "trace", "generate", "markov",
                "--items", "12", "--accesses", "200", "-o", str(path))
        capsys.readouterr()
        journal = tmp_path / "dse.jsonl"
        code, first, _err = run_cli(
            capsys, "dse", str(path), "--lengths", "8,16", "--port-counts",
            "1", "--no-cache", "--checkpoint", str(journal),
        )
        assert code == 0
        code, second, err = run_cli(
            capsys, "dse", str(path), "--lengths", "8,16", "--port-counts",
            "1", "--no-cache", "--checkpoint", str(journal), "--resume",
        )
        assert code == 0
        assert "2 completed task(s) restored" in err
        assert second == first


class TestCacheCommand:
    def test_info_and_clear(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        trace_path = tmp_path / "t.jsonl"
        run_cli(capsys, "trace", "generate", "markov",
                "--items", "10", "--accesses", "150", "-o", str(trace_path))
        capsys.readouterr()
        run_cli(capsys, "dse", str(trace_path), "--lengths", "8",
                "--port-counts", "1", "--cache-dir", str(cache_dir))
        capsys.readouterr()
        code, out, _err = run_cli(
            capsys, "cache", "info", "--cache-dir", str(cache_dir)
        )
        assert code == 0
        assert str(cache_dir) in out
        assert "entries" in out
        code, out, _err = run_cli(
            capsys, "cache", "clear", "--cache-dir", str(cache_dir)
        )
        assert code == 0
        assert "removed 1" in out
        assert not any(cache_dir.glob("??/*.json"))

    def test_info_reports_quarantined_entries(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        shard = cache_dir / "ab"
        shard.mkdir(parents=True)
        (shard / ("ab" + "0" * 62 + ".corrupt")).write_text(
            "{torn write", encoding="utf-8"
        )
        code, out, _err = run_cli(
            capsys, "cache", "info", "--cache-dir", str(cache_dir)
        )
        assert code == 0
        assert "corrupt (quarantined)" in out
        # clear removes quarantined files too
        run_cli(capsys, "cache", "clear", "--cache-dir", str(cache_dir))
        assert not any(cache_dir.glob("??/*.corrupt"))


class TestSystemCommand:
    def test_system_study(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        run_cli(capsys, "trace", "generate", "markov",
                "--items", "30", "--accesses", "600", "-o", str(path))
        capsys.readouterr()
        code, out, _err = run_cli(
            capsys, "system", str(path), "--capacity-fraction", "0.5"
        )
        assert code == 0
        assert "all_dram" in out
        assert "spm_shift_aware" in out
        assert "speedup" in out


class TestBenchCommand:
    @pytest.fixture()
    def raw_bench(self, tmp_path):
        path = tmp_path / "BENCH_demo.json"
        path.write_text(json.dumps({
            "section": {"evals_per_sec": 100.0, "total_shifts": 500,
                        "engines_exact_match": True},
            "headline_speedup": 2.0,
        }), encoding="utf-8")
        return path

    def test_normalize_to_stdout(self, raw_bench, capsys):
        code, out, _err = run_cli(capsys, "bench", "normalize", str(raw_bench))
        assert code == 0
        payload = json.loads(out)
        assert payload["manifest"] == "repro-run-manifest"
        assert payload["run_id"] == "demo"
        assert payload["metrics"]["section.evals_per_sec"] == 100.0

    def test_normalize_to_file_with_source(self, raw_bench, tmp_path, capsys):
        out_path = tmp_path / "manifest.json"
        code, _out, err = run_cli(
            capsys, "bench", "normalize", str(raw_bench),
            "-o", str(out_path), "--source", "e42",
        )
        assert code == 0
        assert "wrote manifest" in err
        assert json.loads(out_path.read_text())["run_id"] == "e42"

    def test_normalize_rejects_manifest_input(self, raw_bench, tmp_path, capsys):
        out_path = tmp_path / "manifest.json"
        run_cli(capsys, "bench", "normalize", str(raw_bench), "-o", str(out_path))
        capsys.readouterr()
        code, _out, err = run_cli(capsys, "bench", "normalize", str(out_path))
        assert code != 0
        assert "already a run manifest" in err

    def test_compare_self_passes(self, raw_bench, capsys):
        code, out, _err = run_cli(
            capsys, "bench", "compare", str(raw_bench), str(raw_bench)
        )
        assert code == 0
        assert "PASS" in out

    @pytest.fixture()
    def regressed_bench(self, raw_bench, tmp_path):
        payload = json.loads(raw_bench.read_text())
        payload["section"]["evals_per_sec"] *= 0.8  # 20% throughput drop
        path = tmp_path / "BENCH_regressed.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_compare_detects_regression(self, raw_bench, regressed_bench, capsys):
        code, out, err = run_cli(
            capsys, "bench", "compare", str(raw_bench), str(regressed_bench)
        )
        assert code == 1
        assert "REGRESSION" in out
        assert "regression(s)" in err

    def test_compare_tolerance_flag(self, raw_bench, regressed_bench, capsys):
        code, out, _err = run_cli(
            capsys, "bench", "compare", str(raw_bench), str(regressed_bench),
            "--tolerance", "30",
        )
        assert code == 0
        assert "PASS" in out

    def test_compare_set_override(self, raw_bench, regressed_bench, capsys):
        code, _out, _err = run_cli(
            capsys, "bench", "compare", str(raw_bench), str(regressed_bench),
            "--set", "section.*=50",
        )
        assert code == 0

    def test_compare_bad_set_syntax(self, raw_bench, capsys):
        code, _out, err = run_cli(
            capsys, "bench", "compare", str(raw_bench), str(raw_bench),
            "--set", "nonsense",
        )
        assert code != 0
        assert "--set expects" in err

    def test_compare_json_output(self, raw_bench, regressed_bench, capsys):
        code, out, _err = run_cli(
            capsys, "bench", "compare", str(raw_bench), str(regressed_bench),
            "--json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert "section.evals_per_sec" in payload["regressions"]


class TestObsCommand:
    def test_dump_live(self, capsys):
        code, out, _err = run_cli(capsys, "obs", "dump")
        assert code == 0
        assert "live observability snapshot" in out

    def test_dump_live_json(self, capsys):
        code, out, _err = run_cli(capsys, "obs", "dump", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["manifest"] == "repro-run-manifest"
        assert payload["kind"] == "obs-dump"

    def test_dump_manifest_file(self, tmp_path, capsys):
        from repro.obs import RunManifest, write_manifest

        manifest = RunManifest(
            kind="bench", run_id="e18", metrics={"a.b_per_sec": 1.5}
        )
        path = write_manifest(manifest, tmp_path / "m.json")
        code, out, _err = run_cli(capsys, "obs", "dump", str(path))
        assert code == 0
        assert "e18" in out
        assert "a.b_per_sec = 1.5" in out


class TestMetricsOutFlag:
    def test_experiments_writes_manifest(self, tmp_path, capsys):
        from repro.obs import read_manifest

        out_path = tmp_path / "metrics.json"
        code, _out, err = run_cli(
            capsys, "experiments", "e1", "--metrics-out", str(out_path)
        )
        assert code == 0
        assert "wrote metrics manifest" in err
        manifest = read_manifest(out_path)
        assert manifest.kind == "experiments"
        assert manifest.run_id == "e1"
        assert any(
            name.startswith("counter.optimize.runs") for name in manifest.metrics
        )


class TestTracePackAndStreaming:
    @pytest.fixture
    def text_trace(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        run_cli(capsys, "trace", "generate", "markov",
                "--items", "12", "--accesses", "400", "--seed", "4",
                "-o", str(path))
        capsys.readouterr()
        return path

    @pytest.fixture
    def packed(self, text_trace, tmp_path, capsys):
        out = tmp_path / "t.rtb"
        code, stdout, _err = run_cli(
            capsys, "trace", "pack", str(text_trace), str(out)
        )
        assert code == 0
        assert "packed 400 accesses" in stdout
        return out

    def test_pack_round_trips(self, text_trace, packed):
        from repro.trace import io as trace_io
        from repro.trace.binio import open_binary

        original = trace_io.load(text_trace)
        stream = open_binary(packed)
        assert stream.fingerprint() == original.fingerprint()
        assert len(stream) == len(original)

    def test_info_on_binary(self, packed, capsys):
        code, out, _err = run_cli(capsys, "trace", "info", str(packed))
        assert code == 0
        assert "binary trace" in out
        assert "fingerprint" in out
        assert "400" in out

    def test_place_and_simulate_streaming(self, packed, tmp_path, capsys):
        placement = tmp_path / "p.json"
        code, _out, err = run_cli(
            capsys, "place", str(packed), "-o", str(placement),
            "--words-per-dbc", "8",
        )
        assert code == 0
        assert "vs declaration" in err
        code, out, _err = run_cli(
            capsys, "simulate", str(packed), str(placement),
            "--chunk-size", "64",
        )
        assert code == 0
        assert "streaming" in out
        code, out2, _err = run_cli(
            capsys, "simulate", str(packed), str(placement),
            "--engine", "streaming", "--jobs", "1",
        )
        assert code == 0
        assert "streaming" in out2

    def test_streaming_matches_text_simulation(
        self, text_trace, packed, tmp_path, capsys
    ):
        placement = tmp_path / "p.json"
        run_cli(capsys, "place", str(text_trace), "-o", str(placement),
                "--words-per-dbc", "8")
        capsys.readouterr()
        _code, binary_out, _err = run_cli(
            capsys, "simulate", str(packed), str(placement)
        )
        _code, text_out, _err = run_cli(
            capsys, "simulate", str(text_trace), str(placement),
            "--engine", "vectorized",
        )
        pick = lambda out: next(  # noqa: E731
            line for line in out.splitlines() if line.strip().startswith("shifts ")
        ).split()[-1]
        assert pick(binary_out) == pick(text_out)

    def test_pooled_simulate_prints_no_worker_traceback(
        self, packed, tmp_path, capsys
    ):
        """Pool workers take SIGTERM's default action, so the pool's
        teardown at exit prints no ``KeyboardInterrupt`` traceback."""
        placement = tmp_path / "p.json"
        run_cli(capsys, "place", str(packed), "-o", str(placement),
                "--words-per-dbc", "8")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "simulate", str(packed),
             str(placement), "--jobs", "2", "--chunk-size", "64"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0
        assert "streaming" in done.stdout
        assert "Traceback" not in done.stderr

    def test_export_ilp_rejects_binary(self, packed, tmp_path, capsys):
        code, _out, err = run_cli(
            capsys, "place", str(packed),
            "--export-ilp", str(tmp_path / "m.lp"),
        )
        assert code == 1
        assert "error" in err
