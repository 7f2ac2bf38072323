"""Unit tests for repro.obs: metrics registry, tracing, run manifests."""

import concurrent.futures
import json
import multiprocessing
import threading
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    HistogramSummary,
    MetricsRegistry,
    RunManifest,
    Tracer,
    collect_manifest,
    detect_git_sha,
    flatten_snapshot,
    get_registry,
    get_tracer,
    json_safe,
    metric_key,
    read_manifest,
    render_spans,
    set_registry,
    set_tracer,
    trace_span,
    write_manifest,
)

GOLDEN = Path(__file__).parent / "golden" / "manifest_v1.json"


@pytest.fixture()
def registry():
    """A fresh registry installed as the process default for one test."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


@pytest.fixture()
def tracer():
    """A fresh tracer installed as the process default for one test."""
    fresh = Tracer()
    previous = set_tracer(fresh)
    try:
        yield fresh
    finally:
        set_tracer(previous)


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------

class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("sim.runs") == "sim.runs"

    def test_labels_sorted(self):
        assert (
            metric_key("sim.runs", {"engine": "scalar", "ab": 1})
            == "sim.runs{ab=1,engine=scalar}"
        )


class TestCounters:
    def test_inc_default_and_value(self, registry):
        registry.inc("c")
        registry.inc("c", 4)
        assert registry.counter_value("c") == 5

    def test_labelled_series_are_distinct(self, registry):
        registry.inc("sim.runs", engine="scalar")
        registry.inc("sim.runs", 2, engine="vectorized")
        assert registry.counter_value("sim.runs", engine="scalar") == 1
        assert registry.counter_value("sim.runs", engine="vectorized") == 2
        assert registry.counter_value("sim.runs") == 0


class TestGauges:
    def test_last_write_wins(self, registry):
        registry.gauge("jobs", 4)
        registry.gauge("jobs", 8)
        assert registry.gauge_value("jobs") == 8

    def test_unset_is_none(self, registry):
        assert registry.gauge_value("missing") is None


class TestHistograms:
    def test_summary_statistics(self, registry):
        for value in (1.0, 3.0, 2.0):
            registry.observe("h", value)
        summary = registry.histogram_summary("h")
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(6.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)

    def test_empty_summary_has_null_extrema(self):
        summary = HistogramSummary()
        payload = summary.as_dict()
        assert payload["count"] == 0
        assert payload["min"] is None
        assert payload["max"] is None

    def test_merge_dict(self):
        left = HistogramSummary()
        left.observe(1.0)
        right = HistogramSummary()
        right.observe(5.0)
        right.observe(3.0)
        left.merge_dict(right.as_dict())
        assert left.count == 3
        assert left.total == pytest.approx(9.0)
        assert left.minimum == 1.0
        assert left.maximum == 5.0

    def test_merge_empty_is_noop(self):
        summary = HistogramSummary()
        summary.merge_dict(HistogramSummary().as_dict())
        assert summary.count == 0


class TestSnapshotReset:
    def test_snapshot_shape(self, registry):
        registry.inc("c")
        registry.gauge("g", 2.5)
        registry.observe("h", 1.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 1}
        assert snapshot["gauges"] == {"g": 2.5}
        assert snapshot["histograms"]["h"]["count"] == 1
        # JSON-ready by construction.
        json.dumps(snapshot)

    def test_reset_returns_final_state_and_clears(self, registry):
        registry.inc("c", 3)
        final = registry.reset()
        assert final["counters"] == {"c": 3}
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestMerge:
    def test_counters_add_gauges_overwrite_histograms_combine(self, registry):
        other = MetricsRegistry()
        registry.inc("c", 1)
        registry.gauge("g", 1)
        registry.observe("h", 1.0)
        other.inc("c", 2)
        other.gauge("g", 9)
        other.observe("h", 3.0)
        registry.merge(other.snapshot())
        assert registry.counter_value("c") == 3
        assert registry.gauge_value("g") == 9
        summary = registry.histogram_summary("h")
        assert summary["count"] == 2
        assert summary["max"] == 3.0

    def test_merge_into_empty(self, registry):
        other = MetricsRegistry()
        other.inc("only", 5)
        registry.merge(other.snapshot())
        assert registry.counter_value("only") == 5


class TestThreadSafety:
    def test_concurrent_increments_are_lost_update_free(self, registry):
        threads = 8
        per_thread = 2000

        def worker():
            for _ in range(per_thread):
                registry.inc("t.count")
                registry.observe("t.hist", 1.0)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert registry.counter_value("t.count") == threads * per_thread
        assert registry.histogram_summary("t.hist")["count"] == threads * per_thread


def _spawn_worker_snapshot(count):
    """Top-level (picklable) worker: build a private registry, ship it home."""
    worker_registry = MetricsRegistry()
    for _ in range(count):
        worker_registry.inc("worker.count")
    worker_registry.observe("worker.value", float(count))
    return worker_registry.snapshot()


class TestSpawnModeMerge:
    def test_worker_snapshots_merge_into_parent(self, registry):
        ctx = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=2, mp_context=ctx
        ) as pool:
            snapshots = list(pool.map(_spawn_worker_snapshot, [3, 4]))
        for snapshot in snapshots:
            registry.merge(snapshot)
        assert registry.counter_value("worker.count") == 7
        summary = registry.histogram_summary("worker.value")
        assert summary["count"] == 2
        assert summary["min"] == 3.0
        assert summary["max"] == 4.0


class TestProcessDefault:
    def test_set_registry_swaps_and_restores(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            assert set_registry(previous) is fresh
        assert get_registry() is previous


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class TestTraceSpan:
    def test_nesting_builds_a_tree(self, registry, tracer):
        with trace_span("outer", stage="demo"):
            with trace_span("inner"):
                pass
        roots = get_tracer().roots()
        assert [span.name for span in roots] == ["outer"]
        assert [span.name for span in roots[0].children] == ["inner"]
        assert roots[0].seconds >= roots[0].children[0].seconds >= 0.0

    def test_span_feeds_duration_histogram(self, registry, tracer):
        with trace_span("timed"):
            pass
        assert registry.histogram_summary("span.timed.seconds")["count"] == 1

    def test_disabled_tracer_still_times(self, registry, tracer):
        tracer.enabled = False
        with trace_span("quiet"):
            pass
        assert tracer.roots() == ()
        assert registry.histogram_summary("span.quiet.seconds")["count"] == 1

    def test_root_history_is_bounded(self, registry):
        small = Tracer(max_roots=2)
        previous = set_tracer(small)
        try:
            for index in range(4):
                with trace_span(f"s{index}"):
                    pass
            assert [span.name for span in small.roots()] == ["s2", "s3"]
        finally:
            set_tracer(previous)

    def test_reset_drops_roots(self, registry, tracer):
        with trace_span("gone"):
            pass
        tracer.reset()
        assert tracer.roots() == ()

    def test_as_dict_and_render(self, registry, tracer):
        with trace_span("outer", label="x"):
            with trace_span("inner"):
                pass
        payload = tracer.as_dicts()
        assert payload[0]["name"] == "outer"
        assert payload[0]["meta"] == {"label": "x"}
        assert payload[0]["children"][0]["name"] == "inner"
        text = render_spans(tracer.roots())
        assert "outer" in text and "inner" in text

    def test_exception_still_closes_span(self, registry, tracer):
        with pytest.raises(ValueError):
            with trace_span("boom"):
                raise ValueError("no")
        assert [span.name for span in tracer.roots()] == ["boom"]


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

def _golden_manifest() -> RunManifest:
    """Fully pinned manifest (no environment-dependent fields)."""
    return RunManifest(
        kind="bench",
        run_id="golden",
        package_version="0.0.0-golden",
        git_sha="f" * 40,
        python_version="3.11.0",
        platform="Linux-x86_64",
        seed=7,
        engine="vectorized",
        geometry={"words_per_dbc": 64, "num_dbcs": 2, "ports": 1},
        created_unix=None,
        metrics={
            "sim.runs": 3,
            "sim.speedup": 37.5,
            "sim.exact": True,
        },
        extra={"notes": ["a", "b"]},
        spans=[
            {
                "name": "simulate",
                "seconds": 0.125,
                "children": [{"name": "scan", "seconds": 0.1}],
            }
        ],
    )


class TestManifestGolden:
    def test_schema_is_golden_stable(self):
        """Any layout change MUST bump MANIFEST_SCHEMA_VERSION + regolden."""
        golden_text = GOLDEN.read_text(encoding="utf-8")
        assert _golden_manifest().to_json() + "\n" == golden_text

    def test_golden_schema_version_matches_code(self):
        payload = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert payload["schema_version"] == MANIFEST_SCHEMA_VERSION, (
            "manifest layout changed: bump MANIFEST_SCHEMA_VERSION and "
            "regenerate tests/golden/manifest_v1.json"
        )

    def test_round_trip(self):
        manifest = _golden_manifest()
        rebuilt = RunManifest.from_json(manifest.to_json())
        assert rebuilt.to_dict() == manifest.to_dict()


class TestManifestValidation:
    def test_rejects_non_manifest_payload(self):
        with pytest.raises(ReproError):
            RunManifest.from_dict({"schema_version": 1})

    def test_rejects_unknown_schema_version(self):
        payload = _golden_manifest().to_dict()
        payload["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
        with pytest.raises(ReproError):
            RunManifest.from_dict(payload)

    def test_defaults_fill_environment_fields(self):
        manifest = RunManifest(kind="bench", run_id="x")
        assert manifest.package_version
        assert manifest.python_version
        assert manifest.platform


class TestJsonSafe:
    def test_non_finite_floats_become_none(self):
        payload = json_safe(
            {
                "ok": 1.5,
                "bad": float("inf"),
                "worse": float("nan"),
                "nested": [float("-inf"), {"deep": float("nan")}],
            }
        )
        assert payload["ok"] == 1.5
        assert payload["bad"] is None
        assert payload["worse"] is None
        assert payload["nested"] == [None, {"deep": None}]
        json.dumps(payload, allow_nan=False)

    def test_manifest_serialization_never_emits_non_finite(self):
        manifest = RunManifest(
            kind="bench", run_id="inf", metrics={"rate": float("inf")}
        )
        parsed = json.loads(manifest.to_json())
        assert parsed["metrics"]["rate"] is None


class TestCollectManifest:
    def test_flattens_registry_snapshot(self, registry, tracer):
        registry.inc("sim.runs", 2, engine="scalar")
        registry.gauge("jobs", 4)
        registry.observe("span.sim.seconds", 0.5)
        with trace_span("top"):
            pass
        manifest = collect_manifest(
            "experiments", "e1", seed=3, engine="scalar"
        )
        assert manifest.kind == "experiments"
        assert manifest.seed == 3
        assert manifest.metrics["counter.sim.runs{engine=scalar}"] == 2
        assert manifest.metrics["gauge.jobs"] == 4
        assert manifest.metrics["histogram.span.sim.seconds.count"] == 1
        assert any(span["name"] == "top" for span in manifest.spans)

    def test_explicit_metrics_win(self, registry, tracer):
        registry.inc("c")
        manifest = collect_manifest(
            "bench", "x", metrics={"counter.c": 99}, include_spans=False
        )
        assert manifest.metrics["counter.c"] == 99
        assert manifest.spans == []


class TestFlattenSnapshot:
    def test_histogram_null_extrema_are_dropped(self):
        snapshot = {
            "counters": {"c": 1},
            "gauges": {},
            "histograms": {"h": HistogramSummary().as_dict()},
        }
        metrics = flatten_snapshot(snapshot)
        assert metrics["counter.c"] == 1
        assert "histogram.h.min" not in metrics
        assert metrics["histogram.h.count"] == 0


class TestManifestIO:
    def test_write_and_read(self, tmp_path):
        manifest = _golden_manifest()
        path = write_manifest(manifest, tmp_path / "deep" / "m.json")
        assert path.exists()
        rebuilt = read_manifest(path)
        assert rebuilt.to_dict() == manifest.to_dict()


class TestDetectGitSha:
    def test_repo_sha_or_unknown(self):
        sha = detect_git_sha(Path(__file__).parent.parent)
        assert sha == "unknown" or len(sha) >= 7

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafe1234")
        assert detect_git_sha() == "cafe1234"

    def test_unknown_outside_any_repo(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_GIT_SHA", raising=False)
        assert detect_git_sha(tmp_path) == "unknown"


# ---------------------------------------------------------------------------
# Instrumented subsystems report through the registry
# ---------------------------------------------------------------------------

class TestSubsystemIntegration:
    def test_simulate_reports_runs_and_engine(self, registry, tracer):
        from repro.dwm.config import DWMConfig
        from repro.memory.spm import ScratchpadMemory
        from repro.core.api import optimize_placement
        from repro.trace.synthetic import markov_trace

        trace = markov_trace(8, 200, seed=1)
        config = DWMConfig.for_items(trace.num_items, words_per_dbc=16)
        result = optimize_placement(trace, config, method="declaration")
        spm = ScratchpadMemory(config, result.placement)
        spm.simulate(trace, engine="scalar")
        spm.simulate(trace, engine="vectorized")
        assert registry.counter_value("sim.runs", engine="scalar") == 1
        assert registry.counter_value("sim.runs", engine="vectorized") == 1
        assert registry.counter_value("optimize.runs", method="declaration") == 1
        names = {span.name for span in get_tracer().roots()}
        assert "simulate" in names
        assert "optimize" in names

    def test_measure_throughput_reports(self, registry):
        from repro.perf import measure_throughput

        measure_throughput(lambda: None, min_seconds=0.0, min_operations=3)
        assert registry.counter_value("perf.measure_throughput.calls") == 1
        assert registry.counter_value("perf.measure_throughput.operations") >= 3
