"""Span recording for the traced benchmark run.

The benchmark measures the library from outside: :func:`install` replaces
public functions and methods of ``repro`` with thin wrappers that record
one span per call.  A span is ``(id, name, start, end, parent, op, tags)``;
spans live in memory (:class:`Recorder`) and are reduced once, at the end,
to per-layer self times (:func:`layer_report`) and a per-op span tree
(:func:`span_tree`).

Nothing here is imported by the untraced run, which installs no wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time

#: Span name -> per-layer time metric fed by its self time.
LAYER_SECONDS = {
    "trace.generate": "trace.generate_s",
    "trace.pack": "trace.pack_s",
    "memory.resolve": "memory.resolve_s",
    "core.resolve": "core.resolve_s",
    "core.plan": "core.plan_s",
    "core.score_1p": "core.score_1p_s",
    "core.score_2p": "core.score_2p_s",
    "core.delta": "core.delta_s",
    "core.kernel": "core.kernel_s",
    "core.execute": "core.execute_s",
    "memory.simulate": "memory.simulate_s",
    "stream.seq": "stream.seq_s",
    "stream.parallel": "stream.parallel_s",
    "stream.stitch": "stream.stitch_s",
    "pool.dispatch": "pool.dispatch_s",
}

#: Name of the root span the workload loop opens around every op.
OP = "op"


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: Wrappers record only while active; the benchmark's own result
        #: checks after the timed loop run with recording stopped.
        self.active = True
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def open(self, name: str, op: int | None = None) -> tuple:
        """Start a span; returns the frame :meth:`close` needs."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent[3]
        frame = (self._next_id(), name, parent[0] if parent else None, op,
                 time.perf_counter())
        stack.append(frame)
        return frame

    def close(self, frame: tuple, tags: dict | None = None) -> float:
        end = time.perf_counter()
        self._stack().pop()
        span_id, name, parent, op, start = frame
        self.spans.append((span_id, name, start, end, parent, op, tags))
        return end

    def current_name(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def add_child(self, parent: tuple, name: str, start: float, end: float,
                  tags: dict | None = None) -> None:
        """Record a span the library timed itself (e.g. streaming stitch)."""
        self.spans.append(
            (self._next_id(), name, start, end, parent[0], parent[3], tags)
        )

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None):
        frame = self.open(name, op)
        try:
            yield frame
        finally:
            self.close(frame)


def _wrap(recorder: Recorder, name, fn, tagger=None, after=None):
    """Wrap ``fn`` in a span.  ``name`` may be a callable of the arguments.

    A call made while a span of the same name is open (a dispatcher that
    calls another wrapped dispatcher) is passed through, so each layer
    counts its outermost calls only.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name(*args, **kwargs) if callable(name) else name
        if not recorder.active or recorder.current_name() == span_name:
            return fn(*args, **kwargs)
        frame = recorder.open(span_name)
        tags = tagger(*args, **kwargs) if tagger is not None else None
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(frame, {"error": True})
            raise
        if after is not None:
            extra = after(recorder, frame, result)
            if extra:
                tags = {**(tags or {}), **extra}
        recorder.close(frame, tags)
        return result

    wrapper.__wrapped_by_perfbench__ = True
    return wrapper


def _patch(module_name: str, attr: str, wrapper_factory) -> None:
    owner = importlib.import_module(module_name)
    if "." in attr:
        class_name, attr = attr.split(".")
        owner = getattr(owner, class_name)
    original = getattr(owner, attr)
    if getattr(original, "__wrapped_by_perfbench__", False):
        return
    setattr(owner, attr, wrapper_factory(original))


def _score_name(problem, *args, **kwargs) -> str:
    return "core.score_1p" if problem.config.num_ports == 1 else "core.score_2p"


def _score_batch_tags(problem, placements, *args, **kwargs) -> dict:
    from repro.dwm.config import PortPolicy

    config = problem.config
    scalar = (
        config.port_policy is not PortPolicy.EAGER
        and len(config.port_offsets) > 1
    )
    return {"placements": len(placements), "scalar": len(placements) if scalar else 0}


def _simulate_engine(recorder, frame, result) -> dict:
    return {"scalar": int(result.details.get("engine") == "scalar")}


def _stream_name(*args, **kwargs) -> str:
    jobs = kwargs.get("jobs")
    return "stream.parallel" if jobs and jobs > 1 else "stream.seq"


def _stream_after(recorder, frame, result) -> dict:
    details = result.details
    stitch = float(details.get("stitch_seconds", 0.0))
    if stitch > 0.0:
        end = time.perf_counter()
        recorder.add_child(frame, "stream.stitch", end - stitch, end)
    return {"chunks": int(details.get("num_chunks", 0))}


def install(recorder: Recorder) -> None:
    """Wrap every measured public entry point of ``repro``."""
    w = functools.partial(_wrap, recorder)
    # Trace layer.
    _patch("repro.trace.binio", "pack", lambda f: w("trace.pack", f))
    # Memory layer: resolution (actual resolutions, not cache lookups) and
    # simulation.
    _patch("repro.memory.batch_sim", "ResolvedTrace.__init__",
           lambda f: w("memory.resolve", f))
    _patch("repro.memory.spm", "ScratchpadMemory.simulate",
           lambda f: w("memory.simulate", f, after=_simulate_engine))
    _patch("repro.memory.batch_sim", "simulate_vectorized",
           lambda f: w("memory.simulate", f, after=_simulate_engine))
    # Core staged API.
    _patch("repro.core.api", "resolve_placement", lambda f: w("core.resolve", f))
    _patch("repro.core.api", "plan_placement", lambda f: w("core.plan", f))
    _patch("repro.core.api", "execute_plan", lambda f: w("core.execute", f))
    # Candidate scoring, as imported by the three placement methods.
    for module in ("repro.core.heuristic", "repro.core.shiftsreduce",
                   "repro.core.generalized"):
        _patch(module, "evaluate_placements_fast",
               lambda f: w(_score_name, f, tagger=_score_batch_tags))
        _patch(module, "evaluate_placement",
               lambda f: w(_score_name, f,
                           tagger=lambda *a, **k: {"placements": 1, "scalar": 1}))
    # Local-search deltas: probes, applies and undos.
    for method, kind in (("swap_delta", "probe"), ("move_delta", "probe"),
                         ("reversal_delta", "probe"), ("apply_swap", "apply"),
                         ("apply_move", "apply"), ("apply_reversal", "apply"),
                         ("undo", "undo")):
        _patch("repro.core.incremental", f"CostEvaluator.{method}",
               lambda f, kind=kind: w("core.delta", f,
                                      tagger=lambda *a, **k: {kind: 1}))
    # Compiled kernels through the incremental dispatchers, wherever the
    # dispatcher names were imported.
    for module, names in (
        ("repro.core.incremental", ("two_port_access_costs",
                                    "multi_port_access_costs",
                                    "lazy_costs_from_state")),
        ("repro.memory.batch_sim", ("two_port_access_costs",
                                    "multi_port_access_costs")),
        ("repro.memory.stream_sim", ("lazy_costs_from_state",)),
    ):
        for attr in names:
            _patch(module, attr, lambda f: w("core.kernel", f))
    # Streaming engine and the worker pool.
    _patch("repro.memory.stream_sim", "simulate_streaming",
           lambda f: w(_stream_name, f, after=_stream_after))
    _patch("repro.analysis.pool", "WorkerPool.run",
           lambda f: w("pool.dispatch", f,
                       tagger=lambda self, fn, tasks, *a, **k: {"tasks": len(tasks)}))


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

def _self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    self_time = {span[0]: span[3] - span[2] for span in spans}
    for span in spans:
        parent = span[4]
        if parent is not None and parent in self_time:
            self_time[parent] -= span[3] - span[2]
    return self_time


def _tag_sum(spans, name: str, tag: str) -> int:
    return sum(
        (span[6] or {}).get(tag, 0) for span in spans if span[1] == name
    )


def layer_report(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics from one run's spans (setup and ops alike)."""
    self_time = _self_times(spans)
    report = {metric: 0.0 for metric in LAYER_SECONDS.values()}
    counts: dict[str, int] = {}
    for span in spans:
        name = span[1]
        counts[name] = counts.get(name, 0) + 1
        metric = LAYER_SECONDS.get(name)
        if metric is not None:
            report[metric] += self_time[span[0]]
    scored = _tag_sum(spans, "core.score_1p", "placements") + _tag_sum(
        spans, "core.score_2p", "placements"
    )
    scalar_scored = _tag_sum(spans, "core.score_1p", "scalar") + _tag_sum(
        spans, "core.score_2p", "scalar"
    )
    probes = _tag_sum(spans, "core.delta", "probe")
    kept = _tag_sum(spans, "core.delta", "apply") - _tag_sum(
        spans, "core.delta", "undo"
    )
    simulations = counts.get("memory.simulate", 0)
    report.update(
        {
            "memory.resolve_calls": counts.get("memory.resolve", 0),
            "core.plan_calls": counts.get("core.plan", 0),
            "core.score_placements": scored,
            "core.score_scalar_share": scalar_scored / scored if scored else 0.0,
            "core.delta_calls": probes,
            "core.ls_accept_ratio": kept / probes if probes else 0.0,
            "core.kernel_calls": counts.get("core.kernel", 0),
            "memory.simulate_calls": simulations,
            "memory.scalar_share": (
                _tag_sum(spans, "memory.simulate", "scalar") / simulations
                if simulations
                else 0.0
            ),
            "stream.chunks": _tag_sum(spans, "stream.seq", "chunks")
            + _tag_sum(spans, "stream.parallel", "chunks"),
            "pool.tasks": _tag_sum(spans, "pool.dispatch", "tasks"),
        }
    )
    ops = [span for span in spans if span[1] == OP]
    total = sum(span[3] - span[2] for span in ops)
    residual = sum(self_time[span[0]] for span in ops)
    report["unattributed_share"] = residual / total if total > 0 else 0.0
    return report


def span_tree(spans: list[tuple]) -> list[dict]:
    """Per-op span trees; same-named siblings fold into one node."""
    self_time = _self_times(spans)
    children: dict[int | None, list[tuple]] = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)

    def fold(group: list[tuple]) -> list[dict]:
        nodes: dict[str, dict] = {}
        kids: dict[str, list[tuple]] = {}
        for span in group:
            node = nodes.setdefault(
                span[1], {"name": span[1], "calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            node["calls"] += 1
            node["total_s"] += span[3] - span[2]
            node["self_s"] += self_time[span[0]]
            kids.setdefault(span[1], []).extend(children.get(span[0], []))
        for name, node in nodes.items():
            if kids[name]:
                node["children"] = fold(kids[name])
        return sorted(nodes.values(), key=lambda node: -node["total_s"])

    trees = []
    for span in children.get(None, []):
        entry = {
            "op": span[5],
            "name": span[1],
            "start_s": span[2],
            "total_s": span[3] - span[2],
            "self_s": self_time[span[0]],
            "tags": span[6] or {},
        }
        if children.get(span[0]):
            entry["children"] = fold(children[span[0]])
        trees.append(entry)
    return trees
