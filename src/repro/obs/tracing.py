"""Hierarchical wall-time tracing: ``trace_span()`` context managers.

The perf-critical paths are nested — an experiment runs a sweep, the sweep
fans cells out over ``parallel_map``, and each cell optimizes a placement
and simulates it.  Flat counters cannot show *where* inside that nesting
the time went; spans can.

Usage::

    from repro.obs import trace_span

    with trace_span("sweep", cells=len(tasks)):
        with trace_span("optimize", method="heuristic"):
            ...

Each completed span records its wall-clock duration and metadata.  Spans
nest per thread (a ``threading.local`` stack); a span that completes with
no parent becomes a *root* and is retained on the :class:`Tracer` (bounded
deque, oldest evicted).  Every span additionally feeds the histogram
``span.<name>.seconds`` in the process metrics registry, so aggregate span
timings travel with metric snapshots even when the tree itself is not
exported.

Tracing defaults to on; set ``REPRO_OBS=0`` to disable span *retention*
(the context managers become cheap pass-throughs that still time into the
histogram).  :func:`get_tracer` / :func:`set_tracer` mirror the registry
accessors.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Iterator

from repro.obs.metrics import get_registry

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "render_spans",
    "set_tracer",
    "trace_span",
]

#: ``REPRO_OBS=0`` disables span-tree retention (histograms still record).
OBS_ENV = "REPRO_OBS"

#: Completed root spans kept per tracer before the oldest are evicted.
MAX_ROOT_SPANS = 256

_FALSY = frozenset(("0", "false", "no", "off"))


class Span:
    """One timed region: name, duration, metadata, child spans."""

    __slots__ = ("name", "seconds", "meta", "children")

    def __init__(self, name: str, meta: dict | None = None) -> None:
        self.name = name
        self.seconds = 0.0
        self.meta = meta or {}
        self.children: list[Span] = []

    def as_dict(self) -> dict:
        """JSON-ready tree rooted at this span."""
        payload: dict = {"name": self.name, "seconds": self.seconds}
        if self.meta:
            payload["meta"] = {key: str(value) for key, value in self.meta.items()}
        if self.children:
            payload["children"] = [child.as_dict() for child in self.children]
        return payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name!r}, {self.seconds:.6f}s, {len(self.children)} children)"


class Tracer:
    """Per-process span collector with a bounded root-span history."""

    def __init__(self, max_roots: int = MAX_ROOT_SPANS) -> None:
        self._roots: deque[Span] = deque(maxlen=max_roots)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.enabled = os.environ.get(OBS_ENV, "").strip().lower() not in _FALSY

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **meta: object) -> Iterator[Span]:
        """Open one span; duration and tree linkage recorded on exit."""
        span = Span(name, dict(meta) if meta else None)
        stack = self._stack()
        stack.append(span)
        start = time.perf_counter()
        try:
            yield span
        finally:
            span.seconds = time.perf_counter() - start
            stack.pop()
            get_registry().observe(f"span.{name}.seconds", span.seconds)
            if self.enabled:
                if stack:
                    stack[-1].children.append(span)
                else:
                    with self._lock:
                        self._roots.append(span)

    def roots(self) -> tuple[Span, ...]:
        """Completed root spans, oldest first."""
        with self._lock:
            return tuple(self._roots)

    def reset(self) -> None:
        """Drop every retained root span."""
        with self._lock:
            self._roots.clear()

    def as_dicts(self) -> list[dict]:
        """JSON-ready list of retained root-span trees."""
        return [span.as_dict() for span in self.roots()]


def render_spans(spans: tuple[Span, ...] | list[Span], indent: int = 0) -> str:
    """Plain-text tree rendering of span durations (for ``repro obs dump``)."""
    lines: list[str] = []
    for span in spans:
        meta = ""
        if span.meta:
            inner = ", ".join(f"{key}={value}" for key, value in span.meta.items())
            meta = f"  [{inner}]"
        lines.append(f"{'  ' * indent}{span.name}: {span.seconds * 1e3:.3f} ms{meta}")
        if span.children:
            lines.append(render_spans(span.children, indent + 1))
    return "\n".join(lines)


_TRACER = Tracer()
_TRACER_LOCK = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer; returns the previous one."""
    global _TRACER
    with _TRACER_LOCK:
        previous = _TRACER
        _TRACER = tracer
    return previous


@contextmanager
def trace_span(name: str, **meta: object) -> Iterator[Span]:
    """Open a span on the process-wide tracer (the usual entry point)."""
    with get_tracer().span(name, **meta) as span:
        yield span
