"""Parameter-sweep driver for the sensitivity experiments (E4, E5).

A sweep runs a set of placement methods over a grid of DWM geometries for a
set of traces, producing flat :class:`SweepRecord` rows that the experiment
harness aggregates into the paper's sensitivity figures.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from repro.analysis.checkpoint import CheckpointJournal, run_checkpointed, task_key
from repro.analysis.parallel import resolve_jobs
from repro.core.api import optimize_placement
from repro.dwm.config import DWMConfig
from repro.trace.model import AccessTrace


@dataclass(frozen=True)
class SweepRecord:
    """One (trace, geometry, method) measurement."""

    trace: str
    method: str
    words_per_dbc: int
    num_ports: int
    num_dbcs: int
    total_shifts: int
    num_accesses: int
    runtime_seconds: float

    @property
    def shifts_per_access(self) -> float:
        if not self.num_accesses:
            return 0.0
        return self.total_shifts / self.num_accesses


def _sweep_cell(task: tuple) -> SweepRecord:
    """Evaluate one (trace, geometry, method) grid cell.

    Top-level (picklable) so :func:`repro.analysis.parallel.parallel_map`
    can ship cells to pool workers under any start method.  A trace
    pickles as its resolved arrays (``AccessTrace.__reduce__``), so a
    worker receives it ready to optimize.
    """
    trace, words_per_dbc, num_ports, method, kwargs = task
    config = DWMConfig.for_items(
        trace.num_items,
        words_per_dbc=words_per_dbc,
        num_ports=num_ports,
    )
    result = optimize_placement(trace, config, method=method, **kwargs)
    return SweepRecord(
        trace=trace.name,
        method=method,
        words_per_dbc=words_per_dbc,
        num_ports=num_ports,
        num_dbcs=config.num_dbcs,
        total_shifts=result.total_shifts,
        num_accesses=len(trace),
        runtime_seconds=result.runtime_seconds,
    )


def _cell_key(task: tuple) -> str:
    """Checkpoint-journal content key of one sweep cell.

    Keyed on the trace *fingerprint* (content hash), never its name or
    identity, so serial, pooled and resumed runs generate identical
    journal keys.
    """
    trace, words_per_dbc, num_ports, method, kwargs = task
    return task_key(
        "sweep-cell",
        {
            "trace": trace.fingerprint(),
            "words_per_dbc": words_per_dbc,
            "num_ports": num_ports,
            "method": method,
            "kwargs": kwargs,
        },
    )


def sweep(
    traces: Iterable[AccessTrace],
    methods: Sequence[str] = ("declaration", "heuristic"),
    words_per_dbc_values: Sequence[int] = (64,),
    num_ports_values: Sequence[int] = (1,),
    jobs: int | None = None,
    timeout: float | None = None,
    retries: int = 0,
    checkpoint: CheckpointJournal | None = None,
    **kwargs,
) -> list[SweepRecord]:
    """Run every (trace × geometry × method) combination.

    ``jobs`` fans the grid out over a process pool (``None`` defers to the
    ``REPRO_JOBS`` environment variable; 1 runs serially).  Cells are
    independent, and results always come back in the serial nested-loop
    order, so the record list is identical for any job count.

    ``timeout``/``retries`` switch to the fault-tolerant runner: a cell
    that keeps hanging or crashing yields a
    :class:`~repro.analysis.parallel.TaskFailure` in its slot instead of
    killing the sweep.  ``checkpoint`` journals each completed cell (keyed
    by trace fingerprint + geometry + method) so an interrupted sweep
    resumes without recomputing.
    """
    effective_jobs = resolve_jobs(jobs)
    from repro.obs import trace_span

    tasks = [
        (trace, words_per_dbc, num_ports, method, kwargs)
        for trace in traces
        for words_per_dbc in words_per_dbc_values
        for num_ports in num_ports_values
        for method in methods
    ]
    keys = [_cell_key(task) for task in tasks] if checkpoint is not None else None
    with trace_span("sweep", cells=len(tasks)):
        return run_checkpointed(
            _sweep_cell,
            tasks,
            keys,
            checkpoint=checkpoint,
            encode=asdict,
            decode=lambda payload: SweepRecord(**payload),
            jobs=effective_jobs,
            timeout=timeout,
            retries=retries,
        )


def pivot(
    records: Iterable[SweepRecord],
    row_key: str,
    column_key: str,
    value: str = "total_shifts",
) -> dict:
    """Pivot sweep records into ``{row: {column: value}}``.

    ``row_key``/``column_key`` name :class:`SweepRecord` attributes; when
    several records collapse into one cell their values are summed (useful
    for aggregating over traces).
    """
    table: dict = {}
    for record in records:
        row = getattr(record, row_key)
        column = getattr(record, column_key)
        cell = table.setdefault(row, {})
        cell[column] = cell.get(column, 0) + getattr(record, value)
    return table


def normalized_by_method(
    records: Iterable[SweepRecord],
    baseline_method: str = "declaration",
) -> dict[tuple, dict[str, float]]:
    """Normalize each (trace, geometry) cell's methods to a baseline.

    Returns ``{(trace, L, P): {method: normalized_shifts}}``.
    """
    cells: dict[tuple, dict[str, int]] = {}
    for record in records:
        key = (record.trace, record.words_per_dbc, record.num_ports)
        cells.setdefault(key, {})[record.method] = record.total_shifts
    normalized: dict[tuple, dict[str, float]] = {}
    for key, methods in cells.items():
        baseline = methods.get(baseline_method)
        if baseline is None:
            continue
        if baseline == 0:
            normalized[key] = {
                method: (0.0 if shifts == 0 else float("inf"))
                for method, shifts in methods.items()
            }
        else:
            normalized[key] = {
                method: shifts / baseline for method, shifts in methods.items()
            }
    return normalized
