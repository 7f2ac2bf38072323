"""Design-space exploration driver with Pareto filtering.

Generalises the sweep harness into the study an architect actually runs:
enumerate DWM geometries (DBC length × ports × shift policy), evaluate each
with a chosen placement method, collect latency / energy / an area proxy,
and keep the Pareto-efficient designs.

The **area proxy** follows the standard racetrack argument: cell area is
dominated by ports (each port is an access transistor stack on every tape),
so a DBC with `P` ports amortised over `L` words costs roughly
``1 + port_area_factor · P / L`` relative area per bit.  Absolute numbers
are not the point — the *ordering* of designs is, and that only needs the
ratio.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from repro.analysis.checkpoint import CheckpointJournal, run_checkpointed, task_key
from repro.analysis.parallel import resolve_jobs
from repro.core.api import optimize_placement
from repro.dwm.config import DWMConfig, PortPolicy
from repro.dwm.energy import DWMEnergyModel
from repro.errors import OptimizationError
from repro.memory.spm import ScratchpadMemory
from repro.trace.model import AccessTrace

#: Relative area of one access port vs one storage domain, per tape.
PORT_AREA_FACTOR = 6.0


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated geometry."""

    words_per_dbc: int
    num_ports: int
    policy: str
    num_dbcs: int
    total_shifts: int
    latency_ns: float
    energy_pj: float
    area_per_bit: float

    @property
    def label(self) -> str:
        return f"L={self.words_per_dbc},P={self.num_ports},{self.policy}"

    def objectives(self) -> tuple[float, float, float]:
        """(latency, energy, area) — all minimised."""
        return (self.latency_ns, self.energy_pj, self.area_per_bit)


def area_per_bit(words_per_dbc: int, num_ports: int) -> float:
    """Relative cell area per stored bit (see module docstring)."""
    if words_per_dbc <= 0 or num_ports <= 0:
        raise OptimizationError("geometry parameters must be positive")
    return 1.0 + PORT_AREA_FACTOR * num_ports / words_per_dbc


def _explore_point(task: tuple) -> DesignPoint:
    """Evaluate one geometry (top-level so pool workers can unpickle it;
    the trace travels as its resolved arrays, as in
    :func:`repro.analysis.sweep._sweep_cell`)."""
    trace, length, port_count, policy, method, energy_model = task
    config = DWMConfig.for_items(
        trace.num_items,
        words_per_dbc=length,
        num_ports=port_count,
        port_policy=policy,
    )
    result = optimize_placement(trace, config, method=method)
    sim = ScratchpadMemory(config, result.placement).simulate(trace)
    breakdown = sim.energy(energy_model)
    return DesignPoint(
        words_per_dbc=length,
        num_ports=port_count,
        policy=PortPolicy.parse(policy).value,
        num_dbcs=config.num_dbcs,
        total_shifts=sim.shifts,
        latency_ns=breakdown.latency_ns,
        energy_pj=breakdown.total_energy_pj,
        area_per_bit=area_per_bit(length, port_count),
    )


def _point_key(task: tuple) -> str:
    """Checkpoint-journal content key of one design point (fingerprint-
    keyed, so serial and pooled runs journal identically)."""
    trace, length, port_count, policy, method, energy_model = task
    return task_key(
        "dse-point",
        {
            "trace": trace.fingerprint(),
            "length": length,
            "ports": port_count,
            "policy": str(policy),
            "method": method,
            "energy": repr(energy_model.params),
        },
    )


def explore(
    trace: AccessTrace,
    lengths: Sequence[int] = (16, 32, 64),
    ports: Sequence[int] = (1, 2, 4),
    policies: Sequence[str] = ("lazy",),
    method: str = "heuristic",
    energy_model: DWMEnergyModel | None = None,
    jobs: int | None = None,
    timeout: float | None = None,
    retries: int = 0,
    checkpoint: CheckpointJournal | None = None,
) -> list[DesignPoint]:
    """Evaluate every geometry in the grid with the given placement method.

    ``jobs`` fans design points out over a process pool (``None`` defers to
    ``REPRO_JOBS``); point order is identical for any job count.
    ``timeout``/``retries``/``checkpoint`` behave as in
    :func:`repro.analysis.sweep.sweep`: poisoned points degrade to
    :class:`~repro.analysis.parallel.TaskFailure` slots, and journaled
    points are restored on resume instead of recomputed.
    """
    energy_model = energy_model or DWMEnergyModel()
    effective_jobs = resolve_jobs(jobs)
    tasks = [
        (trace, length, port_count, policy, method, energy_model)
        for length in lengths
        for port_count in ports
        if port_count <= length
        for policy in policies
    ]
    keys = [_point_key(task) for task in tasks] if checkpoint is not None else None
    return run_checkpointed(
        _explore_point,
        tasks,
        keys,
        checkpoint=checkpoint,
        encode=asdict,
        decode=lambda payload: DesignPoint(**payload),
        jobs=effective_jobs,
        timeout=timeout,
        retries=retries,
    )


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True if objective vector ``a`` Pareto-dominates ``b`` (minimisation)."""
    if len(a) != len(b):
        raise OptimizationError("objective vectors must have equal length")
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def pareto_front(points: Iterable[DesignPoint]) -> list[DesignPoint]:
    """The non-dominated subset, in the input order."""
    points = list(points)
    front: list[DesignPoint] = []
    for candidate in points:
        if any(
            dominates(other.objectives(), candidate.objectives())
            for other in points
            if other is not candidate
        ):
            continue
        front.append(candidate)
    return front


def knee_point(front: Sequence[DesignPoint]) -> DesignPoint:
    """Balanced pick from a front: minimal normalised L2 distance to utopia."""
    front = list(front)
    if not front:
        raise OptimizationError("empty Pareto front")
    objectives = [point.objectives() for point in front]
    dimensions = len(objectives[0])
    lows = [min(o[d] for o in objectives) for d in range(dimensions)]
    highs = [max(o[d] for o in objectives) for d in range(dimensions)]

    def distance(o: Sequence[float]) -> float:
        total = 0.0
        for d in range(dimensions):
            span = highs[d] - lows[d]
            normalised = 0.0 if span == 0 else (o[d] - lows[d]) / span
            total += normalised * normalised
        return total

    best_index = min(range(len(front)), key=lambda i: distance(objectives[i]))
    return front[best_index]


def render_front(points: Sequence[DesignPoint], front: Sequence[DesignPoint]) -> str:
    """ASCII table of all points with the Pareto-efficient ones marked."""
    from repro.analysis.report import format_table

    efficient = {id(point) for point in front}
    rows = [
        (
            "*" if id(point) in efficient else "",
            point.label,
            point.num_dbcs,
            point.total_shifts,
            point.latency_ns,
            point.energy_pj,
            point.area_per_bit,
        )
        for point in points
    ]
    return format_table(
        ("", "design", "DBCs", "shifts", "latency (ns)", "energy (pJ)",
         "area/bit"),
        rows,
        title="Design-space exploration (* = Pareto-efficient)",
    )
