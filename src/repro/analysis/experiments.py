"""Experiment harness: regenerates every evaluation artifact (E1–E10).

Each ``run_eN()`` function computes one experiment from DESIGN.md §5 and
returns an :class:`ExperimentOutput` holding both the structured data (for
tests and EXPERIMENTS.md) and a rendered table/figure string matching what
the paper reports.  ``python -m repro.analysis.experiments e3`` prints one
experiment; ``all`` prints every one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.analysis.metrics import geometric_mean, reduction_percent
from repro.analysis.report import format_bar_chart, format_grouped_bars, format_table
from repro.analysis.sweep import normalized_by_method, sweep
from repro.core.api import build_problem, optimize_placement
from repro.core.baselines import random_placement_mean_shifts
from repro.core.cost import evaluate_placements_fast
from repro.dwm.config import DWMConfig
from repro.dwm.energy import DWMEnergyModel, SRAMEnergyModel
from repro.memory.spm import ScratchpadMemory
from repro.memory.sram import SRAMScratchpad
from repro.trace.kernels import SWEEP_KERNELS, benchmark_suite
from repro.trace.model import AccessTrace
from repro.trace.stats import compute_stats, shift_locality_score
from repro.trace.synthetic import markov_trace, pingpong_trace, zipf_trace


@dataclass
class ExperimentOutput:
    """Structured data plus rendered text for one experiment."""

    experiment_id: str
    title: str
    data: dict = field(default_factory=dict)
    rendered: str = ""

    def __str__(self) -> str:
        return self.rendered


def _default_config(trace: AccessTrace, words_per_dbc: int = 64, num_ports: int = 1) -> DWMConfig:
    return DWMConfig.for_items(
        trace.num_items, words_per_dbc=words_per_dbc, num_ports=num_ports
    )


# ---------------------------------------------------------------------------
# E1 — benchmark characteristics table
# ---------------------------------------------------------------------------

def run_e1() -> ExperimentOutput:
    """Table 1: benchmark characteristics."""
    suite = benchmark_suite()
    rows = []
    data = {}
    for name, trace in suite.items():
        stats = compute_stats(trace)
        locality = shift_locality_score(trace)
        rows.append(
            (
                name,
                stats.num_items,
                stats.num_accesses,
                stats.reads,
                stats.writes,
                stats.mean_reuse_distance,
                locality,
            )
        )
        data[name] = {
            "items": stats.num_items,
            "accesses": stats.num_accesses,
            "reads": stats.reads,
            "writes": stats.writes,
            "mean_reuse_distance": stats.mean_reuse_distance,
            "locality_score": locality,
        }
    rendered = format_table(
        ("benchmark", "items", "accesses", "reads", "writes",
         "mean reuse dist", "locality"),
        rows,
        title="E1 (Table 1) — Benchmark characteristics",
    )
    return ExperimentOutput("e1", "Benchmark characteristics", data, rendered)


# ---------------------------------------------------------------------------
# E2 — motivation: shift share under naive placement
# ---------------------------------------------------------------------------

def run_e2() -> ExperimentOutput:
    """Motivation figure: shift share of latency/energy, naive placement."""
    suite = benchmark_suite()
    energy_model = DWMEnergyModel()
    data = {}
    rows = []
    for name, trace in suite.items():
        config = _default_config(trace)
        result = optimize_placement(trace, config, method="declaration")
        spm = ScratchpadMemory(config, result.placement)
        sim = spm.simulate(trace)
        breakdown = sim.energy(energy_model)
        data[name] = {
            "shifts_per_access": sim.shifts_per_access,
            "shift_latency_share": breakdown.shift_latency_share,
            "shift_energy_share": breakdown.shift_energy_share,
        }
        rows.append(
            (
                name,
                sim.shifts_per_access,
                100 * breakdown.shift_latency_share,
                100 * breakdown.shift_energy_share,
            )
        )
    rendered = format_table(
        ("benchmark", "shifts/access", "shift latency %", "shift energy %"),
        rows,
        title="E2 (motivation) — Shift cost share under declaration placement",
    )
    return ExperimentOutput("e2", "Shift share under naive placement", data, rendered)


# ---------------------------------------------------------------------------
# E3 — main result: normalized shift count
# ---------------------------------------------------------------------------

E3_METHODS = ("random", "frequency", "spectral", "heuristic")


def run_e3() -> ExperimentOutput:
    """Main-result figure: shift counts normalized to declaration order."""
    suite = benchmark_suite()
    data: dict[str, dict[str, float]] = {}
    for name, trace in suite.items():
        config = _default_config(trace)
        baseline = optimize_placement(trace, config, method="declaration")
        normalized = {"declaration": 1.0}
        normalized["random"] = (
            random_placement_mean_shifts(
                build_problem(trace, config), seeds=(0, 1, 2)
            )
            / baseline.total_shifts
            if baseline.total_shifts
            else 0.0
        )
        for method in ("frequency", "spectral", "heuristic"):
            result = optimize_placement(trace, config, method=method)
            normalized[method] = (
                result.total_shifts / baseline.total_shifts
                if baseline.total_shifts
                else 0.0
            )
        data[name] = normalized
    methods = ("declaration", "random", "frequency", "spectral", "heuristic")
    data["geomean"] = {
        method: geometric_mean(
            row[method] for key, row in data.items() if key != "geomean"
        )
        for method in methods
    }
    rendered = format_grouped_bars(
        data,
        title=(
            "E3 (main result) — Shift operations normalized to declaration "
            "placement (lower is better)"
        ),
    )
    return ExperimentOutput("e3", "Normalized shift count", data, rendered)


# ---------------------------------------------------------------------------
# E4 / E5 — sensitivity to DBC length and port count
# ---------------------------------------------------------------------------

def run_e4(lengths=(16, 32, 64, 128)) -> ExperimentOutput:
    """Sensitivity of the shift reduction to DBC length L."""
    traces = list(benchmark_suite(SWEEP_KERNELS).values())
    records = sweep(
        traces,
        methods=("declaration", "heuristic"),
        words_per_dbc_values=lengths,
    )
    normalized = normalized_by_method(records)
    data: dict[int, float] = {}
    for length in lengths:
        cells = [
            row["heuristic"]
            for (trace, l_value, _p), row in normalized.items()
            if l_value == length
        ]
        data[length] = geometric_mean(cells)
    rendered = format_bar_chart(
        {f"L={length}": value for length, value in data.items()},
        title=(
            "E4 — Heuristic shifts normalized to declaration vs DBC length "
            "(geomean over kernels)"
        ),
    )
    return ExperimentOutput("e4", "Sensitivity to DBC length", {"normalized": data}, rendered)


def run_e5(port_counts=(1, 2, 4)) -> ExperimentOutput:
    """Sensitivity of the shift reduction to the number of access ports."""
    traces = list(benchmark_suite(SWEEP_KERNELS).values())
    records = sweep(
        traces,
        methods=("declaration", "heuristic"),
        num_ports_values=port_counts,
    )
    normalized = normalized_by_method(records)
    data: dict[int, dict[str, float]] = {}
    for ports in port_counts:
        cells = [
            row["heuristic"]
            for (trace, _l, p_value), row in normalized.items()
            if p_value == ports
        ]
        absolute = [
            record.total_shifts
            for record in records
            if record.num_ports == ports and record.method == "declaration"
        ]
        data[ports] = {
            "normalized_heuristic": geometric_mean(cells),
            "baseline_total_shifts": float(sum(absolute)),
        }
    rendered = format_table(
        ("ports", "heuristic/declaration", "declaration total shifts"),
        [
            (p, row["normalized_heuristic"], int(row["baseline_total_shifts"]))
            for p, row in data.items()
        ],
        title="E5 — Sensitivity to access-port count (geomean over kernels)",
    )
    return ExperimentOutput("e5", "Sensitivity to port count", {"by_ports": data}, rendered)


# ---------------------------------------------------------------------------
# E6 / E7 — energy and performance
# ---------------------------------------------------------------------------

def run_e6() -> ExperimentOutput:
    """Energy figure: total DWM energy normalized to declaration + SRAM ref."""
    suite = benchmark_suite()
    dwm_model = DWMEnergyModel()
    sram_model = SRAMEnergyModel()
    data: dict[str, dict[str, float]] = {}
    for name, trace in suite.items():
        config = _default_config(trace)
        decl = optimize_placement(trace, config, method="declaration")
        heur = optimize_placement(trace, config, method="heuristic")
        spm_decl = ScratchpadMemory(config, decl.placement).simulate(trace)
        spm_heur = ScratchpadMemory(config, heur.placement).simulate(trace)
        sram = SRAMScratchpad(config.capacity_words, sram_model).simulate(trace)
        e_decl = spm_decl.energy(dwm_model).total_energy_pj
        e_heur = spm_heur.energy(dwm_model).total_energy_pj
        e_sram = sram.sram_reference(sram_model).total_energy_pj
        data[name] = {
            "declaration": 1.0,
            "heuristic": e_heur / e_decl if e_decl else 0.0,
            "sram": e_sram / e_decl if e_decl else 0.0,
        }
    data["geomean"] = {
        method: geometric_mean(
            row[method] for key, row in data.items() if key != "geomean"
        )
        for method in ("declaration", "heuristic", "sram")
    }
    rendered = format_grouped_bars(
        data,
        title="E6 — Total energy normalized to DWM+declaration (lower is better)",
    )
    return ExperimentOutput("e6", "Energy reduction", data, rendered)


def run_e7() -> ExperimentOutput:
    """Performance figure: access latency normalized to declaration."""
    suite = benchmark_suite()
    model = DWMEnergyModel()
    data: dict[str, dict[str, float]] = {}
    for name, trace in suite.items():
        config = _default_config(trace)
        decl = optimize_placement(trace, config, method="declaration")
        heur = optimize_placement(trace, config, method="heuristic")
        lat_decl = (
            ScratchpadMemory(config, decl.placement)
            .simulate(trace)
            .energy(model)
            .latency_ns
        )
        lat_heur = (
            ScratchpadMemory(config, heur.placement)
            .simulate(trace)
            .energy(model)
            .latency_ns
        )
        data[name] = {
            "normalized_latency": lat_heur / lat_decl if lat_decl else 0.0,
            "speedup": lat_decl / lat_heur if lat_heur else float("inf"),
        }
    data["geomean"] = {
        "normalized_latency": geometric_mean(
            row["normalized_latency"] for key, row in data.items() if key != "geomean"
        ),
        "speedup": geometric_mean(
            row["speedup"] for key, row in data.items() if key != "geomean"
        ),
    }
    rendered = format_table(
        ("benchmark", "latency (heur/decl)", "speedup"),
        [
            (name, row["normalized_latency"], row["speedup"])
            for name, row in data.items()
        ],
        title="E7 — Access latency normalized to declaration placement",
    )
    return ExperimentOutput("e7", "Performance improvement", data, rendered)


# ---------------------------------------------------------------------------
# E8 — heuristic vs exact optimum on small instances
# ---------------------------------------------------------------------------

def _small_instances() -> list[AccessTrace]:
    """Small single-DBC instances where the exact optimum is computable."""
    instances = [
        markov_trace(8, 160, locality=0.85, seed=7).renamed("markov8"),
        markov_trace(10, 200, locality=0.75, seed=11).renamed("markov10"),
        zipf_trace(9, 180, alpha=1.1, seed=3).renamed("zipf9"),
        pingpong_trace(4, 24).renamed("pingpong4"),
    ]
    from repro.trace.kernels import fir_trace, histogram_trace

    instances.append(
        fir_trace(taps=4, samples=16).top_items(9).renamed("fir-small")
    )
    instances.append(
        histogram_trace(bins=8, samples=64).top_items(9).renamed("hist-small")
    )
    return instances


def _multi_dbc_instances() -> list[tuple[AccessTrace, DWMConfig]]:
    """Multi-DBC small instances for the set-partition exact optimum."""
    port_zero = (0,)
    return [
        (
            markov_trace(10, 200, locality=0.8, seed=21).renamed("markov10x3"),
            DWMConfig(words_per_dbc=4, num_dbcs=3, port_offsets=port_zero),
        ),
        (
            pingpong_trace(4, 20).renamed("pingpong4x4"),
            DWMConfig(words_per_dbc=4, num_dbcs=4, port_offsets=port_zero),
        ),
        (
            zipf_trace(11, 220, alpha=1.2, seed=22).renamed("zipf11x3"),
            DWMConfig(words_per_dbc=4, num_dbcs=3, port_offsets=port_zero),
        ),
    ]


def run_e8() -> ExperimentOutput:
    """Table: heuristic vs exact optimum (single- and multi-DBC instances)."""
    data: dict[str, dict[str, float]] = {}
    rows = []
    for trace in _small_instances():
        config = DWMConfig(words_per_dbc=16, num_dbcs=1)
        exact = optimize_placement(trace, config, method="exact")
        heuristic = optimize_placement(trace, config, method="heuristic")
        refined = optimize_placement(trace, config, method="heuristic+ls")
        gap = (
            100.0 * (heuristic.total_shifts - exact.total_shifts) / exact.total_shifts
            if exact.total_shifts
            else 0.0
        )
        gap_refined = (
            100.0 * (refined.total_shifts - exact.total_shifts) / exact.total_shifts
            if exact.total_shifts
            else 0.0
        )
        data[trace.name] = {
            "exact": exact.total_shifts,
            "heuristic": heuristic.total_shifts,
            "heuristic+ls": refined.total_shifts,
            "gap_percent": gap,
            "gap_refined_percent": gap_refined,
        }
        rows.append(
            (
                trace.name,
                trace.num_items,
                exact.total_shifts,
                heuristic.total_shifts,
                gap,
                refined.total_shifts,
                gap_refined,
            )
        )
    for trace, config in _multi_dbc_instances():
        exact = optimize_placement(trace, config, method="exact")
        heuristic = optimize_placement(trace, config, method="heuristic")
        refined = optimize_placement(
            trace, config, method="heuristic+ls", max_evaluations=2000
        )
        gap = (
            100.0 * (heuristic.total_shifts - exact.total_shifts)
            / exact.total_shifts
            if exact.total_shifts
            else 0.0
        )
        gap_refined = (
            100.0 * (refined.total_shifts - exact.total_shifts)
            / exact.total_shifts
            if exact.total_shifts
            else 0.0
        )
        data[trace.name] = {
            "exact": exact.total_shifts,
            "heuristic": heuristic.total_shifts,
            "heuristic+ls": refined.total_shifts,
            "gap_percent": gap,
            "gap_refined_percent": gap_refined,
        }
        rows.append(
            (
                trace.name,
                trace.num_items,
                exact.total_shifts,
                heuristic.total_shifts,
                gap,
                refined.total_shifts,
                gap_refined,
            )
        )
    rendered = format_table(
        ("instance", "items", "OPT shifts", "heuristic", "gap %",
         "heur+ls", "gap+ls %"),
        rows,
        title=(
            "E8 — Heuristic vs exact optimum (single-DBC DP + multi-DBC "
            "partition DP)"
        ),
    )
    return ExperimentOutput("e8", "Optimality gap", data, rendered)


# ---------------------------------------------------------------------------
# E9 — placement-algorithm runtime scaling
# ---------------------------------------------------------------------------

def run_e9(sizes=(16, 32, 64, 128), methods=("frequency", "spectral", "heuristic")) -> ExperimentOutput:
    """Table: algorithm runtime vs problem size on synthetic traces."""
    from repro.analysis.cache import placement_cache_disabled

    data: dict[int, dict[str, float]] = {}
    rows = []
    # E9 measures optimizer runtime; a warm placement cache would turn it
    # into a disk-read benchmark, so caching is forced off here.
    with placement_cache_disabled():
        for size in sizes:
            trace = markov_trace(size, size * 30, locality=0.8, seed=size)
            config = DWMConfig.for_items(size, words_per_dbc=32)
            row: dict[str, float] = {}
            for method in methods:
                start = time.perf_counter()
                optimize_placement(trace, config, method=method)
                row[method] = time.perf_counter() - start
            data[size] = row
            rows.append((size,) + tuple(row[m] for m in methods))
    rendered = format_table(
        ("items",) + tuple(f"{m} (s)" for m in methods),
        rows,
        title="E9 — Placement runtime scaling (synthetic Markov traces)",
        float_format="{:.4f}",
    )
    return ExperimentOutput("e9", "Placement runtime", {"by_size": data}, rendered)


# ---------------------------------------------------------------------------
# E10 — ablation: grouping vs ordering vs combined
# ---------------------------------------------------------------------------

E10_METHODS = ("grouping_only", "ordering_only", "heuristic", "heuristic+ls")


def run_e10() -> ExperimentOutput:
    """Ablation: each phase's contribution, normalized to declaration."""
    suite = benchmark_suite(SWEEP_KERNELS)
    data: dict[str, dict[str, float]] = {}
    for name, trace in suite.items():
        config = _default_config(trace)
        baseline = optimize_placement(trace, config, method="declaration")
        row = {"declaration": 1.0}
        for method in E10_METHODS:
            kwargs = {"max_evaluations": 600} if method == "heuristic+ls" else {}
            result = optimize_placement(trace, config, method=method, **kwargs)
            row[method] = (
                result.total_shifts / baseline.total_shifts
                if baseline.total_shifts
                else 0.0
            )
        data[name] = row
    data["geomean"] = {
        method: geometric_mean(
            row[method] for key, row in data.items() if key != "geomean"
        )
        for method in ("declaration",) + E10_METHODS
    }
    rendered = format_grouped_bars(
        data,
        title="E10 — Ablation: phase contributions (shifts normalized to declaration)",
    )
    return ExperimentOutput("e10", "Phase ablation", data, rendered)


# ---------------------------------------------------------------------------
# E11 — controller timing: shift overlap across DBCs (extension)
# ---------------------------------------------------------------------------

def run_e11() -> ExperimentOutput:
    """Cycle counts: serialised vs overlapped controller, per kernel.

    Extension experiment: the headline latency model serialises all events;
    a controller with per-DBC shift drivers overlaps one DBC's shifting with
    another's port access.  Reported for an in-order core (blocking loads)
    and a decoupled core (non-blocking loads).
    """
    from repro.memory.timing import TimingParams, TimingSimulator

    suite = benchmark_suite(SWEEP_KERNELS)
    data: dict[str, dict[str, float]] = {}
    rows = []
    for name, trace in suite.items():
        config = _default_config(trace, words_per_dbc=16)
        result = optimize_placement(trace, config, method="heuristic")
        blocking = TimingSimulator(config, result.placement, TimingParams())
        decoupled = TimingSimulator(
            config, result.placement, TimingParams(blocking_loads=False)
        )
        serial = blocking.run(trace, overlap=False)
        over_blocking = blocking.run(trace, overlap=True)
        over_decoupled = decoupled.run(trace, overlap=True)
        data[name] = {
            "serial_cycles": serial.total_cycles,
            "overlap_blocking": over_blocking.total_cycles,
            "overlap_decoupled": over_decoupled.total_cycles,
            "speedup_blocking": over_blocking.speedup_over(serial),
            "speedup_decoupled": over_decoupled.speedup_over(serial),
        }
        rows.append(
            (
                name,
                serial.total_cycles,
                over_blocking.total_cycles,
                data[name]["speedup_blocking"],
                over_decoupled.total_cycles,
                data[name]["speedup_decoupled"],
            )
        )
    geo_blocking = geometric_mean(
        row["speedup_blocking"] for row in data.values()
    )
    geo_decoupled = geometric_mean(
        row["speedup_decoupled"] for row in data.values()
    )
    rows.append(("geomean", "", "", geo_blocking, "", geo_decoupled))
    data["geomean"] = {
        "speedup_blocking": geo_blocking,
        "speedup_decoupled": geo_decoupled,
    }
    rendered = format_table(
        ("benchmark", "serial cyc", "overlap cyc", "speedup",
         "decoupled cyc", "speedup (nb loads)"),
        rows,
        title="E11 (extension) — Shift/access overlap across DBCs",
    )
    return ExperimentOutput("e11", "Controller overlap", data, rendered)


# ---------------------------------------------------------------------------
# E12 — wear balance of shift-minimizing placement (extension)
# ---------------------------------------------------------------------------

def run_e12() -> ExperimentOutput:
    """Wear imbalance: heuristic vs wear-aware re-balancing.

    Extension experiment: shift-minimizing placement concentrates shifts on
    few DBCs; the wear-aware variant levels the exposure for a bounded shift
    overhead (the trade wear-leveling follow-up work formalises).
    """
    from repro.analysis.wear import wear_aware_placement, wear_report
    from repro.core.api import build_problem

    suite = benchmark_suite(SWEEP_KERNELS)
    data: dict[str, dict[str, float]] = {}
    rows = []
    for name, trace in suite.items():
        config = _default_config(trace, words_per_dbc=16)
        problem = build_problem(trace, config)
        heuristic = optimize_placement(trace, config, method="heuristic")
        heuristic_wear = wear_report(problem, heuristic.placement)
        balanced = wear_aware_placement(problem)
        balanced_wear = wear_report(problem, balanced)
        (balanced_shifts,) = evaluate_placements_fast(
            problem, [balanced], validate=False
        )
        overhead = (
            100.0 * (balanced_shifts - heuristic.total_shifts)
            / heuristic.total_shifts
            if heuristic.total_shifts
            else 0.0
        )
        data[name] = {
            "heuristic_ratio": heuristic_wear.max_mean_shift_ratio,
            "balanced_ratio": balanced_wear.max_mean_shift_ratio,
            "shift_overhead_percent": overhead,
        }
        rows.append(
            (
                name,
                heuristic_wear.max_mean_shift_ratio,
                balanced_wear.max_mean_shift_ratio,
                overhead,
            )
        )
    data["geomean"] = {
        "heuristic_ratio": geometric_mean(
            row["heuristic_ratio"] for row in data.values()
        ),
        "balanced_ratio": geometric_mean(
            row["balanced_ratio"] for row in data.values()
        ),
    }
    rows.append(
        ("geomean", data["geomean"]["heuristic_ratio"],
         data["geomean"]["balanced_ratio"], "")
    )
    rendered = format_table(
        ("benchmark", "max/mean wear (heuristic)", "max/mean wear (balanced)",
         "shift overhead %"),
        rows,
        title="E12 (extension) — Wear balance vs shift minimality",
    )
    return ExperimentOutput("e12", "Wear balance", data, rendered)


# ---------------------------------------------------------------------------
# E13 — static vs online placement on phase-changing workloads (extension)
# ---------------------------------------------------------------------------

def run_e13(window: int = 500) -> ExperimentOutput:
    """Static-profile vs oracle-static vs online-adaptive placement.

    Extension experiment (the future-work direction of static-placement
    papers): three long program phases over disjoint working sets.  A
    placement profiled on the first phase decays badly; the online placer
    re-optimizes per window, paying measured migration costs, and approaches
    the whole-trace oracle.
    """
    from repro.core.online import compare_static_vs_online

    phase_a = markov_trace(40, 4000, locality=0.9, seed=1).prefixed("a_")
    phase_b = markov_trace(40, 4000, locality=0.9, seed=2).prefixed("b_")
    phase_c = zipf_trace(40, 4000, alpha=1.3, seed=3).prefixed("c_")
    trace = phase_a.concatenated(phase_b).concatenated(phase_c).renamed(
        "phased(3x4000)"
    )
    config = DWMConfig.for_items(trace.num_items, words_per_dbc=16)
    comparison = compare_static_vs_online(trace, config, window=window)
    rendered = format_table(
        ("policy", "total shifts"),
        [
            ("static (first-phase profile)", comparison["static_first_window"]),
            ("online adaptive (incl. migration)", comparison["online"]),
            ("  of which migration", comparison["online_migration"]),
            ("oracle static (whole trace)", comparison["oracle_static"]),
        ],
        title=(
            f"E13 (extension) — Phase-changing workload, window={window} "
            f"({comparison['online_replacements']} re-placements)"
        ),
    )
    return ExperimentOutput("e13", "Online vs static placement", comparison, rendered)


# ---------------------------------------------------------------------------
# E14 — SPM allocation under capacity pressure (extension)
# ---------------------------------------------------------------------------

def run_e14(fractions=(0.25, 0.5, 0.75, 1.0)) -> ExperimentOutput:
    """Capacity sweep: allocation + placement vs background memory.

    Extension experiment: when the working set exceeds the scratchpad, a
    knapsack allocator picks resident objects and the placement method of
    the resident set decides how much of the DWM advantage survives.  At low
    capacity the background-memory latency dominates; as capacity grows,
    shift costs dominate and shift-aware placement opens a gap.
    """
    from repro.core.allocation import allocate, partition_objects, simulate_allocation

    trace = benchmark_suite(("dct8x8",))["dct8x8"]
    total_words = sum(
        obj.size_words for obj in partition_objects(trace)
    )
    data: dict[float, dict[str, float]] = {}
    rows = []
    for fraction in fractions:
        capacity = max(16, int(total_words * fraction))
        config = DWMConfig(words_per_dbc=16, num_dbcs=max(1, capacity // 16))
        cell: dict[str, float] = {}
        for method in ("declaration", "heuristic"):
            allocation = allocate(
                trace, config, policy="oblivious", placement_method=method
            )
            sim = simulate_allocation(trace, config, allocation)
            cell[f"latency_{method}"] = sim.total_latency_ns
            cell["hit_fraction"] = sim.spm_hit_fraction
            cell[f"spm_shifts_{method}"] = sim.spm_shifts
        data[fraction] = cell
        rows.append(
            (
                f"{int(100 * fraction)}%",
                config.capacity_words,
                f"{cell['hit_fraction']:.2f}",
                cell["latency_declaration"],
                cell["latency_heuristic"],
                cell["latency_heuristic"] / cell["latency_declaration"],
            )
        )
    rendered = format_table(
        ("capacity", "words", "SPM hit frac", "latency decl (ns)",
         "latency heur (ns)", "ratio"),
        rows,
        title="E14 (extension) — SPM allocation under capacity pressure (dct8x8)",
    )
    return ExperimentOutput("e14", "Allocation capacity sweep", {"by_fraction": data}, rendered)


# ---------------------------------------------------------------------------
# E15 — runtime reorganisation vs static layout in a DWM cache (extension)
# ---------------------------------------------------------------------------

def run_e15() -> ExperimentOutput:
    """DWM cache: static slot layout vs self-organising promotion.

    Extension experiment with a *negative* result that motivates the paper's
    approach: in a set-associative DWM cache with LRU-victim filling and
    honest swap accounting, runtime reorganisation (transposition promotion,
    MRU-at-port) costs more device work than it saves — head persistence
    already absorbs repeat-access locality — so compile-time placement, not
    hardware reshuffling, is the right lever for shift reduction.
    """
    from repro.dwm.config import DWMConfig as _DWMConfig
    from repro.memory.cache import CacheGeometry, compare_cache_policies

    geometry = CacheGeometry(
        num_sets=4,
        ways=16,
        dbc_config=_DWMConfig(
            words_per_dbc=64, num_dbcs=4, port_offsets=(0,)
        ),
    )
    workloads = {
        "zipf(a=1.0)": zipf_trace(400, 8000, alpha=1.0, seed=5),
        "zipf(a=1.5)": zipf_trace(400, 8000, alpha=1.5, seed=5),
        "markov": markov_trace(200, 8000, locality=0.8, seed=6),
    }
    for name, trace in benchmark_suite(("fir", "matmul", "kmp")).items():
        workloads[name] = trace
    data: dict[str, dict[str, float]] = {}
    rows = []
    for name, trace in workloads.items():
        results = compare_cache_policies(trace, geometry)
        static = results["static"]
        data[name] = {
            "hit_rate": static.hit_rate,
            "static_shifts": static.shifts,
            "promote_ratio": (
                results["promote"].shifts / static.shifts
                if static.shifts
                else 1.0
            ),
            "mru_ratio": (
                results["mru_at_port"].shifts / static.shifts
                if static.shifts
                else 1.0
            ),
        }
        rows.append(
            (
                name,
                f"{static.hit_rate:.3f}",
                static.shifts,
                data[name]["promote_ratio"],
                data[name]["mru_ratio"],
            )
        )
    rendered = format_table(
        ("workload", "hit rate", "static shifts", "promote/static",
         "mru-at-port/static"),
        rows,
        title=(
            "E15 (extension) — DWM cache: runtime reorganisation vs static "
            "layout (>1 = reorganisation loses)"
        ),
    )
    return ExperimentOutput("e15", "Cache reorganisation", data, rendered)


# ---------------------------------------------------------------------------
# E16 — shift-aware access reordering on top of placement (extension)
# ---------------------------------------------------------------------------

def run_e16(windows=(4, 16)) -> ExperimentOutput:
    """Access reordering stacked on the placement heuristic.

    Extension experiment: a compiler that may reorder nearby independent
    accesses (preserving per-item program order) lets the head sweep instead
    of ping-pong.  Reports the extra shift reduction over the heuristic
    placement alone at several window sizes.
    """
    from repro.core.api import build_problem
    from repro.core.reordering import reorder_accesses

    suite = benchmark_suite(SWEEP_KERNELS)
    data: dict[str, dict[str, float]] = {}
    rows = []
    for name, trace in suite.items():
        config = _default_config(trace, words_per_dbc=16)
        problem = build_problem(trace, config)
        placement = optimize_placement(trace, config, method="heuristic").placement
        cell: dict[str, float] = {}
        row = [name]
        for window in windows:
            result = reorder_accesses(problem, placement, window=window)
            cell[f"w{window}_shifts"] = result.total_shifts
            cell[f"w{window}_reduction"] = result.reduction_percent
            cell["original_shifts"] = result.original_shifts
            row.append(result.total_shifts)
            row.append(result.reduction_percent)
        data[name] = cell
        rows.append((name, int(cell["original_shifts"]))
                    + tuple(
                        value
                        for window in windows
                        for value in (
                            int(cell[f"w{window}_shifts"]),
                            cell[f"w{window}_reduction"],
                        )
                    ))
    headers = ("benchmark", "placed shifts") + tuple(
        header
        for window in windows
        for header in (f"w={window} shifts", f"w={window} gain %")
    )
    rendered = format_table(
        headers,
        rows,
        title=(
            "E16 (extension) — Shift-aware access reordering on top of the "
            "placement heuristic"
        ),
    )
    return ExperimentOutput("e16", "Access reordering", data, rendered)


# ---------------------------------------------------------------------------
# E17 — speculative pre-shifting controller (extension)
# ---------------------------------------------------------------------------

def run_e17() -> ExperimentOutput:
    """Confidence-gated pre-shifting on top of the placement heuristic.

    Extension experiment: a per-DBC next-offset predictor lets the
    controller shift speculatively during idle time.  Reports the
    latency-critical (demand) shift reduction, the energy-shift overhead,
    and the predictor accuracy per kernel — with the confidence gate, the
    controller abstains on unpredictable kernels instead of losing.
    """
    from repro.core.api import build_problem
    from repro.dwm.preshift import simulate_preshift

    suite = benchmark_suite(SWEEP_KERNELS)
    data: dict[str, dict[str, float]] = {}
    rows = []
    for name, trace in suite.items():
        config = _default_config(trace, words_per_dbc=16)
        placement = optimize_placement(trace, config, method="heuristic").placement
        result = simulate_preshift(build_problem(trace, config), placement)
        data[name] = {
            "latency_reduction_percent": result.latency_reduction_percent,
            "energy_overhead_percent": result.energy_overhead_percent,
            "prediction_accuracy": result.prediction_accuracy,
        }
        rows.append(
            (
                name,
                result.baseline_demand_shifts,
                result.demand_shifts,
                result.latency_reduction_percent,
                result.energy_overhead_percent,
                result.prediction_accuracy,
            )
        )
    rendered = format_table(
        ("benchmark", "demand shifts (base)", "demand shifts (preshift)",
         "latency red. %", "energy ovh. %", "pred. accuracy"),
        rows,
        title=(
            "E17 (extension) — Confidence-gated speculative pre-shifting on "
            "heuristic placements"
        ),
    )
    return ExperimentOutput("e17", "Speculative pre-shifting", data, rendered)


# ---------------------------------------------------------------------------
# E20 — fault exposure under shift-minimizing placement (extension)
# ---------------------------------------------------------------------------

def run_e20(seeds=(0, 1, 2)) -> ExperimentOutput:
    """Monte-Carlo fault injection across placement methods.

    Extension experiment: since shift faults are sampled per *shift*, a
    placement that minimizes shifts also shrinks the fault budget.  Injects
    seeded fault schedules (:mod:`repro.dwm.faults`) over every sweep kernel
    for the random / declaration / heuristic placements and reports, per
    method, the injected fault count against the analytic expectation
    (``shifts x p``), the exposure (accesses served misaligned) and the
    realignment shift overhead.  The pooled fault count must land within
    3 sigma of the analytic model — the Monte-Carlo/analytic cross-check.
    """
    from repro.dwm.faults import FaultModel

    suite = benchmark_suite(SWEEP_KERNELS)
    methods = ("random", "declaration", "heuristic")
    totals = {
        method: {
            "total_shifts": 0,
            "injected_faults": 0,
            "expected_faults": 0.0,
            "fault_variance": 0.0,
            "corrupted_accesses": 0,
            "total_accesses": 0,
            "realignment_shifts": 0,
        }
        for method in methods
    }
    for name, trace in suite.items():
        config = _default_config(trace, words_per_dbc=16)
        for method in methods:
            placement = optimize_placement(trace, config, method=method).placement
            spm = ScratchpadMemory(config, placement)
            bucket = totals[method]
            for seed in seeds:
                model = FaultModel(
                    shift_error_rate=1e-3, check_interval=32, seed=seed
                )
                sim = spm.simulate(trace, fault_model=model)
                faults = sim.details["faults"]
                bucket["total_shifts"] += sim.shifts
                bucket["injected_faults"] += faults["injected"]
                bucket["expected_faults"] += faults["expected_faults"]
                bucket["fault_variance"] += faults["fault_count_sigma"] ** 2
                bucket["corrupted_accesses"] += faults["corrupted_accesses"]
                bucket["total_accesses"] += sim.accesses
                bucket["realignment_shifts"] += faults["realignment_shifts"]

    data: dict[str, dict] = {}
    rows = []
    baseline = totals["random"]
    for method in methods:
        bucket = totals[method]
        sigma = math.sqrt(bucket["fault_variance"])
        deviation = abs(bucket["injected_faults"] - bucket["expected_faults"])
        within = deviation <= 3.0 * sigma if sigma else deviation == 0.0
        exposure = (
            bucket["corrupted_accesses"] / bucket["total_accesses"]
            if bucket["total_accesses"]
            else 0.0
        )
        data[method] = {
            "total_shifts": bucket["total_shifts"],
            "injected_faults": bucket["injected_faults"],
            "expected_faults": bucket["expected_faults"],
            "fault_count_sigma": sigma,
            "within_3_sigma": within,
            "corrupted_accesses": bucket["corrupted_accesses"],
            "exposure_fraction": exposure,
            "realignment_shifts": bucket["realignment_shifts"],
            "fault_reduction_percent": reduction_percent(
                baseline["injected_faults"], bucket["injected_faults"]
            ),
        }
        rows.append(
            (
                method.upper() if method == "heuristic" else method,
                bucket["total_shifts"],
                bucket["injected_faults"],
                f"{bucket['expected_faults']:.1f}",
                f"{exposure:.4%}",
                bucket["realignment_shifts"],
                "yes" if within else "NO",
            )
        )
    rendered = format_table(
        ("placement", "shifts", "faults (MC)", "faults (analytic)",
         "exposure", "realign shifts", "within 3 sigma"),
        rows,
        title=(
            "E20 (extension) — Shift-fault exposure by placement method "
            f"({len(suite)} kernels x {len(seeds)} fault seeds, p=1e-3)"
        ),
    )
    return ExperimentOutput("e20", "Fault injection by placement", data, rendered)


# ---------------------------------------------------------------------------
# E21 — cross-paper placement comparison (extension)
# ---------------------------------------------------------------------------

def run_e21() -> ExperimentOutput:
    """Cross-paper comparison: DAC'15 heuristic vs ShiftsReduce vs generalized.

    Extension experiment for the algorithm-frontier PR: runs the paper's
    heuristic next to the ShiftsReduce bidirectional placement
    (arXiv 1903.03597) and the generalized port-aware strategies
    (arXiv 1912.03507) over the seed kernels plus two synthetic mixes, on
    single-port and two-port geometries.  Both new methods keep the
    heuristic in their candidate portfolio, so ``≤ heuristic`` per row is
    a structural invariant the benchmark gate asserts.  The footer records
    which MinLA solver backend (CP-SAT / DP) certified the probe instance.
    """
    from repro.core.cpsat import cpsat_available, solve_minla
    from repro.trace.mixes import interleave

    suite = dict(benchmark_suite(SWEEP_KERNELS))
    suite["mix_markov_zipf"] = interleave(
        [
            markov_trace(24, 600, locality=0.8, seed=21),
            zipf_trace(20, 600, alpha=1.2, seed=22),
        ],
        quantum=4,
    )
    suite["mix_pingpong_zipf"] = interleave(
        [
            pingpong_trace(8, 40),
            zipf_trace(16, 300, alpha=1.4, seed=23),
        ],
        quantum=2,
    )
    methods = ("declaration", "heuristic", "shiftsreduce", "generalized")
    data: dict[str, dict] = {}
    rows = []
    for name, trace in suite.items():
        for num_ports in (1, 2):
            config = _default_config(trace, words_per_dbc=16, num_ports=num_ports)
            shifts = {
                method: optimize_placement(
                    trace, config, method=method
                ).total_shifts
                for method in methods
            }
            best = min(
                methods, key=lambda method: (shifts[method], methods.index(method))
            )
            row_key = name if num_ports == 1 else f"{name}/2p"
            data[row_key] = {
                **{method: shifts[method] for method in methods},
                "ports": num_ports,
                "best": best,
                "shiftsreduce_vs_heuristic_percent": reduction_percent(
                    shifts["heuristic"], shifts["shiftsreduce"]
                ),
                "generalized_vs_heuristic_percent": reduction_percent(
                    shifts["heuristic"], shifts["generalized"]
                ),
            }
            rows.append(
                (
                    row_key,
                    shifts["declaration"],
                    shifts["heuristic"],
                    shifts["shiftsreduce"],
                    shifts["generalized"],
                    best,
                )
            )
    # Solver-backend footnote: which backend certifies the MinLA probe.
    probe = markov_trace(7, 80, locality=0.7, seed=24)
    problem = build_problem(probe, _default_config(probe, words_per_dbc=16))
    solution = solve_minla(list(problem.items), problem.affinity)
    data["_solver"] = {
        "cpsat_available": cpsat_available(),
        "backend": solution.backend,
        "certified": solution.certified,
        "probe_cost": solution.cost,
    }
    rendered = format_table(
        ("instance", "declaration", "heuristic", "shiftsreduce",
         "generalized", "best"),
        rows,
        title=(
            "E21 (extension) — Cross-paper placement comparison "
            f"(MinLA solver backend: {solution.backend}"
            f"{', certified' if solution.certified else ''})"
        ),
    )
    return ExperimentOutput("e21", "Cross-paper comparison", data, rendered)


EXPERIMENTS = {
    "e1": run_e1,
    "e2": run_e2,
    "e3": run_e3,
    "e4": run_e4,
    "e5": run_e5,
    "e6": run_e6,
    "e7": run_e7,
    "e8": run_e8,
    "e9": run_e9,
    "e10": run_e10,
    "e11": run_e11,
    "e12": run_e12,
    "e13": run_e13,
    "e14": run_e14,
    "e15": run_e15,
    "e16": run_e16,
    "e17": run_e17,
    "e20": run_e20,
    "e21": run_e21,
}


def run_experiment(experiment_id: str) -> ExperimentOutput:
    """Run one experiment by id (``"e1"`` … ``"e10"``)."""
    key = experiment_id.lower()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        )
    from repro.obs import get_registry, trace_span

    with trace_span("experiment", id=key):
        output = EXPERIMENTS[key]()
    get_registry().inc("experiments.runs", id=key)
    return output


def run_experiments(
    experiment_ids: list[str] | tuple[str, ...],
    jobs: int | None = None,
    timeout: float | None = None,
    retries: int = 0,
    checkpoint=None,
) -> list[ExperimentOutput]:
    """Run several experiments, optionally fanning out over processes.

    Unknown ids are rejected up front (before any work starts).  Outputs
    come back in the requested order for any job count; each worker runs
    its experiment's internal sweeps serially (no nested pools).  Tasks
    are bare experiment-id strings dispatched to the persistent worker
    pool (:mod:`repro.analysis.pool`), so consecutive batches reuse the
    same warm workers.

    ``timeout``/``retries`` enable the fault-tolerant runner: an
    experiment that keeps failing yields a
    :class:`~repro.analysis.parallel.TaskFailure` in its slot instead of
    aborting the batch.  ``checkpoint`` (a
    :class:`~repro.analysis.checkpoint.CheckpointJournal`) journals each
    completed experiment so an interrupted batch resumes without
    recomputing.
    """
    from repro.analysis.checkpoint import run_checkpointed, task_key

    ids = [experiment_id.lower() for experiment_id in experiment_ids]
    for key in ids:
        if key not in EXPERIMENTS:
            raise KeyError(
                f"unknown experiment {key!r}; available: {sorted(EXPERIMENTS)}"
            )
    keys = (
        [task_key("experiment", {"id": experiment_id}) for experiment_id in ids]
        if checkpoint is not None
        else None
    )
    return run_checkpointed(
        run_experiment,
        ids,
        keys,
        checkpoint=checkpoint,
        encode=lambda output: {
            "experiment_id": output.experiment_id,
            "title": output.title,
            "data": output.data,
            "rendered": output.rendered,
        },
        decode=lambda payload: ExperimentOutput(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            data=payload["data"],
            rendered=payload["rendered"],
        ),
        jobs=jobs,
        timeout=timeout,
        retries=retries,
    )


def main(argv: list[str] | None = None) -> int:
    """CLI: print one experiment (or ``all``); ``--jobs N`` to parallelise."""
    import sys

    argv = list(argv) if argv is not None else sys.argv[1:]
    jobs = None
    if "--jobs" in argv:
        position = argv.index("--jobs")
        try:
            jobs = int(argv[position + 1])
        except (IndexError, ValueError):
            print("--jobs requires an integer argument", file=sys.stderr)
            return 2
        del argv[position : position + 2]
    targets = argv or ["all"]
    if targets == ["all"]:
        targets = list(EXPERIMENTS)
    for output in run_experiments(targets, jobs=jobs):
        print(output.rendered)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
