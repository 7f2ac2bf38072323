"""Access-trace substrate: trace model, statistics, generators, kernels, IO."""

from repro.trace.model import (
    Access,
    AccessKind,
    AccessTrace,
    TracedArray,
    TracedScalar,
    TraceRecorder,
)
from repro.trace.stats import (
    TraceStats,
    affinity_graph,
    compute_stats,
    hot_items,
    reuse_distances,
    shift_locality_score,
    transition_counts,
)
from repro.trace.synthetic import (
    GENERATORS,
    blocked_trace,
    butterfly_trace,
    gups_trace,
    loop_nest_trace,
    markov_trace,
    pingpong_trace,
    stencil_trace,
    uniform_trace,
    zipf_trace,
)
from repro.trace.address import (
    items_from_addresses,
    load_address_trace,
    save_address_trace,
    synthetic_address_stream,
    word_item_name,
)
from repro.trace.kernels import KERNELS, SWEEP_KERNELS, benchmark_suite
from repro.trace.loops import Loop, LoopNest, Ref, matmul_nest, stencil_nest
from repro.trace.mixes import interleave, mix_suite
from repro.trace.phases import (
    Phase,
    jaccard,
    phase_boundaries,
    phase_stability_score,
    phase_summary,
    windowed_working_sets,
)
from repro.trace import io
from repro.trace.binio import (
    StreamingTrace,
    open_binary,
    pack,
    save_binary,
)

__all__ = [
    "Access",
    "AccessKind",
    "AccessTrace",
    "StreamingTrace",
    "open_binary",
    "pack",
    "save_binary",
    "GENERATORS",
    "KERNELS",
    "SWEEP_KERNELS",
    "TraceRecorder",
    "TraceStats",
    "TracedArray",
    "TracedScalar",
    "affinity_graph",
    "benchmark_suite",
    "blocked_trace",
    "butterfly_trace",
    "compute_stats",
    "gups_trace",
    "hot_items",
    "Loop",
    "LoopNest",
    "Phase",
    "Ref",
    "interleave",
    "io",
    "matmul_nest",
    "mix_suite",
    "stencil_nest",
    "items_from_addresses",
    "jaccard",
    "phase_boundaries",
    "phase_stability_score",
    "phase_summary",
    "windowed_working_sets",
    "load_address_trace",
    "loop_nest_trace",
    "save_address_trace",
    "synthetic_address_stream",
    "word_item_name",
    "markov_trace",
    "pingpong_trace",
    "reuse_distances",
    "shift_locality_score",
    "stencil_trace",
    "transition_counts",
    "uniform_trace",
    "zipf_trace",
]
