"""Memory subsystem: DWM scratchpad simulator and SRAM comparator."""

from repro.memory.batch_sim import ResolvedTrace, simulate_vectorized
from repro.memory.cache import (
    CacheGeometry,
    CacheResult,
    DWMCache,
    compare_cache_policies,
)
from repro.memory.hierarchy import (
    SystemModel,
    SystemParams,
    SystemResult,
    system_comparison,
)
from repro.memory.result import SimulationResult
from repro.memory.spm import ScratchpadMemory, simulate_placement
from repro.memory.stream_sim import (
    ChunkState,
    finalize_state,
    merge_states,
    scan_span,
    simulate_streaming,
)
from repro.memory.sram import SRAMScratchpad
from repro.memory.timing import (
    TimingParams,
    TimingResult,
    TimingSimulator,
    overlap_benefit,
)

__all__ = [
    "ChunkState",
    "finalize_state",
    "merge_states",
    "scan_span",
    "simulate_streaming",
    "CacheGeometry",
    "CacheResult",
    "DWMCache",
    "ResolvedTrace",
    "SRAMScratchpad",
    "ScratchpadMemory",
    "SimulationResult",
    "SystemModel",
    "SystemParams",
    "SystemResult",
    "TimingParams",
    "compare_cache_policies",
    "system_comparison",
    "TimingResult",
    "TimingSimulator",
    "overlap_benefit",
    "simulate_placement",
    "simulate_vectorized",
]
