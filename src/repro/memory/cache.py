"""DWM cache model (TapeCache-style substrate).

The journal extension of this research line applies shift-aware layout to
DWM *caches*, not just scratchpads.  This module builds that substrate: a
set-associative cache whose data array is made of DBCs — each set owns a
contiguous region of one DBC's word offsets, so which *way slot* a line
occupies determines its shift distance from the port.

Intra-set placement policies (the knob the literature studies):

* ``"static"`` — a fetched line stays in the slot it was filled into; slots
  are recycled by LRU.
* ``"promote"`` — on every hit the line swaps one slot toward the set's
  port-nearest position (the classical *transposition* self-organising
  heuristic), so hot lines gravitate to cheap slots at one swap per hit.
* ``"mru_at_port"`` — on every hit the line jumps straight to the
  port-nearest slot and the displaced lines shuffle down (move-to-front);
  maximum heat concentration, maximum reorganisation traffic.

Swapping lines inside a DBC costs device work too: each swapped pair incurs
two reads and two writes plus the shifts to reach both slots, all of which
the model charges, so the reported totals are honest about reorganisation
overhead (experiment E15).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dwm.config import DWMConfig
from repro.dwm.dbc import HeadModel, proximity_order
from repro.errors import ConfigError
from repro.trace.model import AccessTrace

PLACEMENT_POLICIES = ("static", "promote", "mru_at_port")


@dataclass(frozen=True)
class CacheGeometry:
    """Shape of the DWM cache."""

    num_sets: int = 8
    ways: int = 8
    dbc_config: DWMConfig = field(
        default_factory=lambda: DWMConfig(words_per_dbc=8, num_dbcs=8)
    )

    def __post_init__(self) -> None:
        if self.num_sets <= 0:
            raise ConfigError(f"num_sets must be positive, got {self.num_sets}")
        if self.ways <= 0:
            raise ConfigError(f"ways must be positive, got {self.ways}")
        if self.ways > self.dbc_config.words_per_dbc:
            raise ConfigError(
                f"{self.ways} ways exceed the DBC's "
                f"{self.dbc_config.words_per_dbc} word offsets"
            )
        if self.num_sets > self.dbc_config.num_dbcs:
            raise ConfigError(
                f"{self.num_sets} sets exceed the array's "
                f"{self.dbc_config.num_dbcs} DBCs"
            )

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.ways


@dataclass(frozen=True)
class CacheResult:
    """Outcome of running one trace through the cache."""

    hits: int
    misses: int
    shifts: int
    reorg_shifts: int
    reorg_swaps: int
    policy: str

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses

    @property
    def shifts_per_access(self) -> float:
        if not self.accesses:
            return 0.0
        return self.shifts / self.accesses


class _CacheSet:
    """One set: LRU state plus the slot each resident line occupies."""

    __slots__ = ("slots", "lru", "slot_order")

    def __init__(self, ways: int, slot_order: list[int]) -> None:
        # slot_order[i] = DBC word offset of the i-th cheapest slot.
        self.slot_order = slot_order
        self.slots: dict[str, int] = {}  # line -> slot rank (index into order)
        self.lru: list[str] = []  # most recent last

    def touch(self, line: str) -> None:
        if line in self.lru:
            self.lru.remove(line)
        self.lru.append(line)

    def victim(self) -> str:
        return self.lru[0]


class DWMCache:
    """Set-associative cache with DWM data array and intra-set placement."""

    def __init__(
        self,
        geometry: CacheGeometry | None = None,
        policy: str = "promote",
    ) -> None:
        if policy not in PLACEMENT_POLICIES:
            raise ConfigError(
                f"unknown placement policy {policy!r}; "
                f"expected one of {PLACEMENT_POLICIES}"
            )
        self.geometry = geometry or CacheGeometry()
        self.policy = policy
        config = self.geometry.dbc_config
        self._heads = [HeadModel(config) for _ in range(self.geometry.num_sets)]
        # Rank the first `ways` offsets of each DBC by port proximity so the
        # cheapest slot is rank 0.
        slot_order = proximity_order(config)[: self.geometry.ways]
        self._sets = [
            _CacheSet(self.geometry.ways, slot_order)
            for _ in range(self.geometry.num_sets)
        ]
        self._hits = 0
        self._misses = 0
        self._reorg_shifts = 0
        self._reorg_swaps = 0

    # ------------------------------------------------------------------
    def _set_of(self, line: str) -> int:
        # zlib.crc32 is stable across processes (str.__hash__ is salted).
        import zlib

        return zlib.crc32(line.encode("utf-8")) % self.geometry.num_sets

    def _slot_offset(self, cache_set: _CacheSet, rank: int) -> int:
        return cache_set.slot_order[rank]

    def _access_slot(self, set_index: int, rank: int, is_write: bool) -> int:
        offset = self._slot_offset(self._sets[set_index], rank)
        return self._heads[set_index].access(offset, is_write=is_write).shifts

    def _swap_ranks(self, set_index: int, line_a: str, line_b: str) -> None:
        """Swap two resident lines' slots, charging the device work.

        Swaps happen right after a hit, while ``line_a``'s data is already
        buffered at the port: the controller reads the partner slot, writes
        the buffered line there, and writes the partner's data back into the
        freed slot — two extra port operations whose only shift cost is
        walking between the two slots (in-transit swap, as optimized DWM
        cache controllers implement it).
        """
        cache_set = self._sets[set_index]
        rank_a = cache_set.slots[line_a]
        rank_b = cache_set.slots[line_b]
        shifts = 0
        shifts += self._access_slot(set_index, rank_b, is_write=True)
        shifts += self._access_slot(set_index, rank_a, is_write=True)
        self._reorg_shifts += shifts
        self._reorg_swaps += 1
        cache_set.slots[line_a] = rank_b
        cache_set.slots[line_b] = rank_a

    def _promote(self, set_index: int, line: str) -> None:
        """Apply the configured intra-set reorganisation after a hit."""
        cache_set = self._sets[set_index]
        rank = cache_set.slots[line]
        if rank == 0 or self.policy == "static":
            return
        if self.policy == "promote":
            # Transposition: swap with the occupant one rank cheaper (if any).
            target_rank = rank - 1
            occupant = next(
                (
                    other
                    for other, other_rank in cache_set.slots.items()
                    if other_rank == target_rank
                ),
                None,
            )
            if occupant is None:
                cache_set.slots[line] = target_rank
            else:
                self._swap_ranks(set_index, line, occupant)
            return
        # mru_at_port: bubble the line to rank 0 via successive swaps.
        while cache_set.slots[line] > 0:
            target_rank = cache_set.slots[line] - 1
            occupant = next(
                (
                    other
                    for other, other_rank in cache_set.slots.items()
                    if other_rank == target_rank
                ),
                None,
            )
            if occupant is None:
                cache_set.slots[line] = target_rank
            else:
                self._swap_ranks(set_index, line, occupant)

    # ------------------------------------------------------------------
    def access(self, line: str, is_write: bool = False) -> int:
        """Access one cache line; returns the shifts this access incurred."""
        set_index = self._set_of(line)
        cache_set = self._sets[set_index]
        before_reorg = self._reorg_shifts
        if line in cache_set.slots:
            self._hits += 1
            shifts = self._access_slot(
                set_index, cache_set.slots[line], is_write
            )
            cache_set.touch(line)
            self._promote(set_index, line)
            return shifts + (self._reorg_shifts - before_reorg)
        # Miss: evict LRU if full, fill into the freed (or next free) slot.
        self._misses += 1
        if len(cache_set.slots) >= self.geometry.ways:
            victim = cache_set.victim()
            victim_rank = cache_set.slots.pop(victim)
            cache_set.lru.remove(victim)
            fill_rank = victim_rank
        else:
            used = set(cache_set.slots.values())
            fill_rank = next(
                rank for rank in range(self.geometry.ways) if rank not in used
            )
        shifts = self._access_slot(set_index, fill_rank, is_write=True)
        cache_set.slots[line] = fill_rank
        cache_set.touch(line)
        return shifts

    def run(self, trace: AccessTrace) -> CacheResult:
        """Run a whole trace (items are cache lines) and report totals."""
        total_shifts = 0
        for access in trace:
            total_shifts += self.access(access.item, access.is_write)
        return CacheResult(
            hits=self._hits,
            misses=self._misses,
            shifts=total_shifts,
            reorg_shifts=self._reorg_shifts,
            reorg_swaps=self._reorg_swaps,
            policy=self.policy,
        )


def compare_cache_policies(
    trace: AccessTrace,
    geometry: CacheGeometry | None = None,
) -> dict[str, CacheResult]:
    """Run one trace under every intra-set placement policy."""
    results = {}
    for policy in PLACEMENT_POLICIES:
        cache = DWMCache(geometry, policy=policy)
        results[policy] = cache.run(trace)
    return results
