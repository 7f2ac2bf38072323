"""Domain block cluster (DBC): word-granularity unit of a DWM scratchpad.

A DBC groups ``bits_per_word`` tapes that shift in lockstep, so the cluster
stores ``words_per_dbc`` words and has a *single* head state shared by all its
tapes.  All shift-cost reasoning in the placement literature happens at this
granularity; the :class:`DBC` here both counts shifts (the quantity the paper
minimizes) and stores real word values (so functional correctness of the
device model is testable).

Two implementations are provided:

* :class:`DBC` — full model backed by :class:`repro.dwm.tape.Tape` objects,
  storing bits and enforcing overhead-domain limits.
* :class:`HeadModel` — a counters-only model that tracks just the head state
  and shift counts.  It is what the fast simulator and the analytical cost
  evaluator use; tests assert it always agrees with :class:`DBC`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.dwm.config import DWMConfig, PortPolicy
from repro.dwm.tape import Tape
from repro.errors import ConfigError, SimulationError


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a single word access on a DBC."""

    shifts: int
    port: int
    value: int | None = None  # populated on reads by the full model


def port_access_cost(
    offset: int,
    head: int,
    port_offsets: tuple[int, ...],
) -> tuple[int, int, int]:
    """Cheapest way to bring ``offset`` under some port given head state.

    The *head* is expressed in word coordinates: it is the offset currently
    aligned with the reference port position 0 of the shift state, i.e. the
    cumulative shift applied so far.  Aligning offset ``o`` under port ``p``
    requires shift state ``o - p``; the cost from the current state ``head``
    is ``|(o - p) - head|``.

    Returns ``(cost, chosen_port, new_head)``; ties break toward the
    lower-numbered port for determinism.
    """
    best: tuple[int, int, int] | None = None
    for port in port_offsets:
        target = offset - port
        cost = abs(target - head)
        if best is None or cost < best[0]:
            best = (cost, port, target)
    assert best is not None
    return best


@functools.lru_cache(maxsize=64)
def rest_table(config: DWMConfig):
    """Eager per-offset cost table: twice the nearest-port distance.

    Under the eager policy the head returns to rest after every access, so
    an access to offset ``o`` always costs ``rest_table(config)[o]``.
    Built once per geometry and shared, so the array is read-only.
    """
    import numpy as np

    table = np.asarray(
        [
            2 * port_access_cost(offset, 0, config.port_offsets)[0]
            for offset in range(config.words_per_dbc)
        ],
        dtype=np.int64,
    )
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=64)
def proximity_order(config: DWMConfig) -> tuple[int, ...]:
    """DBC offsets from the nearest port outwards (ties: lower offset first).

    Built once per geometry.
    """
    import numpy as np

    return tuple(np.argsort(rest_table(config), kind="stable").tolist())


class HeadModel:
    """Counters-only DBC model: head state + shift accounting.

    This is the model used on the hot path of simulation and optimization.
    ``head`` is the current shift state in word units (0 = rest alignment).
    """

    __slots__ = ("words_per_dbc", "port_offsets", "policy", "head", "shifts",
                 "reads", "writes", "max_abs_head")

    def __init__(self, config: DWMConfig) -> None:
        self.words_per_dbc = config.words_per_dbc
        self.port_offsets = config.port_offsets
        self.policy = config.port_policy
        self.head = 0
        self.shifts = 0
        self.reads = 0
        self.writes = 0
        self.max_abs_head = 0

    def access(self, offset: int, is_write: bool = False) -> AccessResult:
        """Access the word at ``offset``; returns the shift cost incurred."""
        if not 0 <= offset < self.words_per_dbc:
            raise SimulationError(
                f"offset {offset} outside DBC range 0..{self.words_per_dbc - 1}"
            )
        cost, port, new_head = port_access_cost(
            offset, self.head, self.port_offsets
        )
        total = cost
        if self.policy is PortPolicy.EAGER:
            # Return to rest alignment after the access.
            total += abs(new_head)
            self.head = 0
        else:
            self.head = new_head
        self.max_abs_head = max(self.max_abs_head, abs(new_head))
        self.shifts += total
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        return AccessResult(shifts=total, port=port)

    def reset(self) -> None:
        """Return head to rest and clear counters."""
        self.head = 0
        self.shifts = 0
        self.reads = 0
        self.writes = 0
        self.max_abs_head = 0


class DBC:
    """Full DBC model with lockstep tapes storing real word values."""

    def __init__(self, config: DWMConfig) -> None:
        if config.overhead_domains < config.words_per_dbc - 1:
            # A lazy head can drift by up to L-1 in either direction; the
            # physical tape must have enough padding for that.
            raise ConfigError(
                "overhead_domains must be >= words_per_dbc - 1 for lockstep "
                f"operation (got {config.overhead_domains} < "
                f"{config.words_per_dbc - 1})"
            )
        self.config = config
        self._tapes = [
            Tape(config.words_per_dbc, config.overhead_domains)
            for _ in range(config.bits_per_word)
        ]
        self._model = HeadModel(config)

    # ------------------------------------------------------------------
    # Properties mirrored from the head model
    # ------------------------------------------------------------------
    @property
    def head(self) -> int:
        """Current shift state in word units."""
        return self._model.head

    @property
    def shifts(self) -> int:
        """Total unit shifts performed so far (per-word, not per-tape)."""
        return self._model.shifts

    @property
    def reads(self) -> int:
        return self._model.reads

    @property
    def writes(self) -> int:
        return self._model.writes

    # ------------------------------------------------------------------
    # Word accesses
    # ------------------------------------------------------------------
    def _mask(self) -> int:
        return (1 << self.config.bits_per_word) - 1

    def read(self, offset: int) -> AccessResult:
        """Read the word at ``offset``, shifting as needed."""
        # Alignment at access time must be computed *before* the head model
        # updates (under EAGER policy the model returns the head to rest).
        _cost, port, access_head = port_access_cost(
            offset, self._model.head, self.config.port_offsets
        )
        result = self._model.access(offset, is_write=False)
        self._align_tapes(access_head)
        value = 0
        port_pos = self._port_physical(port)
        for bit_index, tape in enumerate(self._tapes):
            value |= tape.read(port_pos) << bit_index
        self._apply_shift_to_tapes()  # no-op for LAZY; rest-return for EAGER
        return AccessResult(shifts=result.shifts, port=port, value=value)

    def write(self, offset: int, value: int) -> AccessResult:
        """Write ``value`` into the word at ``offset``, shifting as needed."""
        value &= self._mask()
        _cost, port, access_head = port_access_cost(
            offset, self._model.head, self.config.port_offsets
        )
        result = self._model.access(offset, is_write=True)
        self._align_tapes(access_head)
        port_pos = self._port_physical(port)
        for bit_index, tape in enumerate(self._tapes):
            tape.write(port_pos, (value >> bit_index) & 1)
        self._apply_shift_to_tapes()
        return AccessResult(shifts=result.shifts, port=port, value=None)

    def peek(self, offset: int) -> int:
        """Read a stored word without modelling device operations."""
        value = 0
        for bit_index, tape in enumerate(self._tapes):
            value |= tape.peek(offset) << bit_index
        return value

    def load_words(self, values) -> None:
        """Bulk-initialise stored words (no operation cost charged)."""
        values = list(values)
        if len(values) > self.config.words_per_dbc:
            raise SimulationError(
                f"{len(values)} words exceed DBC capacity "
                f"{self.config.words_per_dbc}"
            )
        for bit_index, tape in enumerate(self._tapes):
            bits = [0] * self.config.words_per_dbc
            for offset, value in enumerate(values):
                bits[offset] = (int(value) >> bit_index) & 1
            tape.load(bits)

    # ------------------------------------------------------------------
    # Internal tape synchronisation
    # ------------------------------------------------------------------
    def _port_physical(self, port_offset: int) -> int:
        """Physical position of a port.

        The :class:`~repro.dwm.tape.Tape` model indexes physical positions so
        that data domain ``i`` rests at position ``i`` (overhead padding only
        bounds the legal ``shift_state`` range), so a port at word offset
        ``p`` sits at physical position ``p``.
        """
        return port_offset

    def _align_tapes(self, head: int) -> None:
        """Shift every tape so its state matches ``head`` (word units).

        Head state ``h`` means word ``o`` aligns under port ``p`` when
        ``h == o - p``; physically the train must move by ``-h`` (data index
        under physical position ``overhead + p`` must be ``p + h``).
        """
        target_physical_state = -head
        for tape in self._tapes:
            tape.shift(target_physical_state - tape.shift_state)

    def _apply_shift_to_tapes(self) -> None:
        """Bring tape shift states in line with the head model."""
        self._align_tapes(self._model.head)

    def tape_shift_consistency(self) -> bool:
        """True if all tapes are in lockstep (verification helper)."""
        states = {tape.shift_state for tape in self._tapes}
        return len(states) <= 1
