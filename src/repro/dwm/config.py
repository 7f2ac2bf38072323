"""Device configuration for domain wall memory (DWM / racetrack) arrays.

The geometry follows the standard scratchpad organisation used by the DAC'15
data-placement literature:

* A **tape** (racetrack nanowire) holds a train of magnetic domains, each
  storing one bit.  A fixed set of **access ports** can read/write the domain
  currently aligned under them; every other domain must be *shifted* past a
  port first.
* A **domain block cluster (DBC)** groups ``bits_per_word`` tapes that shift
  in lockstep, so the cluster stores ``words_per_dbc`` words and exposes a
  single logical *head position*.  Accessing the word at offset ``o`` while
  the head is at ``h`` costs ``|o - h|`` shift operations (the cheapest port
  is used when several exist).
* A **DWM array** is a set of independent DBCs; each keeps its own head, so
  consecutive accesses to different DBCs do not interfere.

:class:`DWMConfig` captures this geometry plus the shift policy; timing and
energy constants live in :mod:`repro.dwm.energy`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError


class PortPolicy(enum.Enum):
    """How the shift controller positions the tape between accesses.

    * ``LAZY`` — leave the tape where the last access put it (head state
      persists; the standard assumption of the placement literature).
    * ``EAGER`` — return the tape to its rest alignment after every access
      (a.k.a. *return-to-zero*): each access to offset ``o`` costs
      ``2 * min_p |o - p|`` shifts but leaves no state behind.
    """

    LAZY = "lazy"
    EAGER = "eager"

    @classmethod
    def parse(cls, value: "PortPolicy | str") -> "PortPolicy":
        """Coerce a string such as ``"lazy"`` into a :class:`PortPolicy`."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError as exc:
            valid = ", ".join(p.value for p in cls)
            raise ConfigError(
                f"unknown port policy {value!r}; expected one of: {valid}"
            ) from exc


def uniform_port_offsets(words_per_dbc: int, num_ports: int) -> tuple[int, ...]:
    """Spread ``num_ports`` access ports evenly along a DBC.

    Ports are placed at the centres of ``num_ports`` equal segments, which is
    the usual assumption for multi-port racetrack macros: for ``L = 64`` and
    two ports this yields offsets ``(16, 48)``; a single port sits at the
    middle of the tape (offset ``L // 2``) so the worst-case shift distance is
    halved relative to an end-mounted port.
    """
    if words_per_dbc <= 0:
        raise ConfigError(f"words_per_dbc must be positive, got {words_per_dbc}")
    if num_ports <= 0:
        raise ConfigError(f"num_ports must be positive, got {num_ports}")
    if num_ports > words_per_dbc:
        raise ConfigError(
            f"cannot place {num_ports} ports on a DBC of {words_per_dbc} words"
        )
    segment = words_per_dbc / num_ports
    offsets = tuple(
        min(words_per_dbc - 1, int(segment * i + segment / 2))
        for i in range(num_ports)
    )
    if len(set(offsets)) != len(offsets):
        raise ConfigError(
            f"port layout collision for L={words_per_dbc}, P={num_ports}"
        )
    return offsets


@dataclass(frozen=True)
class DWMConfig:
    """Geometry and policy of a DWM scratchpad array.

    Parameters
    ----------
    words_per_dbc:
        Number of word offsets per domain block cluster (``L``).
    num_dbcs:
        Number of independent DBCs in the array.
    bits_per_word:
        Word width; one tape per bit, shifted in lockstep.
    port_offsets:
        Offsets (within ``0..L-1``) of the access ports of every DBC.  Use
        :meth:`with_uniform_ports` unless a custom layout is needed.
    port_policy:
        Shift policy between accesses (:class:`PortPolicy`).
    overhead_domains:
        Extra (data-free) domains at each end of the physical tape so shifting
        never pushes data off the wire.  Purely physical; it does not change
        shift costs but sizes the device model in :mod:`repro.dwm.tape`.
    """

    words_per_dbc: int = 64
    num_dbcs: int = 16
    bits_per_word: int = 32
    port_offsets: tuple[int, ...] = field(default=None)  # type: ignore[assignment]
    port_policy: PortPolicy = PortPolicy.LAZY
    overhead_domains: int = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.words_per_dbc <= 0:
            raise ConfigError(
                f"words_per_dbc must be positive, got {self.words_per_dbc}"
            )
        if self.num_dbcs <= 0:
            raise ConfigError(f"num_dbcs must be positive, got {self.num_dbcs}")
        if self.bits_per_word <= 0:
            raise ConfigError(
                f"bits_per_word must be positive, got {self.bits_per_word}"
            )
        if self.port_offsets is None:
            object.__setattr__(
                self, "port_offsets", uniform_port_offsets(self.words_per_dbc, 1)
            )
        ports = tuple(sorted(int(p) for p in self.port_offsets))
        if not ports:
            raise ConfigError("a DBC needs at least one access port")
        if len(set(ports)) != len(ports):
            raise ConfigError(f"duplicate port offsets: {self.port_offsets}")
        for p in ports:
            if not 0 <= p < self.words_per_dbc:
                raise ConfigError(
                    f"port offset {p} outside DBC range 0..{self.words_per_dbc - 1}"
                )
        object.__setattr__(self, "port_offsets", ports)
        object.__setattr__(self, "port_policy", PortPolicy.parse(self.port_policy))
        if self.overhead_domains is None:
            # Enough slack for the full shift range in either direction.
            object.__setattr__(self, "overhead_domains", self.words_per_dbc - 1)
        if self.overhead_domains < 0:
            raise ConfigError(
                f"overhead_domains must be >= 0, got {self.overhead_domains}"
            )

    # ------------------------------------------------------------------
    # Constructors / derived quantities
    # ------------------------------------------------------------------
    @classmethod
    def with_uniform_ports(
        cls,
        words_per_dbc: int = 64,
        num_dbcs: int = 16,
        num_ports: int = 1,
        bits_per_word: int = 32,
        port_policy: PortPolicy | str = PortPolicy.LAZY,
    ) -> "DWMConfig":
        """Build a config with ``num_ports`` evenly spaced ports per DBC."""
        return cls(
            words_per_dbc=words_per_dbc,
            num_dbcs=num_dbcs,
            bits_per_word=bits_per_word,
            port_offsets=uniform_port_offsets(words_per_dbc, num_ports),
            port_policy=PortPolicy.parse(port_policy),
        )

    @classmethod
    def for_items(
        cls,
        num_items: int,
        words_per_dbc: int = 64,
        num_ports: int = 1,
        bits_per_word: int = 32,
        port_policy: PortPolicy | str = PortPolicy.LAZY,
    ) -> "DWMConfig":
        """Smallest array (in DBC count) that can hold ``num_items`` words."""
        if num_items <= 0:
            raise ConfigError(f"num_items must be positive, got {num_items}")
        num_dbcs = max(1, math.ceil(num_items / words_per_dbc))
        return cls.with_uniform_ports(
            words_per_dbc=words_per_dbc,
            num_dbcs=num_dbcs,
            num_ports=num_ports,
            bits_per_word=bits_per_word,
            port_policy=port_policy,
        )

    @property
    def num_ports(self) -> int:
        """Number of access ports per DBC."""
        return len(self.port_offsets)

    @property
    def capacity_words(self) -> int:
        """Total number of words the array can store."""
        return self.words_per_dbc * self.num_dbcs

    @property
    def capacity_bits(self) -> int:
        """Total number of data bits the array can store."""
        return self.capacity_words * self.bits_per_word

    @property
    def physical_domains_per_tape(self) -> int:
        """Domains on a physical tape including overhead padding."""
        return self.words_per_dbc + 2 * self.overhead_domains

    @property
    def max_shift_distance(self) -> int:
        """Worst-case shifts for a single access under the port policy.

        Lazy: the head may rest where the previous access left it, so an
        access can cost up to ``words_per_dbc - 1``.  Eager: every access
        goes out from rest and back, ``2 * max_o min_p |o - p|``; the
        farthest offset lies at a tape end or midway between two ports.
        """
        if self.port_policy is PortPolicy.LAZY:
            return self.words_per_dbc - 1
        ports = self.port_offsets
        gaps = [(right - left) // 2 for left, right in zip(ports, ports[1:])]
        return 2 * max(ports[0], self.words_per_dbc - 1 - ports[-1], *gaps)

    def nearest_port(self, offset: int) -> int:
        """Port offset closest to ``offset`` (ties break toward lower port)."""
        from repro.dwm.dbc import port_access_cost

        if not 0 <= offset < self.words_per_dbc:
            raise ConfigError(
                f"offset {offset} outside DBC range 0..{self.words_per_dbc - 1}"
            )
        return port_access_cost(offset, 0, self.port_offsets)[1]

    def resized(self, **changes) -> "DWMConfig":
        """Return a copy with the given fields replaced.

        Port offsets are re-derived uniformly when ``words_per_dbc`` changes
        and no explicit ``port_offsets`` is supplied, so sweeps over tape
        length keep a consistent port layout.
        """
        if "words_per_dbc" in changes and "port_offsets" not in changes:
            changes["port_offsets"] = uniform_port_offsets(
                changes["words_per_dbc"], self.num_ports
            )
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable summary of the geometry."""
        return (
            f"DWM[{self.num_dbcs} DBCs x {self.words_per_dbc} words x "
            f"{self.bits_per_word}b, ports={list(self.port_offsets)}, "
            f"policy={self.port_policy.value}]"
        )
