"""Randomised conformance cases for the differential fuzzer.

A :class:`FuzzCase` pins everything the oracles need to reproduce a run —
the explicit access sequence (so replay never depends on generator
internals), the DBC geometry, the port policy, and the placement method
under test — and round-trips losslessly through a JSON dict, which is what
the shrinker mutates and the artifact/regression-snippet writers emit.

:func:`generate_case` samples the space the repo's engines must agree on:
every port policy, 1–3 ports, tiny geometries (where the brute-force
optimum oracle is affordable) plus occasional long multi-port traces that
cross the incremental engine's vectorisation threshold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.core.problem import PlacementProblem
from repro.dwm.config import DWMConfig
from repro.errors import ReproError
from repro.trace.mixes import interleave
from repro.trace.model import AccessTrace
from repro.trace.synthetic import markov_trace, uniform_trace, zipf_trace

CASE_SCHEMA_VERSION = 1

#: Placement methods the fuzzer draws from.  ``exact`` is exercised by the
#: tiny-instance optimum oracle instead (it needs a size gate).
CASE_METHODS = (
    "declaration",
    "random",
    "frequency",
    "heuristic",
    "heuristic+ls",
    "grouping_only",
    "ordering_only",
    "spectral",
    "community",
    "annealing",
    "shiftsreduce",
    "generalized",
)


@dataclass(frozen=True)
class FuzzCase:
    """One self-contained conformance case (see module docstring)."""

    accesses: tuple[tuple[str, str], ...]
    words_per_dbc: int
    num_dbcs: int
    port_offsets: tuple[int, ...]
    port_policy: str
    method: str
    seed: int
    label: str = ""
    method_kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.accesses:
            raise ReproError("a fuzz case needs at least one access")

    # -- reconstruction -------------------------------------------------
    def trace(self) -> AccessTrace:
        return AccessTrace(
            list(self.accesses), name=self.label or f"fuzz-{self.seed}"
        )

    def config(self) -> DWMConfig:
        return DWMConfig(
            words_per_dbc=self.words_per_dbc,
            num_dbcs=self.num_dbcs,
            port_offsets=tuple(self.port_offsets),
            port_policy=self.port_policy,
        )

    def problem(self) -> PlacementProblem:
        return PlacementProblem(trace=self.trace(), config=self.config())

    def num_items(self) -> int:
        return len({item for item, _kind in self.accesses})

    def describe(self) -> str:
        return (
            f"{len(self.accesses)} accesses / {self.num_items()} items on "
            f"{self.num_dbcs}x{self.words_per_dbc} ports={self.port_offsets} "
            f"{self.port_policy} method={self.method} seed={self.seed}"
        )

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": CASE_SCHEMA_VERSION,
            "accesses": [list(access) for access in self.accesses],
            "words_per_dbc": self.words_per_dbc,
            "num_dbcs": self.num_dbcs,
            "port_offsets": list(self.port_offsets),
            "port_policy": self.port_policy,
            "method": self.method,
            "method_kwargs": dict(self.method_kwargs),
            "seed": self.seed,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzCase":
        schema = data.get("schema", CASE_SCHEMA_VERSION)
        if schema != CASE_SCHEMA_VERSION:
            raise ReproError(f"unsupported fuzz-case schema {schema!r}")
        return cls(
            accesses=tuple(
                (str(item), str(kind)) for item, kind in data["accesses"]
            ),
            words_per_dbc=int(data["words_per_dbc"]),
            num_dbcs=int(data["num_dbcs"]),
            port_offsets=tuple(int(p) for p in data["port_offsets"]),
            port_policy=str(data["port_policy"]),
            method=str(data["method"]),
            seed=int(data.get("seed", 0)),
            label=str(data.get("label", "")),
            method_kwargs=dict(data.get("method_kwargs", {})),
        )

    def with_changes(self, **changes) -> "FuzzCase":
        return replace(self, **changes)


def _method_kwargs(method: str, seed: int) -> dict:
    """Deterministic per-case kwargs for the stochastic methods."""
    if method == "random":
        return {"seed": seed}
    if method == "annealing":
        # Small evaluation budget: conformance, not solution quality.
        return {"seed": seed, "max_evaluations": 300}
    if method == "heuristic+ls":
        return {"max_evaluations": 500}
    return {}


def _random_trace(rng: random.Random, big: bool) -> AccessTrace:
    num_items = rng.randint(2, 6) if big else rng.randint(2, 10)
    num_accesses = rng.randint(300, 700) if big else rng.randint(6, 120)
    seed = rng.randrange(2**31)
    write_fraction = rng.choice([0.0, 0.25, 0.5])
    kind = rng.choice(("uniform", "zipf", "markov", "mix"))
    if kind == "uniform":
        return uniform_trace(
            num_items, num_accesses, seed=seed, write_fraction=write_fraction
        )
    if kind == "zipf":
        return zipf_trace(
            num_items,
            num_accesses,
            alpha=rng.choice([0.8, 1.2, 1.6]),
            seed=seed,
            write_fraction=write_fraction,
        )
    if kind == "markov":
        return markov_trace(
            num_items,
            num_accesses,
            locality=rng.uniform(0.2, 0.95),
            seed=seed,
            write_fraction=write_fraction,
        )
    half = max(2, num_accesses // 2)
    parts = [
        markov_trace(
            max(2, num_items // 2),
            half,
            locality=rng.uniform(0.4, 0.9),
            seed=seed,
        ),
        zipf_trace(max(2, num_items - num_items // 2), half, seed=seed + 1),
    ]
    return interleave(parts, quantum=rng.choice([1, 2, 4]))


def generate_case(rng: random.Random, index: int = 0) -> FuzzCase:
    """Sample one conformance case from the supported geometry space."""
    # ~6% of cases are long multi-port traces that give the incremental
    # engine and the automaton kernels long per-DBC chains.
    big = rng.random() < 0.06
    trace = _random_trace(rng, big)
    realized = trace.num_items
    if big:
        words = rng.randint(8, 16)
        num_dbcs = rng.randint(1, 2)
        num_ports = rng.randint(2, 3)
    else:
        words = rng.randint(1, 10)
        num_dbcs = rng.randint(1, 4)
        num_ports = min(rng.choice([1, 1, 1, 2, 2, 3]), words)
    while num_dbcs * words < realized:
        num_dbcs += 1
    num_ports = min(num_ports, words)
    if rng.random() < 0.5:
        config = DWMConfig.with_uniform_ports(
            words_per_dbc=words,
            num_dbcs=num_dbcs,
            num_ports=num_ports,
            port_policy=rng.choice(("lazy", "eager")),
        )
        ports = config.port_offsets
        policy = config.port_policy.value
    else:
        ports = tuple(sorted(rng.sample(range(words), num_ports)))
        policy = rng.choice(("lazy", "eager"))
    method = rng.choice(CASE_METHODS)
    seed = rng.randrange(2**31)
    return FuzzCase(
        accesses=tuple(
            (access.item, access.kind.value) for access in trace
        ),
        words_per_dbc=words,
        num_dbcs=num_dbcs,
        port_offsets=tuple(ports),
        port_policy=policy,
        method=method,
        seed=seed,
        label=f"fuzz-{index}",
        method_kwargs=_method_kwargs(method, seed),
    )
