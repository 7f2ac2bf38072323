"""The four benchmark workloads: suite, large, stream and serve.

Each workload builds its inputs from the seed (:meth:`Workload.setup`),
fixes a seeded op schedule whose length depends only on ``seconds``
(:meth:`Workload.schedule`), and runs every op through the library's public
API, checking each result.  ``suite``, ``large`` and ``stream`` are closed
loops with one caller; ``serve`` is an open loop against a ``repro serve``
process.  See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Sizes of the full benchmark and of the toy runs its tests make.
SCALES = {
    "full": {
        "suite_kernels": None,  # all 17
        "suite_pass_s": 12.0,
        "large_traces": 8,
        "large_items": 32,
        "large_phase_accesses": 2048,
        "large_round_s": 4.0,
        "large_min_rounds": 3,
        "stream_items": 64,
        "stream_accesses": 1 << 19,
        "stream_chunk": 1 << 16,
        "stream_op_s": 0.12,
        "stream_min_ops": 100,
        "serve_items": 64,
        "serve_accesses": 20_000,
        "serve_pair_rate": 20.0,
        "serve_min_pairs": 100,
    },
    "toy": {
        "suite_kernels": ("histogram", "bitonic_sort", "transpose"),
        "suite_pass_s": 1e9,
        "large_traces": 2,
        "large_items": 16,
        "large_phase_accesses": 256,
        "large_round_s": 1e9,
        "large_min_rounds": 1,
        "stream_items": 16,
        "stream_accesses": 4096,
        "stream_chunk": 1024,
        "stream_op_s": 1e9,
        "stream_min_ops": 3,
        "serve_items": 16,
        "serve_accesses": 2_000,
        "serve_pair_rate": 20.0,
        "serve_min_pairs": 10,
    },
}

SUITE_METHODS = ("heuristic", "shiftsreduce", "heuristic+ls")
LARGE_CLASSES = (
    ("heuristic", 1),
    ("shiftsreduce", 1),
    ("heuristic", 2),
    ("shiftsreduce", 2),
    ("generalized", 2),
)
#: Methods that must never price worse than ``heuristic`` on the same
#: trace and geometry (they carry the heuristic as a guard candidate).
GUARDED = ("shiftsreduce", "generalized")
#: Per-layer metrics read from the server's ``/v1/metrics``.
SERVER_LAYERS = (
    "serve.server_s",
    "serve.transport_s",
    "serve.batch_size_mean",
    "serve.cache_hit_ratio",
    "serve.pool_dispatches",
    "serve.rejected",
)


class CheckFailed(Exception):
    """An op returned a wrong result."""


@dataclass
class Op:
    cls: str
    payload: tuple
    due: float = 0.0  # open loop only: seconds after the loop starts


@dataclass
class OpRecord:
    op: Op | None
    latency: float
    ok: bool
    error: str | None = None
    shifts: int = 0
    accesses: int = 0
    key: tuple = ()
    late: float = 0.0
    info: dict = field(default_factory=dict)


#: Reference times of the two probe loops on the host the benchmark was
#: tuned on (2 vCPUs) when it runs at full speed.
PROBE_ALU_REFERENCE_S = 5.3e-3
PROBE_MEMORY_REFERENCE_S = 5e-3


class _ProbeTables:
    """Seeded lookup tables larger than a core's private cache (~8 MB)."""

    def __init__(self) -> None:
        rng = random.Random(0)
        keys = [f"k{i}" for i in range(20_000)]
        self.table = {key: i for i, key in enumerate(keys)}
        self.lookups = [rng.choice(keys) for _ in range(25_000)]
        self.strings = [str(i) for i in rng.sample(range(10**6), 100_000)]
        self.indices = [rng.randrange(len(self.strings)) for _ in range(25_000)]


@functools.cache
def _probe_tables() -> _ProbeTables:
    """The probe's tables, built once per process."""
    return _ProbeTables()


def host_slowdown() -> float:
    """How many times slower than the reference the host runs right now.

    Shared hosts change speed by up to half within seconds (the same
    30 ms loop measured 24–36 ms on the tuning host) and drift by more
    between minutes; interpreter-bound and cache-bound code slow down by
    different amounts.  The factor is the geometric mean of the slowdowns
    of an arithmetic loop and of a dict/list lookup loop over tables
    larger than a core's cache, which tracked the placement ops within a
    few percent where raw times moved by a quarter.  Timings divided by it
    read in reference seconds.
    """
    tables = _probe_tables()
    start = time.perf_counter()
    total = 0
    for i in range(80_000):
        total += i * i % 7
    middle = time.perf_counter()
    for key in tables.lookups:
        total += tables.table[key]
    for index in tables.indices:
        total += len(tables.strings[index])
    end = time.perf_counter()
    alu = (middle - start) / PROBE_ALU_REFERENCE_S
    memory = (end - middle) / PROBE_MEMORY_REFERENCE_S
    return math.sqrt(alu * memory)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process in MB, 0 if gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid`` (pool workers), from ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def tree_peak_rss_mb(pid: int) -> float:
    """Summed ``VmHWM`` of a process and its direct children."""
    return vm_hwm_mb(pid) + sum(vm_hwm_mb(child) for child in child_pids(pid))


class Workload:
    """Base: a closed loop of ops with one caller.

    ``child.py`` calls :meth:`setup`, :meth:`schedule`, :meth:`run_warmup`,
    :meth:`run_timed`, :meth:`verify` and finally :meth:`close`.
    """

    name = ""

    def __init__(self, seed: int, scale: str, workdir: Path, recorder=None):
        self.seed = seed
        self.size = SCALES[scale]
        self.workdir = workdir
        self.recorder = recorder

    def span(self, name: str):
        """A setup-time span in the traced run; a no-op otherwise."""
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name)

    # Subclass hooks -----------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def classes(self) -> list[str]:
        raise NotImplementedError

    def schedule(self, seconds: float) -> list[Op]:
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        """One op per class, run untimed before the schedule."""
        raise NotImplementedError

    def prepare(self, op: Op):
        """Untimed per-op input generation (default: the op itself)."""
        return op

    def execute(self, prepared) -> OpRecord:
        raise NotImplementedError

    def verify(self, records: list[OpRecord], warmup: list[OpRecord]) -> None:
        """Cross-op checks after the loop; marks failing records."""

    def shifts_per_access(self, records, warmup) -> float:
        """Shifts of the placements the program chose ÷ accesses."""
        shifts = sum(record.shifts for record in records)
        accesses = sum(record.accesses for record in records)
        return shifts / accesses if accesses else 0.0

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(os.getpid())

    def layer_extras(self) -> dict:
        """Per-layer metrics measured outside the span tree (the server's);
        zero on the library workloads, which have no server."""
        return dict.fromkeys(SERVER_LAYERS, 0.0)

    def close(self) -> None:
        pass

    # Loop ---------------------------------------------------------------
    def _run_one(self, op: Op, op_id: int) -> OpRecord:
        prepared = self.prepare(op)
        recorder = self.recorder
        frame = recorder.open("op", op=op_id) if recorder is not None else None
        start = time.perf_counter()
        try:
            record = self.execute(prepared)
        except Exception as exc:  # noqa: BLE001 - a failed op, reported
            record = OpRecord(None, 0.0, False, f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - start
        if frame is not None:
            recorder.close(frame, {"class": op.cls})
        record.op = op
        record.latency = latency
        return record

    def run_warmup(self) -> list[OpRecord]:
        return [self._run_one(op, -1 - i) for i, op in enumerate(self.warmup_ops())]

    def run_timed(self, ops: list[Op]) -> tuple[list[OpRecord], float]:
        """Run the schedule; returns the records and the timed seconds.

        A host-speed probe runs between ops, outside the timed span; each
        op's latency is divided by the mean slowdown of the probes on
        either side of it.
        """
        records = []
        before = host_slowdown()
        for index, op in enumerate(ops):
            record = self._run_one(op, index)
            after = host_slowdown()
            record.latency /= (before + after) / 2
            records.append(record)
            before = after
        return records, sum(record.latency for record in records)


# ---------------------------------------------------------------------------
# Shared library helpers
# ---------------------------------------------------------------------------

def _place_and_check(trace, config, method, simulate) -> int:
    """resolve → plan → execute → simulate; the two totals must agree."""
    from repro.core import api

    problem = api.resolve_placement(trace, config)
    plan = api.plan_placement(problem, method)
    result = api.execute_plan(problem, plan)
    simulated = simulate(trace, config, plan.placement)
    if simulated.shifts != result.total_shifts:
        raise CheckFailed(
            f"simulated {simulated.shifts} != planned {result.total_shifts}"
        )
    return result.total_shifts


def _guard_and_repeat_checks(records: list[OpRecord], warmup: list[OpRecord]):
    """Same op key → same total; guarded methods ≤ ``heuristic``."""
    expected: dict[tuple, int] = {}
    for record in list(warmup) + list(records):
        if record.ok:
            expected.setdefault(record.key, record.shifts)
    for record in records:
        if not record.ok:
            continue
        if record.shifts != expected[record.key]:
            record.ok = False
            record.error = f"nondeterministic total for {record.key}"
            continue
        method = record.key[-1]
        if method in GUARDED:
            reference = expected.get(record.key[:-1] + ("heuristic",))
            if reference is not None and record.shifts > reference:
                record.ok = False
                record.error = (
                    f"{method} {record.shifts} worse than heuristic {reference}"
                )


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

class Suite(Workload):
    """The paper's evaluation loop over the 17 embedded-kernel traces."""

    name = "suite"

    def setup(self) -> None:
        from repro.dwm.config import DWMConfig
        from repro.memory import batch_sim
        from repro.trace.kernels import KERNELS

        names = self.size["suite_kernels"] or tuple(KERNELS)
        self.traces = {}
        with self.span("trace.generate"):
            for index, name in enumerate(names):
                self.traces[name] = KERNELS[name](seed=self.seed * 101 + index)
        for trace in self.traces.values():
            batch_sim.resolve_trace(trace)
        self.configs = {
            (name, ports): DWMConfig.for_items(
                trace.num_items, words_per_dbc=16, num_ports=ports
            )
            for name, trace in self.traces.items()
            for ports in (1, 2)
        }

    def classes(self) -> list[str]:
        return [f"{m}/{p}p" for p in (1, 2) for m in SUITE_METHODS]

    def _one_pass(self) -> list[Op]:
        return [
            Op(f"{method}/{ports}p", (name, ports, method))
            for name in self.traces
            for ports in (1, 2)
            for method in SUITE_METHODS
        ]

    def schedule(self, seconds: float) -> list[Op]:
        passes = max(1, round(seconds / self.size["suite_pass_s"]))
        rng = random.Random(self.seed)
        ops: list[Op] = []
        for _ in range(passes):
            one_pass = self._one_pass()
            rng.shuffle(one_pass)
            ops.extend(one_pass)
        return ops

    def warmup_ops(self) -> list[Op]:
        smallest = min(self.traces, key=lambda name: len(self.traces[name]))
        return [op for op in self._one_pass() if op.payload[0] == smallest]

    def execute(self, op: Op) -> OpRecord:
        from repro.memory.spm import ScratchpadMemory

        name, ports, method = op.payload
        trace = self.traces[name]
        total = _place_and_check(
            trace,
            self.configs[(name, ports)],
            method,
            lambda t, c, p: ScratchpadMemory(c, p).simulate(t),
        )
        return OpRecord(op, 0.0, True, shifts=total, accesses=len(trace),
                        key=(name, ports, method))

    def verify(self, records, warmup) -> None:
        _guard_and_repeat_checks(records, warmup)


# ---------------------------------------------------------------------------
# large
# ---------------------------------------------------------------------------

class Large(Workload):
    """Synthetic traces past both vectorisation thresholds.

    Several independent seeded traces of the same shape share the
    schedule, so one unlucky trace moves a run's figures less.
    """

    name = "large"

    def setup(self) -> None:
        from repro.dwm.config import DWMConfig
        from repro.memory import batch_sim
        from repro.trace.model import AccessTrace
        from repro.trace.synthetic import markov_trace, zipf_trace

        items = self.size["large_items"]
        length = self.size["large_phase_accesses"]
        self.traces = []
        for index in range(self.size["large_traces"]):
            accesses = []
            base = (self.seed * 10 + index) * 7
            with self.span("trace.generate"):
                for phase in range(4):
                    generator = markov_trace if phase % 2 == 0 else zipf_trace
                    accesses.extend(generator(items, length, seed=base + phase))
                trace = AccessTrace(accesses, name=f"large(s={self.seed},{index})")
            batch_sim.resolve_trace(trace)
            self.traces.append(trace)
        self.configs = {
            ports: DWMConfig.for_items(items, words_per_dbc=8, num_ports=ports)
            for ports in (1, 2)
        }

    def classes(self) -> list[str]:
        return [f"{m}/{p}p" for m, p in LARGE_CLASSES]

    def _one_round(self) -> list[Op]:
        return [
            Op(f"{m}/{p}p", (index, p, m))
            for index in range(len(self.traces))
            for m, p in LARGE_CLASSES
        ]

    def warmup_ops(self) -> list[Op]:
        return [op for op in self._one_round() if op.payload[0] == 0]

    def schedule(self, seconds: float) -> list[Op]:
        rounds = max(
            self.size["large_min_rounds"],
            round(seconds / self.size["large_round_s"]),
        )
        rng = random.Random(self.seed)
        ops: list[Op] = []
        for _ in range(rounds):
            one_round = self._one_round()
            rng.shuffle(one_round)
            ops.extend(one_round)
        return ops

    def execute(self, op: Op) -> OpRecord:
        from repro.memory import batch_sim

        index, ports, method = op.payload
        trace = self.traces[index]
        total = _place_and_check(
            trace,
            self.configs[ports],
            method,
            lambda t, c, p: batch_sim.simulate_vectorized(t, c, p),
        )
        return OpRecord(op, 0.0, True, shifts=total, accesses=len(trace),
                        key=(index, ports, method))

    def verify(self, records, warmup) -> None:
        _guard_and_repeat_checks(records, warmup)


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------

def _stream_accesses(seed: int, items: int, count: int):
    """Seeded Markov access stream, generated lazily (never materialised)."""
    rng = random.Random(seed)
    names = [f"s{i}" for i in range(items)]
    current = rng.randrange(items)
    for _ in range(count):
        if rng.random() < 0.8:
            current = max(0, min(items - 1, current + rng.randint(-2, 2)))
        else:
            current = rng.randrange(items)
        yield names[current], ("W" if rng.random() < 0.25 else "R")


class Stream(Workload):
    """Out-of-core scans of a packed ``.rtb`` trace, sequential and pooled."""

    name = "stream"

    def setup(self) -> None:
        from repro.core import api
        from repro.dwm.config import DWMConfig
        from repro.trace import binio

        path = self.workdir / "stream.rtb"
        binio.pack(
            _stream_accesses(
                self.seed, self.size["stream_items"], self.size["stream_accesses"]
            ),
            path,
            name=f"stream(s={self.seed})",
        )
        self.trace = binio.open_binary(path)
        self.configs = {
            ports: DWMConfig.for_items(
                self.trace.num_items, words_per_dbc=16, num_ports=ports
            )
            for ports in (1, 2)
        }
        problem = api.resolve_placement(self.trace.sample_trace(), self.configs[2])
        self.base = api.plan_placement(problem, "heuristic").placement
        self.items = list(self.trace.items)

    def classes(self) -> list[str]:
        return ["bundle"]

    def schedule(self, seconds: float) -> list[Op]:
        count = max(
            self.size["stream_min_ops"], round(seconds / self.size["stream_op_s"])
        )
        rng = random.Random(self.seed)
        return [Op("bundle", (rng.getrandbits(63),)) for _ in range(count)]

    def warmup_ops(self) -> list[Op]:
        return [Op("bundle", (None,))]  # the placement chosen from the sample

    def prepare(self, op: Op):
        from repro.core.placement import Placement

        (placement_seed,) = op.payload
        if placement_seed is None:
            return op, self.base
        slots = [(self.base[item].dbc, self.base[item].offset) for item in self.items]
        random.Random(placement_seed).shuffle(slots)
        return op, Placement(dict(zip(self.items, slots)))

    def execute(self, prepared) -> OpRecord:
        from repro.memory import stream_sim

        op, placement = prepared
        chunk = self.size["stream_chunk"]
        one = stream_sim.simulate_streaming(
            self.trace, self.configs[1], placement, chunk_size=chunk
        )
        two = stream_sim.simulate_streaming(
            self.trace, self.configs[2], placement, chunk_size=chunk
        )
        pooled = stream_sim.simulate_streaming(
            self.trace, self.configs[2], placement, chunk_size=chunk, jobs=2
        )
        if pooled.details.get("mode") != "parallel":
            raise CheckFailed(f"pooled scan ran as {pooled.details.get('mode')}")
        for name in ("shifts", "per_dbc_shifts", "max_access_shifts"):
            if getattr(two, name) != getattr(pooled, name):
                raise CheckFailed(f"sequential and pooled {name} differ")
        if one.reads + one.writes != len(self.trace):
            raise CheckFailed("1-port scan lost accesses")
        return OpRecord(op, 0.0, True, shifts=one.shifts + two.shifts,
                        accesses=2 * len(self.trace))

    def shifts_per_access(self, records, warmup) -> float:
        # The program chose one placement, from the sample; the timed ops
        # scan benchmark-made permutations of it.
        return super().shifts_per_access(warmup, [])

    def close(self) -> None:
        from repro.analysis.pool import shutdown_pools

        shutdown_pools()


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

#: Kernels whose access pattern depends on the data, so each seed gives a
#: distinct trace (first-time optimize requests must never hit the cache).
COLD_KERNELS = ("quicksort", "insertion_sort", "histogram", "kmp", "spmv")
#: Kernels optimized once in setup and then requested again (cache hits).
HOT_KERNELS = ("matmul", "fft", "conv2d", "iir")
#: Share of each request class in the offered load, out of 100.  Simulate
#: misses fill the ranks where p50 and p90 fall; cache hits sit below them
#: and the rare first-time optimize calls above.
SERVE_SHARES = {"hit": 20, "simulate": 76, "cold": 4}
SERVE_WORDS = 16


class Serve(Workload):
    """Open-loop HTTP traffic against a ``repro serve`` process."""

    name = "serve"

    def __init__(self, *args, traced_server: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.traced_server = traced_server
        self.process = None
        self.client = None

    # Server lifecycle ---------------------------------------------------
    def _start_server(self) -> None:
        from repro.serve.client import ServeClient

        if self.traced_server:
            entry = [sys.executable, str(Path(__file__).with_name("serve_boot.py"))]
        else:
            entry = [sys.executable, "-m", "repro.cli"]
        self.process = subprocess.Popen(
            entry
            + ["serve", "--port", "0", "--pool-workers", "1",
               "--cache-dir", str(self.workdir / "cache"),
               "--spool-dir", str(self.workdir / "spool")],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        announce = _readline_with_timeout(self.process.stdout, 60.0)
        if not announce:
            raise RuntimeError("server did not announce its port")
        port = json.loads(announce)["port"]
        self.client = ServeClient("127.0.0.1", port, timeout=60.0)

    def close(self) -> None:
        if self.process is None:
            return
        try:
            if self.client is not None and self.process.poll() is None:
                self.client.shutdown()
            self.process.wait(timeout=30)
        except Exception:  # noqa: BLE001 - fall back to signals
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10)
        finally:
            self.process.stdout.close()
            self.process = None

    # Inputs -------------------------------------------------------------
    def setup(self) -> None:
        from repro.trace.kernels import KERNELS
        from repro.trace.synthetic import markov_trace

        self._start_server()
        with self.span("trace.generate"):
            self.big = markov_trace(
                self.size["serve_items"], self.size["serve_accesses"],
                seed=self.seed,
            )
        self.big_id = self._upload(self.big)
        self.slots = [
            (dbc, offset)
            for dbc in range(math.ceil(self.big.num_items / SERVE_WORDS))
            for offset in range(SERVE_WORDS)
        ]
        # Optimize targets computed now and answered by the cache later.
        self.hot = []
        for index, name in enumerate(HOT_KERNELS):
            with self.span("trace.generate"):
                trace = KERNELS[name](seed=self.seed * 13 + index)
            trace_id = self._upload(trace)
            for ports in (1, 2):
                self._optimize(trace_id, ports)
                self.hot.append((trace_id, ports, len(trace)))

    def _upload(self, trace) -> str:
        response = self.client.upload_trace(
            trace.name, [(access.item, access.kind.value) for access in trace]
        )
        return response["trace_id"]

    def _optimize(self, trace_id: str, ports: int) -> dict:
        response = self.client.optimize(
            trace_id, method="heuristic",
            config={"words_per_dbc": SERVE_WORDS, "num_ports": ports},
        )
        if response.get("state") != "done":
            raise CheckFailed(f"optimize ended {response.get('state')}")
        return response

    def _cold_targets(self, count: int) -> list[tuple[str, int, int]]:
        """``count`` distinct never-optimized kernel traces, uploaded."""
        from repro.trace.kernels import KERNELS

        seen = set()
        targets = []
        attempt = 0
        while len(targets) < count:
            name = COLD_KERNELS[attempt % len(COLD_KERNELS)]
            with self.span("trace.generate"):
                trace = KERNELS[name](seed=self.seed * 1009 + attempt)
            attempt += 1
            if trace.fingerprint() in seen:
                continue
            seen.add(trace.fingerprint())
            targets.append((self._upload(trace), 1 + len(targets) % 2, len(trace)))
        return targets

    def _simulate_payload(self, rng: random.Random, ports: int) -> tuple:
        slots = list(self.slots)
        rng.shuffle(slots)
        return ports, {item: list(slot) for item, slot in zip(self.big.items, slots)}

    def classes(self) -> list[str]:
        return list(SERVE_SHARES)

    def schedule(self, seconds: float) -> list[Op]:
        rate = self.size["serve_pair_rate"]
        pairs = max(self.size["serve_min_pairs"], round(seconds * rate))
        total = 2 * pairs
        counts = {cls: total * share // 100 for cls, share in SERVE_SHARES.items()}
        counts["simulate"] += total - sum(counts.values())
        rng = random.Random(self.seed)
        classes = [cls for cls, count in counts.items() for _ in range(count)]
        rng.shuffle(classes)
        cold = self._cold_targets(counts["cold"] + 1)
        self.warmup_cold = cold.pop()
        ops = []
        # Hits cycle through every cached target evenly, so the mix of
        # chosen placements behind shifts_per_access is fixed by the seed's
        # traces alone.
        hot = iter(self.hot * (counts["hit"] // len(self.hot) + 1))
        for pair in range(pairs):
            ports = rng.choice((1, 2))
            for cls in classes[2 * pair: 2 * pair + 2]:
                if cls == "simulate":
                    payload = self._simulate_payload(rng, ports)
                elif cls == "hit":
                    payload = next(hot)
                else:
                    payload = cold.pop()
                ops.append(Op(cls, payload, due=pair / rate))
        return ops

    def warmup_ops(self) -> list[Op]:
        rng = random.Random(-self.seed - 1)
        return [
            Op("simulate", self._simulate_payload(rng, 1)),
            Op("simulate", self._simulate_payload(rng, 2)),
            Op("hit", self.hot[0]),
            Op("cold", self.warmup_cold),
        ]

    # Requests -----------------------------------------------------------
    def execute(self, op: Op) -> OpRecord:
        if op.cls == "simulate":
            ports, placement = op.payload
            response = self.client.simulate(
                self.big_id, placement,
                config={"words_per_dbc": SERVE_WORDS, "num_ports": ports},
            )
            return OpRecord(op, 0.0, True, info={"response": response})
        trace_id, ports, length = op.payload
        response = self._optimize(trace_id, ports)
        if (op.cls == "hit") != bool(response.get("cached")):
            raise CheckFailed(f"{op.cls} request cached={response.get('cached')}")
        return OpRecord(op, 0.0, True, shifts=response["result"]["total_shifts"],
                        accesses=length)

    def run_timed(self, ops: list[Op]) -> tuple[list[OpRecord], float]:
        """Two sender threads, one per request of each arrival pair.

        A third thread probes the host speed four times a second; every
        latency is divided by the run's median slowdown.  The wall time is
        returned unscaled: the offered rate, not the host, sets it.
        """
        self.before = self.client.metrics()
        results: list[OpRecord | None] = [None] * len(ops)
        start = time.perf_counter() + 0.05
        slowdowns = [host_slowdown()]
        done = threading.Event()

        def probe() -> None:
            while not done.wait(0.25):
                slowdowns.append(host_slowdown())

        def lane(first: int) -> None:
            for op_id in range(first, len(ops), 2):
                op = ops[op_id]
                due = start + op.due
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                record = self._run_one(op, op_id)
                # Unscaled request time, for the transport residual.
                record.info["client_s"] = record.latency
                # Open loop: latency runs from the due time.
                record.late = sent - due
                record.latency += record.late
                results[op_id] = record

        threads = [threading.Thread(target=lane, args=(i,)) for i in range(2)]
        prober = threading.Thread(target=probe)
        prober.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        done.set()
        prober.join()
        slowdown = statistics.median(slowdowns)
        for record in results:
            record.latency /= slowdown
        self.after = self.client.metrics()
        self.server_peak = tree_peak_rss_mb(self.process.pid)
        return [record for record in results if record is not None], wall

    def _local_simulation(self, ports: int, placement: dict):
        """What a simulate request should answer, from the local engine."""
        from repro.core.placement import Placement
        from repro.memory.batch_sim import simulate_vectorized
        from repro.serve.protocol import config_from_payload

        config = config_from_payload(
            {"words_per_dbc": SERVE_WORDS, "num_ports": ports},
            num_items=self.big.num_items,
        )
        return simulate_vectorized(
            self.big, config,
            Placement({k: tuple(v) for k, v in placement.items()}),
        )

    def verify(self, records, warmup) -> None:
        """Re-check a seeded sample of simulate responses locally."""
        simulated = [r for r in records if r.ok and r.op.cls == "simulate"]
        sample = random.Random(self.seed + 1).sample(
            simulated, min(20, len(simulated))
        )
        for record in sample:
            expected = self._local_simulation(*record.op.payload)
            response = record.info["response"]
            if (
                response["shifts"] != expected.shifts
                or list(response["per_dbc_shifts"]) != list(expected.per_dbc_shifts)
                or response["max_access_shifts"] != expected.max_access_shifts
            ):
                record.ok = False
                record.error = "simulate response disagrees with local engine"

    def shifts_per_access(self, records, warmup) -> float:
        chosen = [r for r in records if r.op.cls != "simulate"]
        return super().shifts_per_access(chosen, [])

    def peak_rss_mb(self) -> float:
        return self.server_peak

    def layer_extras(self) -> dict:
        """Server-side layers, from ``/v1/metrics`` snapshot diffs."""
        before, after = self.before, self.after

        def counter(prefix: str) -> float:
            return sum(
                value - before["counters"].get(key, 0)
                for key, value in after["counters"].items()
                if key.startswith(prefix)
            )

        def histogram(prefix: str, name: str) -> float:
            return sum(
                summary[name] - before["histograms"].get(key, {}).get(name, 0)
                for key, summary in after["histograms"].items()
                if key.startswith(prefix)
            )

        hits = counter("serve.cache.hits")
        lookups = hits + counter("serve.cache.misses")
        batches = histogram("serve.batch.size", "count")
        return {
            "serve.server_s": histogram("serve.latency.seconds{endpoint=simulate}", "sum")
            + histogram("serve.latency.seconds{endpoint=optimize}", "sum"),
            "serve.batch_size_mean": (
                histogram("serve.batch.size", "sum") / batches if batches else 0.0
            ),
            "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "serve.pool_dispatches": counter("pool.dispatches"),
            "serve.rejected": counter("serve.admission.rejected"),
            "pool.dispatch_s": histogram("perfbench.pool.run.seconds", "sum"),
            "pool.tasks": counter("perfbench.pool.run.tasks"),
        }


def _readline_with_timeout(stream, timeout: float) -> str:
    """First line of a child's stdout, or '' if none arrives in time."""
    box: list[str] = []
    reader = threading.Thread(target=lambda: box.append(stream.readline()),
                              daemon=True)
    reader.start()
    reader.join(timeout)
    return box[0] if box else ""


WORKLOADS = {cls.name: cls for cls in (Suite, Large, Stream, Serve)}


def fresh_workdir(root: Path) -> Path:
    """A new private directory for one run's files."""
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"work-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir()
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
