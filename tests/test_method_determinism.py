"""Tie-breaking determinism for the cross-paper placement methods.

Same trace + geometry must yield a byte-identical placement on every run
and in every execution mode: repeated in-process runs, and child
processes under both the ``fork`` and ``spawn`` start methods (the two
modes ``--jobs`` workers can run in, and the modes in which string
hashing — the classic source of ordering nondeterminism — differs from
the parent: ``spawn`` children get a fresh ``PYTHONHASHSEED``).
Companion to the CLI byte-identity tests in ``tests/test_cli.py``.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.api import build_problem, plan_placement
from repro.dwm.config import DWMConfig
from repro.trace.model import AccessTrace
from repro.trace.synthetic import markov_trace, zipf_trace

METHODS = ("shiftsreduce", "generalized")


def _case_payload(seed: int) -> dict:
    trace = markov_trace(9, 150, locality=0.6, seed=seed)
    return {
        "accesses": [(access.item, access.kind.value) for access in trace],
        "words_per_dbc": 6,
        "num_dbcs": 2,
        "num_ports": 2,
    }


def _placement_fingerprint(payload: dict, method: str) -> str:
    """Canonical JSON of the placement the method produces for ``payload``."""
    trace = AccessTrace([tuple(access) for access in payload["accesses"]])
    config = DWMConfig.with_uniform_ports(
        words_per_dbc=payload["words_per_dbc"],
        num_dbcs=payload["num_dbcs"],
        num_ports=payload["num_ports"],
    )
    problem = build_problem(trace, config)
    plan = plan_placement(problem, method=method)
    mapping = {
        item: list(slot) for item, slot in plan.placement.as_dict().items()
    }
    return json.dumps(mapping, sort_keys=True)


@pytest.mark.parametrize("method", METHODS)
def test_repeated_runs_are_byte_identical(method):
    payload = _case_payload(seed=3)
    first = _placement_fingerprint(payload, method)
    for _ in range(3):
        assert _placement_fingerprint(payload, method) == first


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_subprocess_runs_match_parent(method, start_method):
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} start method unavailable")
    payload = _case_payload(seed=7)
    parent = _placement_fingerprint(payload, method)
    context = multiprocessing.get_context(start_method)
    with context.Pool(processes=2) as pool:
        children = pool.starmap(
            _placement_fingerprint, [(payload, method)] * 4
        )
    assert all(child == parent for child in children), (
        f"{method} placement differs across {start_method} workers"
    )


@pytest.mark.parametrize("method", METHODS)
def test_eager_policy_is_deterministic_too(method):
    trace = zipf_trace(8, 120, seed=11)
    payload = {
        "accesses": [(access.item, access.kind.value) for access in trace],
        "words_per_dbc": 8,
        "num_dbcs": 1,
        "num_ports": 2,
    }
    trace_obj = AccessTrace([tuple(a) for a in payload["accesses"]])
    config = DWMConfig(
        words_per_dbc=8, num_dbcs=1, port_offsets=(0, 7), port_policy="eager"
    )
    problem = build_problem(trace_obj, config)
    first = plan_placement(problem, method=method).placement.as_dict()
    for _ in range(3):
        assert plan_placement(problem, method=method).placement.as_dict() == first


#: Prints the spectral placement of the ``lms`` kernel (seed 106, 16-word
#: DBCs, one port), on which a hash-ordered component walk used to give
#: different placements under different string-hash seeds.
_SPECTRAL_SCRIPT = """
import json
from repro.core.api import build_problem, plan_placement
from repro.dwm.config import DWMConfig
from repro.trace.kernels import KERNELS

trace = KERNELS["lms"](seed=106)
config = DWMConfig.for_items(trace.num_items, words_per_dbc=16, num_ports=1)
placement = plan_placement(build_problem(trace, config), "spectral").placement
print(json.dumps({item: list(slot) for item, slot in placement.as_dict().items()},
                 sort_keys=True))
"""


def test_spectral_placement_ignores_string_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = set()
    for hash_seed in ("0", "2"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            ),
        }
        completed = subprocess.run(
            [sys.executable, "-c", _SPECTRAL_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        outputs.add(completed.stdout)
    assert len(outputs) == 1
