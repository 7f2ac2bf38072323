"""The one-pass grouped layout: pair tables, chains, offsets and pricing.

Each grouping's view (:class:`repro.core.ordering.GroupedTrace`) must
reproduce what the single-group helpers compute group by group — the
restricted pair counts, the name-keyed chains, the string offset helpers
and the scalar per-DBC reference (:func:`repro.core.cost.per_dbc_costs`)
— on both kernel tiers.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.core import kernels
from repro.core.cost import per_dbc_costs
from repro.core.generalized import multi_port_chain_offsets, multi_port_layout
from repro.core.ordering import (
    GroupedTrace,
    Layout,
    anchored_layout,
    anchored_offsets,
    greedy_chain_order,
    price_layouts,
    proximity_layout,
    proximity_offsets,
)
from repro.core.placement import Placement, Slot
from repro.core.problem import PlacementProblem
from repro.dwm.config import DWMConfig, PortPolicy
from repro.dwm.dbc import proximity_order, rest_table
from repro.trace.binio import open_binary, pack
from repro.trace.kernels import KERNELS
from repro.trace.model import AccessTrace
from repro.trace.stats import affinity_graph
from repro.trace.synthetic import markov_trace
from tests.test_shiftsreduce import _bidirectional_order_reference

TIERS = ["active", "numpy"]


def _random_problem(seed, num_ports=1, policy=PortPolicy.LAZY, names=None):
    """A trace whose names' string order differs from first touch (x10 <
    x9) and whose short, repetitive patterns tie many pair weights."""
    rng = random.Random(seed)
    names = names or [f"x{index}" for index in range(rng.randint(3, 14), 0, -1)]
    cycle = rng.sample(names, k=min(len(names), rng.randint(2, 5)))
    sequence = []
    while len(sequence) < rng.randint(40, 160):
        if rng.random() < 0.5:
            sequence.extend(cycle)
        else:
            sequence.append(rng.choice(names))
    sequence.extend(name for name in names if name not in sequence)
    trace = AccessTrace(sequence)
    config = DWMConfig.with_uniform_ports(
        words_per_dbc=8, num_dbcs=max(4, -(-len(names) // 2)),
        num_ports=num_ports, port_policy=policy,
    )
    return PlacementProblem(trace=trace, config=config)


def _random_groups(problem, rng):
    """A random grouping with empty and one-item groups, capacity kept."""
    items = list(problem.items)
    rng.shuffle(items)
    groups = [[] for _ in range(problem.config.num_dbcs)]
    for item in items:
        open_groups = [
            group for group in groups
            if len(group) < problem.config.words_per_dbc
        ]
        rng.choice(open_groups).append(item)
    groups[rng.randrange(len(groups))] = []
    return [group for group in groups] + [[]]


def _restricted_affinity(problem, group):
    return affinity_graph(problem.trace.restricted_to(group))


def _reference_cost(problem, group_offsets):
    """DBC 0's scalar cost with the group at ``group_offsets`` and every
    other item on the DBCs after it."""
    length = problem.config.words_per_dbc
    others = [item for item in problem.items if item not in group_offsets]
    mapping = {item: Slot(0, offset) for item, offset in group_offsets.items()}
    mapping.update(
        {item: Slot(1 + i // length, i % length) for i, item in enumerate(others)}
    )
    return per_dbc_costs(problem, Placement(mapping)).get(0, 0)


def _names(view, order, group):
    members = view.members[group]
    return [view.problem.items[members[i]] for i in order[group, : view.sizes[group]]]


def _offsets(view, layout, group):
    order = np.broadcast_to(layout.order, view.members.shape)
    offsets = np.broadcast_to(layout.offsets, view.members.shape)
    size = view.sizes[group]
    return {
        view.problem.items[view.members[group, order[group, i]]]: int(offsets[group, i])
        for i in range(size)
    }


class TestGroupedView:
    @pytest.mark.parametrize("seed", range(12))
    def test_pair_table_matches_restricted_pair_counts(self, seed):
        problem = _random_problem(seed)
        groups = _random_groups(problem, random.Random(seed))
        view = GroupedTrace(problem, groups)
        for g, group in enumerate(groups):
            expected = _restricted_affinity(problem, group)
            table = view.pairs[g]
            members = [problem.items[code] for code in view.members[g, : len(group)]]
            got = {}
            for i, j in zip(*np.nonzero(np.triu(table, 1))):
                a, b = sorted((members[i], members[j]))
                got[(a, b)] = int(table[i, j])
            assert got == expected
            assert not np.diagonal(table).any()
            assert not table[len(group):].any() and not table[:, len(group):].any()

    def test_codes_are_the_restricted_subsequences(self):
        problem = _random_problem(3)
        groups = _random_groups(problem, random.Random(3))
        view = GroupedTrace(problem, groups)
        for g, group in enumerate(groups):
            segment = view.codes[view.starts[g] : view.starts[g + 1]]
            if group:
                restricted = problem.trace.restricted_to(group)
                assert [problem.items[code] for code in segment.tolist()] == [
                    access.item for access in restricted
                ]
            else:
                assert segment.size == 0

    def test_first_touch_and_heat_orders(self):
        problem = _random_problem(5)
        groups = _random_groups(problem, random.Random(5))
        view = GroupedTrace(problem, groups)
        frequencies = problem.frequencies
        for g, group in enumerate(groups):
            if not group:
                continue
            restricted = problem.trace.restricted_to(group)
            assert _names(view, view.first_touch, g) == list(restricted.items)
            assert _names(view, view.by_heat, g) == sorted(
                group, key=lambda item: (-frequencies[item], item)
            )

    def test_rejects_bad_groupings(self):
        from repro.errors import OptimizationError

        problem = _random_problem(1, names=[f"v{index}" for index in range(12)])
        items = list(problem.items)
        with pytest.raises(OptimizationError, match="duplicate"):
            GroupedTrace(problem, [items[:2], items[1:3]])
        with pytest.raises(OptimizationError, match="capacity"):
            GroupedTrace(problem, [items[:9]])
        with pytest.raises(OptimizationError, match="DBC count"):
            GroupedTrace(problem, [[]] * problem.config.num_dbcs + [items[:1]])


@pytest.mark.parametrize("kernel_tier", TIERS, indirect=True)
class TestChains:
    @pytest.mark.parametrize("seed", range(20))
    def test_greedy_chains_match_greedy_chain_order(self, seed, kernel_tier):
        problem = _random_problem(seed)
        groups = _random_groups(problem, random.Random(seed))
        view = GroupedTrace(problem, groups)
        chains = kernel_tier.greedy_chains(*view.chain_edges, view.sizes, view.k)
        for g, group in enumerate(groups):
            if group:
                affinity = _restricted_affinity(problem, group)
                assert _names(view, chains, g) == greedy_chain_order(group, affinity)
            assert sorted(chains[g].tolist()) == list(range(view.k))

    @pytest.mark.parametrize("seed", range(20))
    def test_bidirectional_chains_match_reference(self, seed, kernel_tier):
        problem = _random_problem(seed)
        groups = _random_groups(problem, random.Random(seed))
        view = GroupedTrace(problem, groups)
        chains = kernel_tier.bidirectional_chains(view.pairs, view.sizes, view.freq)
        for g, group in enumerate(groups):
            if group:
                affinity = _restricted_affinity(problem, group)
                assert _names(view, chains, g) == _bidirectional_order_reference(
                    group, affinity, problem.frequencies
                )
            assert sorted(chains[g].tolist()) == list(range(view.k))

    def test_name_order_breaks_weight_ties(self, kernel_tier):
        # x9-x10 and x10-x11 tie at weight 6: the edges are taken in name
        # order (x10 < x11 < x9), not first-touch order, which would give
        # x9 x10 x11.
        trace = AccessTrace(["x9", "x10", "x11"] * 6)
        config = DWMConfig(words_per_dbc=8, num_dbcs=1)
        problem = PlacementProblem(trace=trace, config=config)
        group = ["x9", "x10", "x11"]
        view = GroupedTrace(problem, [group])
        chains = kernel_tier.greedy_chains(*view.chain_edges, view.sizes, view.k)
        affinity = _restricted_affinity(problem, group)
        assert _names(view, chains, 0) == greedy_chain_order(group, affinity)
        assert _names(view, chains, 0) == ["x11", "x10", "x9"]


@pytest.mark.parametrize("kernel_tier", TIERS, indirect=True)
class TestPricing:
    @pytest.mark.parametrize("policy", [PortPolicy.LAZY, PortPolicy.EAGER])
    @pytest.mark.parametrize("num_ports", [1, 2, 3])
    def test_cost_table_matches_group_trace(self, num_ports, policy, kernel_tier):
        """Every entry is the group's DBC cost by the scalar reference."""
        rng = random.Random(num_ports * 11 + len(policy.value))
        for seed in range(4):
            problem = _random_problem(seed, num_ports, policy)
            groups = _random_groups(problem, rng)
            view = GroupedTrace(problem, groups)
            layouts = [
                anchored_layout(view, view.first_touch),
                proximity_layout(view),
                Layout(view.chain, np.arange(view.k)[None, :]),
                multi_port_layout(view, view.by_heat),
            ]
            table = price_layouts(view, layouts, kernel_tier)
            assert table.shape == (len(layouts), len(groups))
            for c, layout in enumerate(layouts):
                for g, group in enumerate(groups):
                    expected = (
                        _reference_cost(problem, _offsets(view, layout, g))
                        if group else 0
                    )
                    assert table[c, g] == expected

    @pytest.mark.parametrize("ports", [(0,), (1, 6), (0, 3, 7)])
    def test_segment_costs_match_the_reference_walk(self, ports, kernel_tier):
        rng = np.random.default_rng(len(ports))
        codes = rng.integers(0, 9, size=60)
        starts = np.asarray([0, 0, 7, 8, 8, 31, 60, 60])
        table = rng.integers(0, 8, size=(3, 9))
        got = kernel_tier.segment_costs(codes, starts, table, np.asarray(ports))
        for c in range(3):
            for s in range(starts.size - 1):
                offsets = table[c, codes[starts[s] : starts[s + 1]]]
                expected = (
                    int(kernels.multi_port_access_costs_numpy(offsets, ports).sum())
                    if offsets.size else 0
                )
                assert got[c, s] == expected


@pytest.mark.parametrize("limit", [1, 130, 1 << 16])
@pytest.mark.parametrize("ports", [(0,), (1, 6), (0, 3, 7)])
def test_numpy_segment_walks_match_row_by_row(ports, limit, monkeypatch):
    # Rows walked back to back (several per walk, or one when a row alone
    # passes the limit) must price as walks of one row each.
    monkeypatch.setattr(kernels, "NUMPY_SEGMENT_ACCESSES", limit)
    rng = np.random.default_rng(limit + len(ports))
    codes = rng.integers(0, 9, size=60)
    table = rng.integers(0, 8, size=(5, 9))
    for starts in ([0, 0, 7, 8, 8, 31, 60, 60], [5, 5, 12, 40, 58]):
        starts = np.asarray(starts)
        got = kernels.NumpyKernels().segment_costs(
            codes, starts, table, np.asarray(ports)
        )
        for c in range(len(table)):
            for s in range(starts.size - 1):
                offsets = table[c, codes[starts[s] : starts[s + 1]]]
                expected = (
                    int(kernels.multi_port_access_costs_numpy(offsets, ports).sum())
                    if offsets.size else 0
                )
                assert got[c, s] == expected


class TestUnaccessedItems:
    @pytest.mark.parametrize("method", ["heuristic", "shiftsreduce", "generalized"])
    def test_every_item_is_placed(self, method):
        # A stream window keeps its stream's whole item table, so some
        # items have no access; they go after the accessed ones in first
        # touch order and still get a slot.
        from repro.core.api import ALGORITHMS
        from repro.core.cost import evaluate_placement

        items = ("z", "y", "x", "w", "v")
        item_at = np.asarray([2, 0, 2, 3, 1, 0, 2, 3, 1, 2], dtype=np.int64)
        trace = AccessTrace._from_dense(items, item_at, np.zeros(10, dtype=np.bool_))
        config = DWMConfig(words_per_dbc=4, num_dbcs=2)
        problem = PlacementProblem(trace=trace, config=config)
        placement = ALGORITHMS[method](problem)
        assert sorted(placement) == sorted(items)
        assert evaluate_placement(problem, placement) >= 0


class TestVectorOffsets:
    @pytest.mark.parametrize("num_ports", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_match_the_string_helpers(self, seed, num_ports):
        problem = _random_problem(seed, num_ports)
        groups = _random_groups(problem, random.Random(seed))
        view = GroupedTrace(problem, groups)
        config, frequencies = problem.config, problem.frequencies
        anchored = anchored_layout(view, view.chain)
        proximity = proximity_layout(view)
        split = multi_port_layout(view, view.reversed(view.chain))
        for g, group in enumerate(groups):
            if not group:
                continue
            chain = _names(view, view.chain, g)
            assert _offsets(view, anchored, g) == anchored_offsets(
                chain, config, frequencies
            )
            assert _offsets(view, proximity, g) == proximity_offsets(
                group, config, frequencies
            )
            assert _offsets(view, split, g) == multi_port_chain_offsets(
                chain[::-1], config, frequencies
            )


class TestGeometryTables:
    def test_built_once_and_read_only(self):
        config = DWMConfig.with_uniform_ports(words_per_dbc=16, num_dbcs=2, num_ports=2)
        assert rest_table(config) is rest_table(DWMConfig(**config.__dict__))
        assert proximity_order(config) is proximity_order(config)
        with pytest.raises(ValueError):
            rest_table(config)[0] = 1
        with pytest.raises(TypeError):
            proximity_order(config)[0] = 1


def _reference_fingerprint(accesses):
    digest = hashlib.sha256()
    for access in accesses:
        digest.update(b"W" if access.is_write else b"R")
        digest.update(access.item.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _pinned_traces():
    traces = [KERNELS[name](seed=index) for index, name in enumerate(KERNELS)]
    rng = random.Random(9)
    traces.append(
        AccessTrace(
            [(f"v{rng.randrange(40)}", rng.choice("RW")) for _ in range(3000)],
            name="writes",
        )
    )
    non_ascii = [("ä", "W"), ("日本", "R"), ("ä", "R"), ("🙂x", "W")]
    traces.append(AccessTrace(non_ascii))
    traces.append(AccessTrace([]))
    traces.append(markov_trace(30, 2000, seed=4))
    return traces


class TestFingerprint:
    def test_digests_unchanged(self):
        for trace in _pinned_traces():
            assert trace.fingerprint() == _reference_fingerprint(trace)

    def test_packed_traces_agree(self, tmp_path):
        for index, trace in enumerate(_pinned_traces()):
            path = tmp_path / f"{index}.rtb"
            pack(((a.item, "W" if a.is_write else "R") for a in trace), path)
            streamed = open_binary(path)
            assert streamed.fingerprint() == _reference_fingerprint(trace)
            assert streamed.to_trace().fingerprint() == streamed.fingerprint()
