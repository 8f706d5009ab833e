"""Differential tests for the interned routing hot path.

The interned searches (:mod:`repro.routing.shortest`) and the flat
ledger (:class:`~repro.routing.loads.EdgeLoads`) promise bit-identical
results to the tuple-keyed code they replaced. These tests check that
promise against independent references:

* the Dijkstra kernel, over every kind of interned search graph
  (quadrants, whole graphs, routing views with blocked terminals), on
  library, fat-link and faulted fabrics under random ledgers, returns
  exactly ``nx.dijkstra_path`` under the equivalent weight function;
* the ledger matches a plain ``{(u, v): load}`` dict in first-touch
  order, floats, total and maxima, through copies, pickles and re-keys;
* SM's one-pass update of a forced (unique) path equals one
  ``add_path`` call per chunk plus the chunk merge, bit for bit;
* a fault overlay interns its own surviving graph, pickled topologies
  drop the interned graphs (``tests/topology/test_derived_tables.py``
  checks every other derived table too), and parallel selection stays
  bit-identical;
* the ``BandwidthObjective`` cost bits of MPEG4 under SM routing (an
  RMS summed in ledger order) are pinned.
"""

from __future__ import annotations

import pickle
from functools import lru_cache

import networkx as nx
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from nx_oracle import to_networkx

from repro.apps import mpeg4
from repro.core.constraints import Constraints
from repro.core.evaluate import evaluate_mapping
from repro.core.greedy import initial_greedy_mapping
from repro.core.mapper import MapperConfig, map_onto
from repro.core.objectives import BandwidthObjective
from repro.core.selector import select_topology
from repro.faults import FaultedTopology, sample_faults
from repro.routing import shortest, split
from repro.routing.library import make_routing
from repro.routing.loads import EdgeLoads, edge_index
from repro.routing.split import SplitMinPathRouting
from repro.routing.shortest import (
    _dijkstra_min_hop,
    hop_scale,
    routing_view,
    topology_search,
)
from repro.topology.base import term
from repro.topology.custom import CustomTopology
from repro.topology.library import make_topology

FABRICS = (
    "mesh",
    "torus",
    "butterfly",
    "clos",
    "fat-custom",
    "faulted-mesh",
    "faulted-torus",
)

SLOW = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Few distinct values, so equal-weight ties (the tie-break order under
#: test) are common.
LOAD_VALUES = (0.0, 50.0, 100.0, 100.0, 250.0, 333.3)

ledger_ops = st.lists(
    st.tuples(st.integers(0, 10**6), st.sampled_from(LOAD_VALUES)),
    max_size=40,
)


@lru_cache(maxsize=None)
def fabric(name: str):
    if name == "fat-custom":
        # 2x3 switch grid, two cores per switch, three doubled links.
        return CustomTopology(
            "fat-custom",
            slot_switch=[0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5],
            links=[
                (0, 1), (0, 1), (1, 2), (0, 3), (1, 4), (1, 4),
                (2, 5), (3, 4), (4, 5), (4, 5),
            ],
        )
    if name.startswith("faulted-"):
        base = make_topology(name.split("-", 1)[1], 12)
        return FaultedTopology(base, sample_faults(base, 2, seed=3))
    return make_topology(name, 12)


def _ledger(topology, ops) -> EdgeLoads:
    loads = EdgeLoads(edge_index(topology))
    _, edges = edge_index(topology)
    for pick, value in ops:
        loads.add(*edges[pick % len(edges)], value)
    return loads


def _pair(topology, pick: int) -> tuple[int, int] | None:
    n = topology.num_slots
    src, dst = pick % n, (pick // n) % n
    return None if src == dst else (src, dst)


# ----------------------------------------------------------------------
# the kernel against networkx
# ----------------------------------------------------------------------
@SLOW
@given(
    st.sampled_from(FABRICS),
    st.integers(0, 10**4),
    ledger_ops,
    st.booleans(),
)
def test_min_hop_kernel_matches_networkx(name, pick, ops, quadrant):
    topology = fabric(name)
    pair = _pair(topology, pick)
    if pair is None:
        return
    src_slot, dst_slot = pair
    src, dst = term(src_slot), term(dst_slot)
    loads = _ledger(topology, ops)
    search = topology_search(topology, src_slot, dst_slot, quadrant)
    scale = hop_scale(loads, 10.0, search.num_nodes)
    path, eids = _dijkstra_min_hop(search, loads.by_edge_id, scale)

    graph = to_networkx(
        topology.graph,
        topology.quadrant_mask(src_slot, dst_slot) if quadrant
        else routing_view(topology.graph, src, dst),
    )
    assert search.num_nodes == graph.number_of_nodes()
    expected = nx.dijkstra_path(
        graph, src, dst, weight=lambda u, v, _: 1.0 + loads.get(u, v) / scale
    )
    assert path == expected
    ids, _ = edge_index(topology)
    assert eids == [ids[edge] for edge in zip(path, path[1:])]
    if search.unique is not None:
        assert path == search.unique
        assert eids == search.unique_eids
    assert shortest.min_hop_then_load(search, loads, 10.0) == (
        search.unique or expected
    )


@SLOW
@given(
    st.sampled_from(FABRICS),
    st.integers(0, 10**4),
    ledger_ops,
    st.sampled_from((1.0, 125.0, 455.0)),
)
def test_load_then_hops_matches_networkx(name, pick, ops, value):
    topology = fabric(name)
    pair = _pair(topology, pick)
    if pair is None:
        return
    src_slot, dst_slot = pair
    src, dst = term(src_slot), term(dst_slot)
    loads = _ledger(topology, ops)
    search = topology_search(topology, src_slot, dst_slot, quadrant=False)
    path, eids = split.load_then_hops(search, loads, value)

    view = to_networkx(topology.graph, routing_view(topology.graph, src, dst))
    eps = max(1e-9, (loads.total + value) * 1e-6)
    expected = nx.dijkstra_path(
        view, src, dst, weight=lambda u, v, _: loads.get(u, v) + eps
    )
    assert path == expected
    ids, _ = edge_index(topology)
    assert eids == [ids[edge] for edge in zip(path, path[1:])]


# ----------------------------------------------------------------------
# the flat ledger against a dict reference
# ----------------------------------------------------------------------
class _DictLedger:
    """The tuple-keyed ledger the flat one replaced."""

    def __init__(self):
        self.loads: dict = {}
        self.total = 0.0

    def add_path(self, path, value):
        for edge in zip(path, path[1:]):
            self.loads[edge] = self.loads.get(edge, 0.0) + value
            self.total += value


NODES = "abcdef"
SHARED_EDGES = [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e")]

ledger_paths = st.lists(
    st.tuples(
        st.lists(st.sampled_from(NODES), min_size=2, max_size=5),
        st.sampled_from((0.0, 0.1, 1e-3, 7.0, 333.3, 455.0)),
    ),
    max_size=25,
)


def _assert_matches(ledger: EdgeLoads, ref: _DictLedger) -> None:
    assert ledger.items() == list(ref.loads.items())  # order and bits
    assert ledger.total == ref.total
    assert len(ledger) == len(ref.loads)
    for u in NODES:
        for v in NODES:
            assert ledger.get(u, v) == ref.loads.get((u, v), 0.0)
    assert ledger.max_load() == max(ref.loads.values(), default=0.0)
    edges = [(u, v) for u in NODES for v in NODES]
    divisors = {("a", "b"): 2, ("c", "a"): 3}
    assert ledger.max_load(edges) == max(
        (ref.loads.get(e, 0.0) for e in edges), default=0.0
    )
    assert ledger.max_load(edges, divisors=divisors) == max(
        ref.loads.get(e, 0.0) / divisors.get(e, 1) for e in edges
    )


@SLOW
@given(ledger_paths, st.booleans())
def test_ledger_matches_dict_reference(paths, shared):
    index = ({e: i for i, e in enumerate(SHARED_EDGES)}, list(SHARED_EDGES))
    ledger = EdgeLoads(index if shared else None)
    ref = _DictLedger()
    for path, value in paths:
        ledger.add_path(path, value)
        ref.add_path(path, value)
    _assert_matches(ledger, ref)
    # A shared index is never grown in place.
    assert index[1] == SHARED_EDGES and len(index[0]) == len(SHARED_EDGES)
    _assert_matches(pickle.loads(pickle.dumps(ledger)), ref)
    clone = ledger.copy()
    ledger.bind(index)
    _assert_matches(ledger, ref)
    clone.add_path(["a", "b"], 1.0)
    _assert_matches(ledger, ref)  # the copy is independent


@lru_cache(maxsize=None)
def _forced_pairs(name: str) -> list[tuple[int, int]]:
    """The slot pairs of a fabric whose quadrant has a single
    minimum-hop path."""
    topology = fabric(name)
    n = topology.num_slots
    return [
        (src, dst)
        for src in range(n)
        for dst in range(n)
        if src != dst and topology_search(topology, src, dst).unique
    ]


@SLOW
@given(
    st.sampled_from(FABRICS),
    st.integers(0, 10**4),
    ledger_ops,
    st.one_of(
        st.sampled_from((0.5, 40.0, 173.0, 333.3, 910.0)),
        st.floats(1e-3, 2000.0),
    ),
    st.integers(1, 8),
)
def test_forced_path_sm_update_matches_per_chunk_add_path(
    name, pick, ops, value, chunks
):
    topology = fabric(name)
    pairs = _forced_pairs(name)
    assume(pairs)  # a Clos has path diversity between every pair
    src, dst = pairs[pick % len(pairs)]
    search = topology_search(topology, src, dst)
    unique = list(search.unique)
    fast = _ledger(topology, ops)
    ref = fast.copy()

    routes = SplitMinPathRouting(chunks).route_commodity(
        topology, src, dst, value, fast
    )

    chunk_bw = value / chunks
    merged = 0.0
    for _ in range(chunks):
        ref.add_path(unique, chunk_bw, search.unique_eids)
        merged += chunk_bw  # the chunk merge's running sum
    assert [(list(path), bw, list(eids)) for path, bw, eids in routes] == [
        (unique, merged, search.unique_eids)
    ]
    assert routes[0][1].hex() == merged.hex()
    assert [x.hex() for x in fast.by_edge_id] == [
        x.hex() for x in ref.by_edge_id
    ]
    assert fast.total.hex() == ref.total.hex()
    assert fast.items() == ref.items()  # first-touch order and bits
    assert search.unique == unique  # the interned path is untouched


# ----------------------------------------------------------------------
# faults and parallel runs
# ----------------------------------------------------------------------
def test_faulted_topology_interns_its_own_graph():
    base = make_topology("mesh", 12)
    faulted = FaultedTopology(base, sample_faults(base, 2, seed=1))
    dead = set()
    for u, v in faulted.faults.dead_links:
        dead |= {(u, v), (v, u)}
    ids, edges = edge_index(faulted)
    assert edges == list(faulted.graph.edges())
    assert not dead & set(ids)
    assert dead <= set(edge_index(base)[0])  # the base keeps them
    for src in range(faulted.num_slots):
        for dst in range(faulted.num_slots):
            if src == dst:
                continue
            for quadrant in (True, False):
                search = topology_search(faulted, src, dst, quadrant)
                for v, row in enumerate(search.rows):
                    for u, e in row:
                        assert edges[e] == (search.nodes[v], search.nodes[u])
                        assert edges[e] not in dead


def test_pickled_topology_drops_interned_caches():
    topology = make_topology("mesh", 12)
    app = mpeg4()
    evaluate_mapping(
        app, topology, initial_greedy_mapping(app, topology),
        make_routing("SM"), Constraints(), with_floorplan=False,
    )
    topology_search(topology, 0, 5, quadrant=False)
    search = topology.derived("search")
    assert "csr" in search
    assert (False, 0, 5) in search
    assert topology.graph._index is not None
    clone = pickle.loads(pickle.dumps(topology))
    assert "search" not in clone._derived
    # The graph's native edge ids are renumbered, not pickled.
    assert clone.graph._index is None
    assert edge_index(clone) == edge_index(topology)


def _selection_bits(selection) -> list:
    rows = []
    for name, ev in sorted(selection.evaluations.items()):
        rows.append((
            name,
            ev.cost.hex(),
            sorted(ev.assignment.items()),
            [(edge, load.hex()) for edge, load in ev.routing_result.loads.items()],
            [rc.paths for rc in ev.routing_result.routed],
        ))
    return rows


def test_selection_bit_identical_jobs1_vs_jobs4():
    app = mpeg4()
    kwargs = dict(
        routing="SM",
        objective="bandwidth",
        config=MapperConfig(max_rounds=1),
    )
    serial = select_topology(app, jobs=1, **kwargs)
    parallel = select_topology(app, jobs=4, **kwargs)
    assert _selection_bits(serial) == _selection_bits(parallel)


# ----------------------------------------------------------------------
# pinned bits
# ----------------------------------------------------------------------
def test_bandwidth_objective_bits_pinned_mpeg4_sm():
    """RMS over ``items()`` is summed in first-touch order: any change
    to that order or to a single ledger float moves these bits."""
    app = mpeg4()
    objective = BandwidthObjective()
    greedy = {"mesh": "0x1.c705c46954593p+9", "torus": "0x1.c745ebdbebedfp+9"}
    mapped = {
        "mesh": (
            "0x1.f40b4dddd55c4p+8", [6, 1, 2, 5, 9, 10, 8, 4, 0, 7, 11, 3]
        ),
        "torus": (
            "0x1.e509d95ec32d6p+8", [4, 6, 1, 8, 2, 7, 3, 10, 5, 9, 0, 11]
        ),
    }
    for name in ("mesh", "torus"):
        topology = make_topology(name, app.num_cores)
        ev = evaluate_mapping(
            app, topology, initial_greedy_mapping(app, topology),
            make_routing("SM"), Constraints(), with_floorplan=False,
        )
        assert objective.cost(ev).hex() == greedy[name]
        best = map_onto(app, topology, routing="SM", objective="bandwidth")
        cost, slots = mapped[name]
        assert best.cost.hex() == cost
        assert [best.assignment[i] for i in range(app.num_cores)] == slots
