"""Load-aware shortest-path helpers."""

from repro.routing.loads import EdgeLoads
from repro.routing.shortest import (
    SearchGraph,
    load_then_hops,
    min_hop_then_load,
    routing_view,
)
from repro.topology.base import term
from repro.topology.graph import TopologyGraph
from repro.topology.library import make_topology


def diamond() -> tuple[SearchGraph, EdgeLoads]:
    """s -> {a, b} -> t plus a long detour s -> c -> d -> t, as a
    search graph and an empty ledger sharing its edge ids."""
    g = TopologyGraph()
    for u, v in [
        ("s", "a"), ("a", "t"),
        ("s", "b"), ("b", "t"),
        ("s", "c"), ("c", "d"), ("d", "t"),
    ]:
        g.add_edge(u, v)
    return SearchGraph(g, "s", "t"), EdgeLoads(g.edge_index())


class TestMinHopThenLoad:
    def test_prefers_min_hops_despite_load(self):
        search, loads = diamond()
        loads.add("s", "a", 1000.0)
        loads.add("a", "t", 1000.0)
        loads.add("s", "b", 1000.0)
        loads.add("b", "t", 1000.0)
        path = min_hop_then_load(search, loads, 10.0)
        assert len(path) == 3  # never takes the 4-node detour

    def test_breaks_ties_by_load(self):
        search, loads = diamond()
        loads.add("s", "a", 500.0)
        path = min_hop_then_load(search, loads, 10.0)
        assert path == ["s", "b", "t"]

    def test_zero_load_deterministic(self):
        search, loads = diamond()
        p1 = min_hop_then_load(search, loads, 1.0)
        p2 = min_hop_then_load(search, loads.copy(), 1.0)
        assert p1 == p2


class TestLoadThenHops:
    def test_takes_detour_to_avoid_load(self):
        search, loads = diamond()
        for u, v in [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")]:
            loads.add(u, v, 500.0)
        path, _ = load_then_hops(search, loads, 10.0)
        assert path == ["s", "c", "d", "t"]

    def test_zero_load_is_minimal(self):
        search, loads = diamond()
        path, _ = load_then_hops(search, loads, 10.0)
        assert len(path) == 3


class TestRoutingView:
    def test_excludes_other_terminals(self):
        topo = make_topology("mesh", 6)
        view = routing_view(topo.graph, term(0), term(5))
        assert term(0) in view and term(5) in view
        assert term(3) not in view

    def test_keeps_all_switches(self):
        topo = make_topology("mesh", 6)
        view = routing_view(topo.graph, term(0), term(5))
        assert all(sw in view for sw in topo.switches)
