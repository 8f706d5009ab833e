"""Behavioural tests for the four routing functions (DO, MP, SM, SA)."""

import pytest

from repro.core.coregraph import CoreGraph
from repro.errors import UnsupportedRoutingError
from repro.routing.base import RoutingResult
from repro.routing.library import ROUTING_CODES, all_routings, make_routing
from repro.routing.loads import EdgeLoads
from repro.topology.base import is_switch, term
from repro.topology.library import make_topology


def toy_app() -> CoreGraph:
    g = CoreGraph("toy")
    for i in range(12):
        g.add_core(f"c{i}")
    g.add_flow("c0", "c5", 800.0)
    g.add_flow("c1", "c2", 300.0)
    g.add_flow("c3", "c7", 200.0)
    g.add_flow("c0", "c11", 100.0)
    return g


IDENTITY = {i: i for i in range(12)}


def route(topo_name: str, code: str) -> RoutingResult:
    topo = make_topology(topo_name, 12)
    routing = make_routing(code)
    return routing.route_all(topo, IDENTITY, toy_app().commodities())


class TestRegistry:
    def test_all_codes_available(self):
        assert [r.code for r in all_routings()] == list(ROUTING_CODES)

    def test_unknown_code_rejected(self):
        with pytest.raises(UnsupportedRoutingError):
            make_routing("XX")

    def test_case_insensitive(self):
        assert make_routing("mp").code == "MP"


class TestConservation:
    @pytest.mark.parametrize("topo_name", ["mesh", "torus", "hypercube", "clos"])
    @pytest.mark.parametrize("code", ["MP", "SM", "SA"])
    def test_flow_conservation(self, topo_name, code):
        result = route(topo_name, code)
        for rc in result.routed:
            assert rc.validate_conservation()

    @pytest.mark.parametrize("code", ["DO", "MP", "SM", "SA"])
    def test_paths_are_valid_edges(self, code):
        topo = make_topology("mesh", 12)
        result = make_routing(code).route_all(
            topo, IDENTITY, toy_app().commodities()
        )
        for rc in result.routed:
            for path, _bw in rc.paths:
                assert path[0] == term(rc.src_slot)
                assert path[-1] == term(rc.dst_slot)
                for u, v in zip(path, path[1:]):
                    assert topo.graph.has_edge(u, v)

    @pytest.mark.parametrize("code", ["MP", "SM", "SA"])
    def test_no_intermediate_terminals(self, code):
        topo = make_topology("mesh", 12)
        result = make_routing(code).route_all(
            topo, IDENTITY, toy_app().commodities()
        )
        for rc in result.routed:
            for path, _bw in rc.paths:
                assert all(is_switch(n) for n in path[1:-1])

    def test_loads_match_paths(self):
        result = route("mesh", "MP")
        rebuilt = EdgeLoads()
        for rc in result.routed:
            for path, bw in rc.paths:
                rebuilt.add_path(path, bw)
        for (u, v), load in result.loads.items():
            assert rebuilt.get(u, v) == pytest.approx(load)


class TestDimensionOrdered:
    def test_do_follows_dor_path(self):
        topo = make_topology("mesh", 12)
        result = route("mesh", "DO")
        for rc in result.routed:
            (path, bw) = rc.paths[0]
            assert path == topo.dor_path(rc.src_slot, rc.dst_slot)
            assert bw == rc.commodity.value

    def test_do_unsupported_on_clos(self):
        topo = make_topology("clos", 12)
        with pytest.raises(UnsupportedRoutingError):
            make_routing("DO").route_all(
                topo, IDENTITY, toy_app().commodities()
            )

    def test_do_is_load_blind(self):
        """Two DO runs with different commodity orders give identical
        paths (no load awareness)."""
        topo = make_topology("mesh", 12)
        comms = toy_app().commodities()
        r1 = make_routing("DO").route_all(topo, IDENTITY, comms)
        r2 = make_routing("DO").route_all(topo, IDENTITY, list(reversed(comms)))
        paths1 = {rc.commodity.index: rc.paths[0][0] for rc in r1.routed}
        paths2 = {rc.commodity.index: rc.paths[0][0] for rc in r2.routed}
        assert paths1 == paths2


class TestMinimumPath:
    @pytest.mark.parametrize("topo_name", ["mesh", "torus", "hypercube"])
    def test_mp_paths_are_minimal(self, topo_name):
        topo = make_topology(topo_name, 12)
        result = make_routing("MP").route_all(
            topo, IDENTITY, toy_app().commodities()
        )
        for rc in result.routed:
            hops = sum(1 for n in rc.paths[0][0] if is_switch(n))
            assert hops == topo.hop_distance(rc.src_slot, rc.dst_slot)

    def test_mp_avoids_loaded_links(self):
        """Two equal flows between diagonal corners must not share links."""
        g = CoreGraph("diag")
        for i in range(4):
            g.add_core(f"c{i}")
        g.add_flow("c0", "c3", 100.0)
        g.add_flow("c1", "c2", 100.0)
        topo = make_topology("mesh", 4)  # 2x2
        result = make_routing("MP").route_all(
            topo, {i: i for i in range(4)}, g.commodities()
        )
        assert result.max_link_load(topo) == pytest.approx(100.0)

    def test_quadrant_toggle_gives_same_hop_count(self, monkeypatch):
        """MP's quadrant search routes the same hops as a search of the
        whole graph, ``topology_search(..., quadrant=False)``."""
        from repro.routing import minimum_path
        from repro.routing.shortest import topology_search

        topo = make_topology("mesh", 12)
        comms = toy_app().commodities()
        routing = make_routing("MP")
        with_q = routing.route_all(topo, IDENTITY, comms)
        monkeypatch.setattr(
            minimum_path, "topology_search",
            lambda t, s, d: topology_search(t, s, d, quadrant=False),
        )
        without_q = routing.route_all(topo, IDENTITY, comms)
        assert with_q.weighted_average_hops() == pytest.approx(
            without_q.weighted_average_hops()
        )


class TestSplitting:
    def test_sm_splits_across_disjoint_min_paths(self):
        """An 800 MB/s diagonal flow must split 400/400 in a 2x2 mesh."""
        g = CoreGraph("one")
        for i in range(4):
            g.add_core(f"c{i}")
        g.add_flow("c0", "c3", 800.0)
        topo = make_topology("mesh", 4)
        result = make_routing("SM").route_all(
            topo, {i: i for i in range(4)}, g.commodities()
        )
        assert result.max_link_load(topo) == pytest.approx(400.0)
        assert len(result.routed[0].paths) == 2

    def test_sm_cannot_split_single_path(self):
        """Butterfly has no path diversity: SM degenerates to MP."""
        result = route("butterfly", "SM")
        for rc in result.routed:
            assert len(rc.paths) == 1

    def test_sa_no_worse_than_mp_on_max_load(self):
        for topo_name in ("mesh", "torus", "hypercube", "clos"):
            topo = make_topology(topo_name, 12)
            comms = toy_app().commodities()
            mp = make_routing("MP").route_all(topo, IDENTITY, comms)
            sa = make_routing("SA").route_all(topo, IDENTITY, comms)
            assert sa.max_link_load(topo) <= mp.max_link_load(topo) + 1e-6

    def test_sm_merges_chunks_on_same_path(self):
        from repro.routing.split import SplitMinPathRouting

        topo = make_topology("mesh", 12)
        routing = SplitMinPathRouting(chunks=4)
        loads = EdgeLoads()
        paths = routing.route_commodity(topo, 4, 5, 100.0, loads)
        # Adjacent slots: one min path, all chunks merged.
        assert len(paths) == 1
        assert paths[0][1] == pytest.approx(100.0)

    def test_invalid_chunks_rejected(self):
        from repro.routing.split import SplitMinPathRouting

        with pytest.raises(ValueError):
            SplitMinPathRouting(chunks=0)


class TestResultMetrics:
    def test_weighted_average_hops_range(self):
        result = route("mesh", "MP")
        assert 2.0 <= result.weighted_average_hops() <= 7.0

    def test_clos_hops_exactly_three(self):
        result = route("clos", "MP")
        assert result.weighted_average_hops() == pytest.approx(3.0)

    def test_butterfly_hops_exactly_two(self):
        result = route("butterfly", "MP")
        assert result.weighted_average_hops() == pytest.approx(2.0)

    def test_ordering_do_mp_sm_sa(self):
        """Figure 9(a) shape: DO >= MP >= SM >= SA on max link load."""
        topo = make_topology("mesh", 12)
        comms = toy_app().commodities()
        loads = {}
        for code in ROUTING_CODES:
            result = make_routing(code).route_all(topo, IDENTITY, comms)
            loads[code] = result.max_link_load(topo)
        assert loads["DO"] >= loads["MP"] - 1e-6
        assert loads["MP"] >= loads["SM"] - 1e-6
        assert loads["SM"] >= loads["SA"] - 1e-6
