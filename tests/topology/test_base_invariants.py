"""Generic invariants every library topology must satisfy."""

import networkx as nx
import pytest
from nx_oracle import to_networkx

from repro.errors import TopologyError
from repro.topology.base import is_switch, is_term, term
from repro.topology.library import (
    EXTENSION_NAMES,
    STANDARD_NAMES,
    available_topologies,
    extended_library,
    make_topology,
    register_topology,
    standard_library,
)


class TestStructure:
    def test_validate_passes(self, any_topology):
        any_topology.validate()

    def test_has_enough_slots(self, any_topology):
        assert any_topology.num_slots >= 12 or any_topology.name == "octagon"

    def test_terminals_present(self, any_topology):
        g = any_topology.graph
        for t in any_topology.terminals:
            assert t in g

    def test_every_terminal_has_injection_and_ejection(self, any_topology):
        g = any_topology.graph
        for i in range(any_topology.num_slots):
            t = term(i)
            assert any(is_switch(v) for v in g.successors(t))
            assert any(is_switch(u) for u in g.predecessors(t))

    def test_edges_have_kind_and_length(self, any_topology):
        for u, v, d in any_topology.graph.edges(data=True):
            assert d["kind"] in ("core", "net")
            assert d["length"] > 0

    def test_strong_connectivity_between_terminals(self, any_topology):
        g = to_networkx(any_topology.graph)
        src = term(0)
        reachable = nx.descendants(g, src)
        for i in range(1, any_topology.num_slots):
            assert term(i) in reachable

    def test_switch_ports_positive(self, any_topology):
        for sw in any_topology.switches:
            n_in, n_out = any_topology.switch_ports(sw)
            assert n_in >= 1 and n_out >= 1

    def test_positions_defined_for_all_nodes(self, any_topology):
        for node in any_topology.graph.nodes:
            x, y = any_topology.position(node)
            assert isinstance(x, float) and isinstance(y, float)

    def test_switch_of_matches_graph(self, any_topology):
        for i in range(any_topology.num_slots):
            sw = any_topology.switch_of(i)
            assert any_topology.graph.has_edge(term(i), sw)


class TestDistances:
    def test_hop_distance_zero_on_same_slot(self, any_topology):
        assert any_topology.hop_distance(3, 3) == 0

    def test_hop_distance_at_least_one(self, any_topology):
        n = any_topology.num_slots
        for j in range(1, min(n, 6)):
            assert any_topology.hop_distance(0, j) >= 1

    def test_path_diversity_positive(self, any_topology):
        assert any_topology.path_diversity(0, 1) >= 1

    def test_fits(self, any_topology):
        assert any_topology.fits(any_topology.num_slots)
        assert not any_topology.fits(any_topology.num_slots + 1)


class TestQuadrants:
    def test_quadrant_contains_endpoints(self, any_topology):
        nodes = any_topology.quadrant_nodes(0, 5)
        if nodes is None:
            return  # whole graph: trivially contains them
        assert term(0) in nodes and term(5) in nodes

    def test_quadrant_preserves_min_distance(self, any_topology):
        """The quadrant must contain a minimum path (Section 4.3)."""
        n = any_topology.num_slots
        pairs = [(0, n - 1), (1, n // 2), (2, 5)]
        for s, d in pairs:
            if s == d:
                continue
            graph = any_topology.graph
            sub = to_networkx(graph, any_topology.quadrant_mask(s, d))
            full_dist = nx.shortest_path_length(
                to_networkx(graph), term(s), term(d)
            )
            quad_dist = nx.shortest_path_length(sub, term(s), term(d))
            assert quad_dist == full_dist

    def test_quadrant_is_subset_of_graph(self, any_topology):
        nodes = any_topology.quadrant_nodes(0, 3)
        if nodes is None:
            return
        assert nodes <= set(any_topology.graph.nodes)

    def test_quadrant_no_foreign_terminals(self, any_topology):
        nodes = any_topology.quadrant_nodes(0, 3)
        if nodes is None:
            return
        terms = {n for n in nodes if is_term(n)}
        assert terms == {term(0), term(3)}


class TestResourceSummary:
    def test_counts_positive(self, any_topology):
        rs = any_topology.resource_summary()
        assert rs.num_switches >= 1
        assert rs.num_links >= any_topology.num_slots

    def test_mapped_slots_reduce_core_links(self, any_topology):
        full = any_topology.resource_summary()
        partial = any_topology.resource_summary(mapped_slots=[0, 1, 2])
        assert partial.num_links < full.num_links


class TestLibrary:
    def test_standard_library_has_five_entries(self):
        topos = standard_library(12)
        assert [t.name.split("-")[0] for t in topos] == list(STANDARD_NAMES)

    def test_extended_library_adds_extensions(self):
        topos = extended_library(8)
        names = {t.name.split("-")[0] for t in topos}
        for ext in EXTENSION_NAMES:
            assert ext in names

    def test_extended_library_skips_octagon_for_large_apps(self):
        names = {t.name.split("-")[0] for t in extended_library(12)}
        assert "octagon" not in names

    def test_unknown_topology_rejected(self):
        with pytest.raises(TopologyError):
            make_topology("moebius", 8)

    def test_register_topology_roundtrip(self):
        from repro.topology.mesh import MeshTopology

        register_topology("testmesh", MeshTopology.for_cores)
        try:
            topo = make_topology("testmesh", 6)
            assert topo.num_slots >= 6
            assert "testmesh" in available_topologies()
        finally:
            from repro.topology import library

            library._REGISTRY.pop("testmesh", None)

    def test_register_duplicate_rejected(self):
        from repro.topology.mesh import MeshTopology

        with pytest.raises(TopologyError):
            register_topology("mesh", MeshTopology.for_cores)
