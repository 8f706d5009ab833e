"""Butterfly (k-ary n-fly) behaviour (Figure 2(b), Sections 4.2/4.3)."""

import networkx as nx
import pytest
from nx_oracle import to_networkx

from repro.errors import TopologyError
from repro.topology.base import is_switch, switch, term
from repro.topology.butterfly import ButterflyTopology


class TestSizing:
    @pytest.mark.parametrize(
        "n,k", [(12, 4), (16, 4), (6, 3), (9, 3), (4, 2), (25, 5)]
    )
    def test_for_cores_two_stage(self, n, k):
        topo = ButterflyTopology.for_cores(n)
        assert (topo.k, topo.n) == (k, 2)
        assert topo.num_slots >= n

    def test_explicit_2ary_3fly(self):
        """The paper's Figure 2(b) network."""
        topo = ButterflyTopology(k=2, n=3)
        assert topo.num_slots == 8
        assert topo.switches_per_stage == 4
        assert len(topo.switches) == 12

    def test_bad_parameters(self):
        with pytest.raises(TopologyError):
            ButterflyTopology(k=1, n=2)
        with pytest.raises(TopologyError):
            ButterflyTopology(k=2, n=0)


class TestWiring:
    def test_paper_distance_halving_example(self):
        """Section 4.2: in a 2-ary 3-fly, switch 0 of stage 1 connects to
        switches 0 and 2 of stage 2; switch 0 of stage 2 connects to
        switches 0 and 1 of stage 3."""
        topo = ButterflyTopology(k=2, n=3)
        g = topo.graph
        stage0_targets = sorted(
            v[1][1] for v in g.successors(switch((0, 0))) if is_switch(v)
        )
        assert stage0_targets == [0, 2]
        stage1_targets = sorted(
            v[1][1] for v in g.successors(switch((1, 0))) if is_switch(v)
        )
        assert stage1_targets == [0, 1]

    def test_switch_radix_is_k(self):
        topo = ButterflyTopology(k=4, n=2)
        for sw in topo.switches:
            assert topo.switch_ports(sw) == (4, 4)

    def test_interstage_link_count(self):
        topo = ButterflyTopology(k=4, n=2)
        net = topo.net_edges()
        assert len(net) == 4 * 4  # full k x k^{n-1} pattern for n=2


class TestUniquePath:
    def test_exactly_one_path_between_any_pair(self):
        from repro.routing.shortest import routing_view

        topo = ButterflyTopology(k=2, n=3)
        for s in range(8):
            for d in range(8):
                if s == d:
                    continue
                view = to_networkx(
                    topo.graph, routing_view(topo.graph, term(s), term(d))
                )
                paths = list(nx.all_simple_paths(view, term(s), term(d)))
                assert len(paths) == 1

    def test_unique_path_matches_graph_shortest(self):
        topo = ButterflyTopology(k=4, n=2)
        for s, d in [(0, 15), (3, 12), (7, 8), (1, 2)]:
            expected = nx.shortest_path(
                to_networkx(topo.graph), term(s), term(d)
            )
            assert topo.unique_path(s, d) == expected

    def test_all_pairs_traverse_n_switches(self):
        """Section 6.1: 'a 4-ary 2-fly has 2 stages of switches, which
        means an average delay of 2 hops for all communication.'"""
        topo = ButterflyTopology(k=4, n=2)
        for s in range(16):
            for d in range(16):
                if s != d:
                    assert topo.hop_distance(s, d) == 2

    def test_path_diversity_is_one(self):
        topo = ButterflyTopology(k=4, n=2)
        assert topo.path_diversity(0, 15) == 1

    def test_dor_path_equals_unique_path(self):
        topo = ButterflyTopology(k=2, n=3)
        assert topo.dor_path(0, 7) == topo.unique_path(0, 7)

    def test_quadrant_is_the_unique_path(self):
        topo = ButterflyTopology(k=4, n=2)
        assert topo.quadrant_nodes(0, 15) == set(topo.unique_path(0, 15))


class TestPruning:
    def test_unused_switches_pruned_from_resources(self):
        """The DSP example keeps 4 of 6 switches (Figure 10(b))."""
        topo = ButterflyTopology(k=3, n=2)
        routes = [topo.unique_path(s, d) for s, d in [(0, 4), (4, 0), (1, 5)]]
        rs = topo.resource_summary(routes=routes, mapped_slots=[0, 1, 4, 5])
        assert rs.num_switches < len(topo.switches)
