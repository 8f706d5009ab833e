"""Benchmark applications and synthetic generators."""

import pytest

from repro.apps import APPLICATIONS, load_application
from repro.apps.synthetic import (
    hotspot_core_graph,
    pipeline_core_graph,
    random_core_graph,
)


class TestRegistry:
    def test_all_four_paper_apps_registered(self):
        assert set(APPLICATIONS) == {"vopd", "mpeg4", "dsp", "netproc"}

    def test_load_application(self):
        app = load_application("VOPD")  # case-insensitive
        assert app.num_cores == 12

    def test_unknown_application(self):
        with pytest.raises(KeyError):
            load_application("quake")

    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_apps_validate_and_have_positive_areas(self, name):
        app = load_application(name)
        app.validate()
        for core in app.cores:
            assert core.area_mm2 > 0

    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_apps_are_freshly_built_each_call(self, name):
        a = load_application(name)
        b = load_application(name)
        assert a is not b
        assert a.flows() == b.flows()


class TestRandomCoreGraph:
    def test_reproducible_given_seed(self):
        a = random_core_graph(8, seed=5)
        b = random_core_graph(8, seed=5)
        assert a.flows() == b.flows()

    def test_different_seeds_differ(self):
        a = random_core_graph(8, seed=1)
        b = random_core_graph(8, seed=2)
        assert a.flows() != b.flows()

    def test_connected_backbone(self):
        import networkx as nx

        app = random_core_graph(10, seed=3)
        g = nx.Graph(list(app.flows()))
        g.add_nodes_from(range(app.num_cores))
        assert nx.is_connected(g)

    def test_flow_count_honored(self):
        app = random_core_graph(8, n_flows=12, seed=4)
        assert app.num_flows == 12

    def test_bandwidth_range_honored(self):
        app = random_core_graph(8, seed=6, bandwidth_range=(50.0, 60.0))
        for value in app.flows().values():
            assert 50.0 <= value <= 60.0

    def test_too_few_cores_rejected(self):
        with pytest.raises(ValueError):
            random_core_graph(1)


class TestStructuredGenerators:
    def test_pipeline_is_a_chain(self):
        app = pipeline_core_graph(6, bandwidth=123.0)
        assert app.num_flows == 5
        assert all(v == 123.0 for v in app.flows().values())
        assert app.comm(0, 1) > 0 and app.comm(1, 0) == 0

    def test_hotspot_concentrates_on_core_zero(self):
        app = hotspot_core_graph(8)
        inbound = sum(
            v for (s, d), v in app.flows().items() if d == 0
        )
        outbound_each = [
            v for (s, d), v in app.flows().items() if s == 0
        ]
        assert inbound == pytest.approx(600.0)
        assert len(outbound_each) == 7

    def test_generators_map_end_to_end(self):
        from repro.core.mapper import MapperConfig, map_onto
        from repro.topology.library import make_topology

        app = hotspot_core_graph(6, hotspot_bandwidth=300.0)
        topo = make_topology("mesh", 6)
        ev = map_onto(
            app, topo, config=MapperConfig(max_rounds=1)
        )
        assert ev.feasible
