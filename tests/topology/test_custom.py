"""Heterogeneous / irregular topology modeling (paper future work)."""

import pytest

from repro.core.constraints import Constraints
from repro.core.mapper import MapperConfig, map_onto
from repro.errors import TopologyError
from repro.topology.base import switch
from repro.topology.custom import CustomTopology


def dual_hub() -> CustomTopology:
    """Eight slots concentrated 4-per-hub, two parallel bridge links."""
    return CustomTopology(
        name="dual-hub",
        slot_switch=[0, 0, 0, 0, 1, 1, 1, 1],
        links=[(0, 1)],
    )


def irregular() -> CustomTopology:
    """A 5-switch irregular fabric with mixed concentration."""
    return CustomTopology(
        name="irregular-5sw",
        slot_switch=[0, 0, 1, 2, 3, 3, 4],
        links=[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)],
        positions={0: (0, 0), 1: (1, 0), 2: (2, 0), 3: (1, 1), 4: (0, 1)},
    )


class TestConstruction:
    def test_dual_hub_structure(self):
        topo = dual_hub()
        topo.validate()
        assert topo.num_slots == 8
        assert len(topo.switches) == 2
        assert topo.concentration() == {0: 4, 1: 4}

    def test_heterogeneous_switch_sizes(self):
        topo = irregular()
        sizes = {sw[1]: topo.switch_ports(sw) for sw in topo.switches}
        # Switch 0: 2 cores + 2 net neighbours = 4x4; switch 2: 1 core
        # + 2 net = 3x3 — genuinely heterogeneous.
        assert sizes[0] == (4, 4)
        assert sizes[2] == (3, 3)

    def test_disconnected_fabric_rejected(self):
        with pytest.raises(TopologyError):
            CustomTopology(
                name="split",
                slot_switch=[0, 0, 1, 1],
                links=[],  # two islands
            )

    def test_self_link_rejected(self):
        with pytest.raises(TopologyError):
            CustomTopology(
                name="selfy", slot_switch=[0, 0], links=[(0, 0)]
            )

    def test_single_slot_rejected(self):
        with pytest.raises(TopologyError):
            CustomTopology(name="one", slot_switch=[0], links=[])

    def test_missing_positions_rejected(self):
        with pytest.raises(TopologyError):
            CustomTopology(
                name="p",
                slot_switch=[0, 1],
                links=[(0, 1)],
                positions={0: (0.0, 0.0)},  # switch 1 missing
            )

    def test_default_positions_grid(self):
        topo = dual_hub()
        assert topo.position(switch(0)) != topo.position(switch(1))


def double_bridge() -> CustomTopology:
    """Two hubs joined by two parallel channels (a fat link)."""
    return CustomTopology(
        name="double-bridge",
        slot_switch=[0, 0, 0, 1, 1, 1],
        links=[(0, 1), (0, 1)],
    )


class TestParallelLinks:
    def test_multiplicity_is_explicit_not_a_silent_union(self):
        topo = double_bridge()
        assert topo.link_multiplicity() == {(0, 1): 2}
        assert topo.channel_multiplicity(switch(0), switch(1)) == 2
        assert topo.channel_multiplicities() == {
            (switch(0), switch(1)): 2,
            (switch(1), switch(0)): 2,
        }

    def test_single_links_report_no_multiplicity(self):
        topo = dual_hub()
        assert topo.channel_multiplicities() is None
        assert topo.channel_multiplicity(switch(0), switch(1)) == 1

    def test_ports_count_each_physical_channel(self):
        topo = double_bridge()
        # 3 core ports + 2 bridge channels on each hub.
        assert topo.switch_ports(switch(0)) == (5, 5)
        assert topo.switch_ports(switch(1)) == (5, 5)

    def test_resource_summary_counts_channels(self):
        # 2 net channels (the fat link) + 6 core links.
        assert double_bridge().resource_summary().num_links == 8

    def test_fat_link_doubles_bandwidth_feasibility(self, tiny_app):
        """A load that saturates two channels is feasible across a
        double link but not across a single one."""
        from repro.core.constraints import Constraints as C
        from repro.core.evaluate import evaluate_mapping
        from repro.routing.library import make_routing

        single = CustomTopology(
            "single", slot_switch=[0, 0, 1, 1], links=[(0, 1)]
        )
        double = CustomTopology(
            "double", slot_switch=[0, 0, 1, 1], links=[(0, 1), (0, 1)]
        )
        # c0<->c1 on switch 0, c2<->c3 on switch 1: the c1->c2 and
        # c3->c0 flows (150 + 50 MB/s) cross the bridge.
        assignment = {0: 0, 1: 1, 2: 2, 3: 3}
        constraints = C(link_capacity_mb_s=120.0)
        ev_single = evaluate_mapping(
            tiny_app, single, assignment, make_routing("MP"), constraints
        )
        ev_double = evaluate_mapping(
            tiny_app, double, assignment, make_routing("MP"), constraints
        )
        assert not ev_single.bandwidth_feasible
        assert ev_double.bandwidth_feasible
        # Per-channel semantics: the double link halves the reported
        # constrained load.
        assert ev_double.max_link_load == ev_single.max_link_load / 2

    def test_fat_link_physical_models_scale(self):
        """Parallel channels cost real wiring area and leakage."""
        from repro.physical.estimate import NetworkEstimator

        est = NetworkEstimator()
        single = CustomTopology(
            "single", slot_switch=[0, 0, 1, 1], links=[(0, 1)]
        )
        double = CustomTopology(
            "double", slot_switch=[0, 0, 1, 1], links=[(0, 1), (0, 1)]
        )
        assert est.channels_area_mm2(
            double
        ) == pytest.approx(2 * est.channels_area_mm2(single))

    def test_generation_emits_one_link_per_channel(self, tiny_app):
        from repro.xpipes.netlist import build_netlist

        topo = double_bridge()
        assignment = {0: 0, 1: 1, 2: 3, 3: 4}
        netlist = build_netlist(tiny_app, topo, assignment)
        netlist.validate()
        bridge_links = [
            link
            for link in netlist.links
            if link.src_instance.startswith("sw_")
            and link.dst_instance.startswith("sw_")
        ]
        # Two channels per direction.
        assert len(bridge_links) == 4
        ports = {
            (link.src_instance, link.src_port) for link in bridge_links
        }
        assert len(ports) == 4  # distinct physical ports

    def test_simulation_runs_on_fat_link_fabric(self):
        """The simulator treats a fat link as one channel (documented
        conservative approximation) but must run correctly on it."""
        from repro.simulation import Network, SimConfig, SyntheticTraffic

        net = Network(double_bridge(), SimConfig(seed=3))
        net.run(600, SyntheticTraffic("uniform", 0.05, seed=5))
        assert net.drain()
        assert net.injected_packets == len(net.delivered)

    def test_self_link_still_rejected(self):
        with pytest.raises(TopologyError):
            CustomTopology(
                name="selfy",
                slot_switch=[0, 0, 1],
                links=[(0, 1), (1, 1)],
            )


class TestBehaviour:
    def test_same_hub_slots_are_one_hop(self):
        topo = dual_hub()
        assert topo.hop_distance(0, 1) == 1  # share the hub switch
        assert topo.hop_distance(0, 4) == 2  # across the bridge

    def test_quadrant_defaults_to_whole_graph(self):
        topo = dual_hub()
        assert topo.quadrant_nodes(0, 4) is None

    def test_mapping_end_to_end(self, tiny_app):
        topo = dual_hub()
        ev = map_onto(
            tiny_app,
            topo,
            routing="MP",
            objective="hops",
            constraints=Constraints(),
            config=MapperConfig(max_rounds=1),
        )
        assert ev.feasible
        assert ev.floorplan is not None
        assert ev.power_mw > 0

    def test_generation_end_to_end(self, tiny_app):
        from repro.xpipes.netlist import build_netlist

        topo = irregular()
        assignment = {0: 0, 1: 2, 2: 3, 3: 6}
        netlist = build_netlist(tiny_app, topo, assignment)
        netlist.validate()
        assert len(netlist.switches) == 5

    def test_simulation_end_to_end(self):
        from repro.simulation import Network, SimConfig, SyntheticTraffic

        topo = irregular()
        net = Network(topo, SimConfig(seed=4))
        net.run(800, SyntheticTraffic("uniform", 0.05, seed=5))
        assert net.drain()
        assert net.injected_packets == len(net.delivered)
