"""Constraints and objectives."""

import math

import pytest

from repro.core.constraints import (
    Constraints,
    RoutingWatch,
    bandwidth_feasible,
    bandwidth_overflow,
    beyond,
    capacity_table,
)
from repro.core.coregraph import CoreGraph
from repro.core.objectives import (
    WeightedObjective,
    make_objective,
)
from repro.errors import ReproError
from repro.routing.library import make_routing
from repro.routing.loads import EdgeLoads, edge_index
from repro.topology.library import make_topology


def route_two_flows(value: float):
    g = CoreGraph("two")
    for i in range(4):
        g.add_core(f"c{i}")
    g.add_flow("c0", "c1", value)
    topo = make_topology("mesh", 4)
    result = make_routing("MP").route_all(
        topo, {i: i for i in range(4)}, g.commodities()
    )
    return topo, result


class TestConstraints:
    def test_default_capacity_is_paper_value(self):
        assert Constraints().link_capacity_mb_s == 500.0

    def test_bandwidth_feasible_under_capacity(self):
        topo, result = route_two_flows(400.0)
        ok, load = bandwidth_feasible(result, topo, Constraints())
        assert ok and load == pytest.approx(400.0)

    def test_bandwidth_infeasible_over_capacity(self):
        topo, result = route_two_flows(600.0)
        ok, load = bandwidth_feasible(result, topo, Constraints())
        assert not ok and load == pytest.approx(600.0)

    def test_overflow_zero_when_feasible(self):
        topo, result = route_two_flows(400.0)
        assert bandwidth_overflow(result, topo, Constraints()) == 0.0

    def test_overflow_positive_when_infeasible(self):
        topo, result = route_two_flows(700.0)
        over = bandwidth_overflow(result, topo, Constraints())
        assert over == pytest.approx(200.0)  # one link 200 over capacity

    def test_relaxed_lifts_capacity(self):
        relaxed = Constraints().relaxed()
        assert math.isinf(relaxed.link_capacity_mb_s)
        topo, result = route_two_flows(10000.0)
        ok, _ = bandwidth_feasible(result, topo, relaxed)
        assert ok

    def test_core_link_capacity_optional(self):
        topo, result = route_two_flows(400.0)
        tight = Constraints(core_link_capacity_mb_s=100.0)
        ok, load = bandwidth_feasible(result, topo, tight)
        assert not ok
        assert load == pytest.approx(400.0)


class TestObjectives:
    def test_make_objective_names(self):
        for name in ("hops", "latency", "area", "power", "bandwidth"):
            obj = make_objective(name)
            assert obj.cost is not None

    def test_unknown_objective(self):
        with pytest.raises(ReproError):
            make_objective("beauty")

    def test_needs_floorplan_flags(self):
        assert not make_objective("hops").needs_floorplan
        assert make_objective("area").needs_floorplan
        assert make_objective("power").needs_floorplan
        assert not make_objective("bandwidth").needs_floorplan

    def test_weighted_requires_positive_weight(self):
        with pytest.raises(ReproError):
            WeightedObjective()
        with pytest.raises(ReproError):
            WeightedObjective(hops=-1.0, power=2.0)

    def test_weighted_combination(self):
        class Stub:
            avg_hops = 2.0
            area_mm2 = 50.0
            power_mw = 400.0

        obj = WeightedObjective(
            hops=0.5, power=0.5, hops_ref=2.0, power_ref=400.0
        )
        assert obj.cost(Stub()) == pytest.approx(1.0)

    def test_weighted_floorplan_flag(self):
        assert WeightedObjective(hops=1.0).needs_floorplan is False
        assert WeightedObjective(hops=1.0, area=0.1).needs_floorplan is True


class TestRoutingWatch:
    """The watch stops against an infeasible key exactly when
    :func:`beyond` says the running overflow loses, so a near-tie is
    never abandoned."""

    @staticmethod
    def _overflowing_route(load: float):
        topology = make_topology("mesh", 4)
        constraints = Constraints(link_capacity_mb_s=100.0)
        eid = capacity_table(topology, constraints).net[0]
        ids, edges = edge_index(topology)
        loads = EdgeLoads((ids, edges))
        loads.add_path(list(edges[eid]), load, [eid])
        return topology, constraints, [(list(edges[eid]), load, [eid])], loads

    @pytest.mark.parametrize(
        "key_overflow", [49.0, 50.0 - 1e-3, 50.0 - 1e-8, 50.0 - 1e-12, 50.0, 51.0]
    )
    def test_stops_only_beyond_the_key_overflow(self, key_overflow):
        topology, constraints, routes, loads = self._overflowing_route(150.0)
        watch = RoutingWatch(topology, constraints, (1, 0, key_overflow, 0.0))
        assert watch(routes, loads) == beyond(50.0, key_overflow)

    def test_more_qos_violations_stop_and_fewer_do_not(self):
        topology, constraints, routes, loads = self._overflowing_route(150.0)
        # Every path breaks a negative hop bound: one QoS violation.
        qos = Constraints(link_capacity_mb_s=100.0, max_flow_hops=-1)
        assert RoutingWatch(topology, qos, (1, 0, 1e9, 0.0))(routes, loads)
        assert not RoutingWatch(topology, qos, (1, 2, 0.0, 0.0))(routes, loads)

    def test_feasible_key_stops_at_the_first_overloaded_link(self):
        topology, constraints, routes, loads = self._overflowing_route(100.0)
        watch = RoutingWatch(topology, constraints, (0, 0, 1.0, 0.0))
        assert not watch(routes, loads)
        topology, constraints, routes, loads = self._overflowing_route(100.1)
        watch = RoutingWatch(topology, constraints, (0, 0, 1.0, 0.0))
        assert watch(routes, loads)
