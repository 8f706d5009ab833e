"""QoS per-flow hop bounds (paper future work, realized)."""

from repro.core.constraints import Constraints, qos_feasible
from repro.core.mapper import MapperConfig, map_onto
from repro.core.selector import select_topology
from repro.routing.library import make_routing
from repro.topology.library import make_topology

FAST = MapperConfig(max_rounds=1)


class TestQosCheck:
    def test_unbounded_always_feasible(self, tiny_app):
        topo = make_topology("mesh", 4)
        result = make_routing("MP").route_all(
            topo, {i: i for i in range(4)}, tiny_app.commodities()
        )
        ok, violations = qos_feasible(result, Constraints())
        assert ok and not violations

    def test_tight_bound_reports_violations(self, tiny_app):
        topo = make_topology("mesh", 6)  # 2x3
        # Put communicating pairs at opposite corners.
        assignment = {0: 0, 1: 5, 2: 2, 3: 3}
        result = make_routing("MP").route_all(
            topo, assignment, tiny_app.commodities()
        )
        ok, violations = qos_feasible(
            result, Constraints(max_flow_hops=2)
        )
        assert not ok
        assert violations
        for _src, _dst, hops in violations:
            assert hops > 2

    def test_bound_respected_in_evaluation(self, tiny_app):
        topo = make_topology("mesh", 4)
        ev = map_onto(
            tiny_app, topo, routing="MP", objective="hops",
            constraints=Constraints(max_flow_hops=2), config=FAST,
        )
        # 2x2 mesh: every pair is at most 3 switches; the chain
        # c0->c1->c2->c3->c0 can be placed as a ring -> all 2 hops.
        assert ev.feasible
        assert ev.qos_feasible

    def test_impossible_bound_marks_infeasible(self, tiny_app):
        topo = make_topology("clos", 4)  # every route is 3 switches
        ev = map_onto(
            tiny_app, topo, routing="MP", objective="hops",
            constraints=Constraints(max_flow_hops=2), config=FAST,
        )
        assert not ev.feasible
        assert not ev.qos_feasible
        assert len(ev.qos_violations) == tiny_app.num_flows

    def test_qos_steers_selection(self, tiny_app):
        """With a 2-hop guarantee, the 3-stage Clos drops out of the
        running while 2-hop-capable topologies survive."""
        selection = select_topology(
            tiny_app,
            routing="MP",
            objective="hops",
            constraints=Constraints(max_flow_hops=2),
            config=MapperConfig(max_rounds=4),
        )
        assert selection.best is not None
        feasible = {n.split("-")[0] for n in selection.feasible}
        assert "clos" not in feasible
        assert "butterfly" in feasible  # uniform 2-hop network

    def test_relaxed_preserves_qos_bound(self):
        c = Constraints(max_flow_hops=3).relaxed()
        assert c.max_flow_hops == 3
