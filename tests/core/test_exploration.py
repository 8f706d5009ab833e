"""Design-space exploration (Section 6.3)."""

from repro.core.exploration import (
    ParetoPoint,
    area_power_exploration,
    minimum_bandwidth_per_routing,
    pareto_front,
)
from repro.core.mapper import MapperConfig
from repro.topology.library import make_topology

FAST = MapperConfig(max_rounds=1)


def pt(area: float, power: float) -> ParetoPoint:
    return ParetoPoint(
        area_mm2=area, power_mw=power, avg_hops=2.0, assignment=()
    )


class TestParetoFront:
    def test_single_point(self):
        front = pareto_front([pt(1.0, 1.0)])
        assert len(front) == 1

    def test_dominated_points_removed(self):
        points = [pt(1.0, 5.0), pt(2.0, 6.0), pt(3.0, 1.0)]
        front = pareto_front(points)
        assert [(p.area_mm2, p.power_mw) for p in front] == [
            (1.0, 5.0), (3.0, 1.0),
        ]

    def test_front_is_sorted_and_strictly_improving(self):
        points = [pt(float(a), float(10 - a)) for a in range(1, 10)]
        points += [pt(5.0, 9.0), pt(2.0, 9.5)]
        front = pareto_front(points)
        areas = [p.area_mm2 for p in front]
        powers = [p.power_mw for p in front]
        assert areas == sorted(areas)
        assert powers == sorted(powers, reverse=True)

    def test_dominates(self):
        assert pt(1.0, 1.0).dominates(pt(2.0, 2.0))
        assert not pt(1.0, 3.0).dominates(pt(2.0, 2.0))
        assert not pt(1.0, 1.0).dominates(pt(1.0, 1.0))

    def test_dominates_tie_on_one_axis(self):
        # Equal area, strictly better power: dominates (and not vice versa).
        assert pt(1.0, 1.0).dominates(pt(1.0, 2.0))
        assert not pt(1.0, 2.0).dominates(pt(1.0, 1.0))
        # Equal power, strictly better area: dominates.
        assert pt(1.0, 2.0).dominates(pt(3.0, 2.0))
        assert not pt(3.0, 2.0).dominates(pt(1.0, 2.0))

    def test_dominates_is_antisymmetric_on_equal_points(self):
        a, b = pt(2.5, 4.0), pt(2.5, 4.0)
        assert not a.dominates(b)
        assert not b.dominates(a)

    def test_front_keeps_exactly_one_of_equal_points(self):
        front = pareto_front([pt(1.0, 1.0), pt(1.0, 1.0), pt(1.0, 1.0)])
        assert [(p.area_mm2, p.power_mw) for p in front] == [(1.0, 1.0)]

    def test_front_with_tie_on_area_axis(self):
        # Same area, different power: only the lower-power one survives.
        front = pareto_front([pt(1.0, 5.0), pt(1.0, 4.0), pt(1.0, 6.0)])
        assert [(p.area_mm2, p.power_mw) for p in front] == [(1.0, 4.0)]

    def test_front_with_tie_on_power_axis(self):
        # Same power, different area: only the smaller-area one survives.
        front = pareto_front([pt(3.0, 2.0), pt(1.0, 2.0), pt(2.0, 2.0)])
        assert [(p.area_mm2, p.power_mw) for p in front] == [(1.0, 2.0)]

    def test_empty_front(self):
        assert pareto_front([]) == []

    def test_no_front_point_dominated(self):
        points = [pt(float(i % 7 + 1), float((i * 3) % 11 + 1))
                  for i in range(30)]
        front = pareto_front(points)
        for f in front:
            assert not any(p.dominates(f) for p in points)


class TestBandwidthSweep:
    def test_sweep_ordering(self, tiny_app):
        topo = make_topology("mesh", 4)
        sweep = minimum_bandwidth_per_routing(tiny_app, topo, config=FAST)
        assert set(sweep) == {"DO", "MP", "SM", "SA"}
        assert sweep["DO"] >= sweep["MP"] - 1e-6
        assert sweep["MP"] >= sweep["SM"] - 1e-6
        assert sweep["SM"] >= sweep["SA"] - 1e-6

    def test_unsupported_marked_none(self, tiny_app):
        topo = make_topology("clos", 4)
        sweep = minimum_bandwidth_per_routing(
            tiny_app, topo, codes=("DO", "MP"), config=FAST
        )
        assert sweep["DO"] is None
        assert sweep["MP"] is not None


class TestAreaPowerExploration:
    def test_returns_points_and_front(self, tiny_app):
        topo = make_topology("mesh", 4)
        points, front = area_power_exploration(
            tiny_app, topo, routing="MP", config=FAST
        )
        assert points and front
        assert set(front) <= set(points)

    def test_front_members_not_dominated(self, tiny_app):
        topo = make_topology("mesh", 4)
        points, front = area_power_exploration(
            tiny_app, topo, routing="MP", config=FAST
        )
        for f in front:
            assert not any(p.dominates(f) for p in points)
