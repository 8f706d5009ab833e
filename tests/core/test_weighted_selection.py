"""Objective instances (incl. weighted) through the selector."""

from repro.core.mapper import MapperConfig
from repro.core.objectives import WeightedObjective
from repro.core.selector import select_topology

FAST = MapperConfig(max_rounds=1)


class TestWeightedSelection:
    def test_weighted_objective_instance_accepted(self, tiny_app):
        objective = WeightedObjective(
            hops=0.5, power=0.5, hops_ref=3.0, power_ref=300.0
        )
        selection = select_topology(
            tiny_app, routing="MP", objective=objective, config=FAST
        )
        assert selection.objective_name == "weighted"
        assert selection.best is not None
        for ev in selection.feasible.values():
            assert ev.cost > 0

    def test_weighted_cost_ordering_consistent(self, tiny_app):
        objective = WeightedObjective(
            hops=1.0, area=1.0, power=1.0,
            hops_ref=3.0, area_ref=30.0, power_ref=300.0,
        )
        selection = select_topology(
            tiny_app, routing="MP", objective=objective, config=FAST
        )
        best = selection.best
        for ev in selection.feasible.values():
            assert best.cost <= ev.cost + 1e-9

    def test_pure_hops_weighting_matches_hops_objective(self, tiny_app):
        weighted = select_topology(
            tiny_app,
            routing="MP",
            objective=WeightedObjective(hops=1.0, hops_ref=1.0),
            config=FAST,
        )
        plain = select_topology(
            tiny_app, routing="MP", objective="hops", config=FAST
        )
        assert weighted.best_name == plain.best_name
