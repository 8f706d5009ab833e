"""Cut-off 4 of the bounded swap search is sound.

:meth:`~repro.core.objectives.PowerObjective.lower_bound_routed` prices
a routed mapping with every placed link at its length floor
(:func:`~repro.floorplan.lp.link_length_floors`). For it to prune
exactly, no floorplan may come out below it: every floorplanned link is
at least its floor, and so every floorplanned candidate's power is at
least the bound. Collector runs evaluate every swap candidate in full,
so they check the claim on all of them.
"""

from __future__ import annotations

import pytest

from repro.apps import load_application
from repro.core.evaluate import nominal_pitch_mm
from repro.core.mapper import MapperConfig, map_onto
from repro.core.objectives import (
    AreaObjective,
    PowerObjective,
    WeightedObjective,
)
from repro.floorplan.lp import link_length_floors
from repro.physical.estimate import NetworkEstimator
from repro.topology.library import make_topology


@pytest.mark.parametrize("code", ["MP", "SM"])
@pytest.mark.parametrize(
    "topo", ["mesh", "torus", "hypercube", "butterfly", "clos"]
)
@pytest.mark.parametrize("app", ["vopd", "dsp", "mpeg4"])
def test_power_floor_never_exceeds_floorplanned_power(app, topo, code):
    core_graph = load_application(app)
    topology = make_topology(topo, core_graph.num_cores)
    estimator = NetworkEstimator()
    objective = PowerObjective()
    pitch = nominal_pitch_mm(core_graph)
    collected = []
    map_onto(
        core_graph, topology, code, objective, estimator=estimator,
        config=MapperConfig(max_rounds=2), collector=collected,
    )
    floorplanned = [ev for ev in collected if ev.floorplan is not None]
    assert floorplanned
    for ev in floorplanned:
        used = estimator.used_switches(topology, ev.routing_result)
        floors = link_length_floors(
            topology, ev.assignment, core_graph, used, estimator.tech
        )
        lengths = ev.floorplan.link_lengths(topology, ev.assignment)
        assert floors.keys() == lengths.keys()
        assert all(floors[edge] <= lengths[edge] for edge in lengths)
        floor = objective.lower_bound_routed(ev, estimator, used, pitch)
        assert floor <= ev.power_mw


def test_only_power_offers_a_routed_bound(vopd_app):
    topology = make_topology("mesh", vopd_app.num_cores)
    collected = []
    map_onto(
        vopd_app, topology, "MP", "power",
        config=MapperConfig(max_rounds=1), collector=collected,
    )
    ev = collected[0]
    estimator = NetworkEstimator()
    used = estimator.used_switches(topology, ev.routing_result)
    pitch = nominal_pitch_mm(vopd_app)
    for objective in (AreaObjective(), WeightedObjective(power=1.0)):
        assert objective.lower_bound_routed(ev, estimator, used, pitch) is None
    floor = PowerObjective().lower_bound_routed(ev, estimator, used, pitch)
    assert 0 < floor <= ev.power_mw
