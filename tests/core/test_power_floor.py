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

import math

import pytest

from repro.apps import load_application
from repro.core.evaluate import nominal_pitch_mm
from repro.core.mapper import MapperConfig, map_onto
from repro.core.objectives import (
    AreaObjective,
    PowerObjective,
    WeightedObjective,
)
from repro.floorplan.lp import MIN_LINK_MM, link_length_floors
from repro.floorplan.positions import core_block, switch_areas
from repro.physical.estimate import NetworkEstimator
from repro.topology.base import term
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


def _floors_from_blocks(topology, assignment, core_graph, used, tech):
    """The link-length floors with each core sized by its floorplan
    ``Block`` (``width_min``, ``height_min``)."""
    areas = switch_areas(topology, tech)
    sizes = {sw: (math.sqrt(areas[sw]),) * 2 for sw in used}
    for core, slot in assignment.items():
        block = core_block(core_graph, core)
        sizes[term(slot)] = (block.width_min, block.height_min)
    floors = {}
    for u, v in topology.graph.edges():
        if u in sizes and v in sizes:
            (wu, hu), (wv, hv) = sizes[u], sizes[v]
            gap = min((wu + wv) / 2.0, (hu + hv) / 2.0)
            floors[(u, v)] = max(gap, MIN_LINK_MM)
    return floors


def test_floors_keep_their_bits_on_every_candidate(vopd_app):
    topology = make_topology("mesh", vopd_app.num_cores)
    estimator = NetworkEstimator()
    collected = []
    map_onto(
        vopd_app, topology, "MP", "power", estimator=estimator,
        collector=collected,
    )
    assert len(collected) > 100
    for ev in collected:
        used = estimator.used_switches(topology, ev.routing_result)
        floors = link_length_floors(
            topology, ev.assignment, vopd_app, used, estimator.tech
        )
        expected = _floors_from_blocks(
            topology, ev.assignment, vopd_app, used, estimator.tech
        )
        assert {k: v.hex() for k, v in floors.items()} == {
            k: v.hex() for k, v in expected.items()
        }
