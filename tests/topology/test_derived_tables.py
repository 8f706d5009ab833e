"""Tables derived from a topology never travel in a pickle.

Every table computed from a topology's graph — hop distances, quadrant
masks, interned search graphs, DO routes, capacity and swap-floor
tables, LP solutions, power and area tables, simulator layouts, fault
degradations, the content fingerprint — lives in
:meth:`~repro.topology.base.Topology.derived`, and pickling (engine jobs
shipped to workers, persistent store entries) drops them all. This
module fills every table on a one-fault mesh, pickles it, checks that
the copy carries nothing derived, and checks that the copy rebuilds the
same evaluations, floorplan, simulation reports and fingerprint, floats
compared as ``float.hex``.
"""

from __future__ import annotations

import pickle
from dataclasses import asdict

import pytest

from repro.apps import load_application
from repro.core.mapper import MapperConfig, map_onto
from repro.engine.fingerprint import topology_fingerprint
from repro.faults import FaultedTopology, sample_faults
from repro.floorplan.lp import floorplan_mapping
from repro.routing.loads import edge_index
from repro.simulation.campaign import CampaignConfig, run_campaign
from repro.topology.library import make_topology

#: Every table name a flow, a floorplan and both simulator lanes fill.
TABLES = {
    "structure", "switch_ports", "switch_of", "hops", "quadrants",
    "search", "dor", "capacity", "floor", "lp", "physical", "sim_layout",
    "batch_layout", "fingerprint",
}


def _bits(value):
    """``value`` with every float a ``float.hex`` string."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {repr(k): _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


def _faulted_mesh() -> FaultedTopology:
    base = make_topology("mesh", 12)
    return FaultedTopology(base, sample_faults(base, 1, seed=1))


def _run_everything(topology) -> dict:
    """Hops and power flows under MP, SM and DO, a floorplan, an exact
    and a batch campaign point and the fingerprint, as bits."""
    app = load_application("vopd")
    out = {}
    for routing in ("MP", "SM", "DO"):
        for objective in ("hops", "power"):
            ev = map_onto(app, topology, routing, objective,
                          config=MapperConfig(max_rounds=1))
            out[routing, objective] = _bits({
                "assignment": sorted(ev.assignment.items()),
                "avg_hops": ev.avg_hops,
                "max_link_load": ev.max_link_load,
                "overflow": ev.overflow_mb_s,
                "area": ev.area_mm2,
                "power": asdict(ev.power),
                "cost": ev.cost,
                "resources": asdict(ev.resources),
                "loads": list(ev.routing_result.loads.items()),
            })
    identity = {i: i for i in range(app.num_cores)}
    plan = floorplan_mapping(topology, identity, app)
    out["floorplan"] = _bits([
        plan.width_mm, plan.height_mm,
        [(key, r.x, r.y, r.w, r.h) for key, r in plan.rects.items()],
    ])
    for lane in ("exact", "batch"):
        result = run_campaign(
            topology, core_graph=app, assignment=identity,
            config=CampaignConfig(
                rates=(0.1,), patterns=("uniform",), warmup=50,
                measure=200, drain=100, sim_engine=lane,
            ),
        )
        out[lane] = _bits([asdict(p.report) for p in result.points])
    out["fingerprint"] = topology_fingerprint(topology)
    return out


@pytest.fixture(scope="module")
def filled():
    topology = _faulted_mesh()
    return topology, _run_everything(topology)


def test_the_flows_fill_every_table(filled):
    topology, _ = filled
    assert set(topology._derived) == TABLES
    assert all(topology._derived.values())


def test_pickled_topology_carries_no_derived_state(filled):
    topology, expected = filled
    assert topology.graph._index is not None
    copy = pickle.loads(pickle.dumps(topology))
    pristine = _faulted_mesh()
    pristine.graph  # the graph is content: it travels
    for made, fresh in ((copy, pristine), (copy.base, pristine.base)):
        assert made._derived == {}
        assert vars(made).keys() == vars(fresh).keys()
        for name, value in vars(fresh).items():
            if name == "_graph":
                assert list(made.graph.edges(data=True)) == list(
                    value.edges(data=True)
                )
            elif name not in ("base", "_derived"):
                assert vars(made)[name] == value, name
    # The graph's native edge ids are renumbered, not pickled.
    assert copy.graph._index is None
    assert edge_index(copy) == edge_index(topology)
    assert _run_everything(copy) == expected
