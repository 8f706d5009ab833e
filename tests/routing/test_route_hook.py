"""The ``route_all`` stop-hook contract.

``route_all`` asks ``stop(routes, loads)`` after each commodity with
that commodity's ``(path, bw, edge ids)`` triples and builds its
:class:`~repro.routing.base.RoutedCommodity` records only once every
commodity is routed. Routing functions may hand back the topology's
interned paths (read-only); a finished result holds its own copies, so
mutating it cannot reach the interned search graphs or a later
evaluation.
"""

from __future__ import annotations

import pickle

import pytest

from repro.apps import mpeg4, vopd
from repro.core.constraints import Constraints
from repro.core.evaluate import evaluate_mapping
from repro.core.greedy import initial_greedy_mapping
from repro.routing import base
from repro.routing.dimension_ordered import dor_route
from repro.routing.library import make_routing
from repro.routing.shortest import topology_search
from repro.topology.library import make_topology

CASES = [
    ("vopd", "mesh", "MP"),
    ("vopd", "torus", "SM"),
    ("mpeg4", "mesh", "SM"),
    ("mpeg4", "butterfly", "SM"),
    ("mpeg4", "torus", "SA"),
    ("vopd", "mesh", "DO"),
]

APPS = {"vopd": vopd, "mpeg4": mpeg4}


def _setup(app_name, topo_name):
    app = APPS[app_name]()
    topology = make_topology(topo_name, app.num_cores)
    return app, topology, initial_greedy_mapping(app, topology)


@pytest.fixture
def constructions(monkeypatch) -> list:
    """Record every ``RoutedCommodity`` that ``route_all`` builds."""
    built = []

    class Counted(base.RoutedCommodity):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["commodity"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(base, "RoutedCommodity", Counted)
    return built


@pytest.mark.parametrize("app_name, topo_name, code", CASES)
def test_abandoned_run_builds_no_routed_commodity(
    app_name, topo_name, code, constructions
):
    app, topology, assignment = _setup(app_name, topo_name)
    commodities = app.commodities()
    asked = []

    def stop(routes, loads):
        asked.append(routes)
        return len(asked) == len(commodities)  # abandon at the last one

    routing = make_routing(code)
    assert routing.route_all(topology, assignment, commodities, stop) is None
    assert len(asked) == len(commodities)
    assert constructions == []

    result = routing.route_all(topology, assignment, commodities)
    assert constructions == list(commodities)
    assert [rc.commodity for rc in result.routed] == list(commodities)


@pytest.mark.parametrize("app_name, topo_name, code", CASES)
def test_hook_sees_each_commodity_routes(app_name, topo_name, code):
    app, topology, assignment = _setup(app_name, topo_name)
    commodities = app.commodities()
    seen = []

    def stop(routes, loads):
        seen.append([(list(p), bw, list(e)) for p, bw, e in routes])
        return False

    result = make_routing(code).route_all(
        topology, assignment, commodities, stop
    )
    assert len(seen) == len(result.routed)
    for routes, rc in zip(seen, result.routed):
        assert [(p, bw) for p, bw, _ in routes] == rc.paths
        assert [e for _, _, e in routes] == rc.edge_ids


@pytest.mark.parametrize("app_name, topo_name, code", CASES)
def test_never_stopping_hook_pickles_like_no_hook(app_name, topo_name, code):
    app, topology, assignment = _setup(app_name, topo_name)
    commodities = app.commodities()
    routing = make_routing(code)
    hooked = routing.route_all(
        topology, assignment, commodities, lambda routes, loads: False
    )
    plain = routing.route_all(topology, assignment, commodities)
    assert pickle.dumps(hooked) == pickle.dumps(plain)


@pytest.mark.parametrize("app_name, topo_name, code", CASES)
def test_mutating_finished_paths_leaves_interned_paths(
    app_name, topo_name, code
):
    app, topology, assignment = _setup(app_name, topo_name)
    routing = make_routing(code)

    def evaluate():
        return evaluate_mapping(
            app, topology, assignment, routing, Constraints(),
            with_floorplan=False,
        )

    def interned_paths():
        if code == "DO":
            return [dor_route(topology, s, d)[0] for s, d in pairs]
        return [topology_search(topology, s, d).unique for s, d in pairs]

    first = evaluate()
    pairs = [(rc.src_slot, rc.dst_slot) for rc in first.routing_result.routed]
    interned = interned_paths()
    before = [None if path is None else list(path) for path in interned]
    expected = [
        [list(path) for path, _ in rc.paths]
        for rc in first.routing_result.routed
    ]
    assert any(path is not None for path in interned)

    for rc in first.routing_result.routed:
        for path, _ in rc.paths:
            path.reverse()
            path.append("junk")

    assert interned_paths() == before
    again = evaluate()
    assert [
        [path for path, _ in rc.paths] for rc in again.routing_result.routed
    ] == expected
