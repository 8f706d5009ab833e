"""Property: ``hop_distance`` bounds every routed path from below.

The bounded swap search (:mod:`repro.core.mapper`) drops a hops-objective
candidate before routing when the bandwidth-weighted hop distance of its
mapped slots already loses. That is exact only if no routing function
ever routes a commodity across fewer switches than
:meth:`~repro.topology.base.Topology.hop_distance`. This checks it for
MP, SM, SA and DO (where defined) on every library topology,
synthesized fabrics and fault overlays — for MP and SM, which route over
minimum paths only, the hop distance is met exactly — together with the
path shape the hop counts rely on (terminal, switches only, terminal)
and the edge ids each routed commodity carries.
"""

from __future__ import annotations

import math
import pickle
from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import random_core_graph
from repro.core.greedy import initial_greedy_mapping
from repro.errors import UnsupportedRoutingError
from repro.faults import FaultedTopology, sample_faults
from repro.routing.library import ROUTING_CODES, make_routing
from repro.routing.loads import edge_index
from repro.synthesis.fabric import CandidateSpec, build_candidate
from repro.topology.base import is_switch
from repro.topology.library import (
    EXTENSION_NAMES,
    STANDARD_NAMES,
    make_topology,
)

FABRICS = (
    *STANDARD_NAMES,
    *EXTENSION_NAMES,
    "synth-greedy",
    "synth-bisect-ft1",
    "faulted-mesh",
    "faulted-torus",
    "faulted-hypercube",
)

#: Routings that only use minimum-hop paths: their every routed path
#: crosses exactly ``hop_distance`` switches, not just at least that many.
SHORTEST_PATH_CODES = ("MP", "SM")

SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@lru_cache(maxsize=None)
def fabric(name: str, n_cores: int, seed: int):
    app = random_core_graph(n_cores, seed=seed)
    if name.startswith("synth-"):
        strategy = name.split("-")[1]
        return app, build_candidate(app, CandidateSpec(
            strategy=strategy,
            num_switches=math.ceil(n_cores / 2),
            max_cluster_size=2,
            max_switch_degree=4,
            link_capacity_mb_s=500.0,
            fault_tolerance=1 if name.endswith("ft1") else 0,
        ))
    if name.startswith("faulted-"):
        base = make_topology(name.split("-", 1)[1], n_cores)
        return app, FaultedTopology(base, sample_faults(base, 2, seed=seed))
    return app, make_topology(name, n_cores)


@SLOW
@given(
    st.sampled_from(FABRICS),
    st.integers(5, 8),       # cores (an octagon hosts 8)
    st.integers(0, 3),       # app / fault seed
)
def test_hop_distance_bounds_every_routed_path(name, n_cores, seed):
    app, topology = fabric(name, n_cores, seed)
    assignment = initial_greedy_mapping(app, topology)
    ids = edge_index(topology)[0]
    for code in ROUTING_CODES:
        try:
            result = make_routing(code).route_all(
                topology, assignment, app.commodities()
            )
        except UnsupportedRoutingError:
            assert code == "DO"  # DO is undefined on some fabrics
            continue
        for rc in result.routed:
            floor = topology.hop_distance(rc.src_slot, rc.dst_slot)
            assert len(rc.edge_ids) == len(rc.paths)
            for (path, _), eids in zip(rc.paths, rc.edge_ids):
                assert not is_switch(path[0]) and not is_switch(path[-1])
                assert all(is_switch(node) for node in path[1:-1])
                assert eids == [ids[edge] for edge in zip(path, path[1:])]
                if code in SHORTEST_PATH_CODES:
                    assert len(path) - 2 == floor, (code, path)
                else:
                    assert floor <= len(path) - 2, (code, path)


def test_edge_ids_take_no_part_in_equality_or_repr():
    app, topology = fabric("mesh", 6, 0)
    assignment = initial_greedy_mapping(app, topology)
    for code in ROUTING_CODES:
        result = make_routing(code).route_all(
            topology, assignment, app.commodities()
        )
        for rc in result.routed:
            assert rc.edge_ids is not None
            clone = pickle.loads(pickle.dumps(rc))
            assert clone.edge_ids is None
            assert clone == rc
            assert repr(clone) == repr(rc)
