"""Property-based tests (hypothesis) for topology-synthesis invariants.

On random applications, for every partition strategy and a sweep of
concentration/degree bounds:

* every core lands in exactly one cluster, no cluster oversized;
* the synthesized fabric is connected, has one terminal slot per core,
  and respects the configured network-degree bound per switch
  (parallel channels each count);
* the fabric survives a full ``evaluate_mapping`` — routing,
  feasibility checks, floorplan, power — like any library topology;
* fat links carry explicit multiplicities and are honestly reflected in
  switch port counts.
"""

from __future__ import annotations

import math

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from nx_oracle import to_networkx

from repro.apps.synthetic import random_core_graph
from repro.core.constraints import Constraints
from repro.core.evaluate import evaluate_mapping
from repro.routing.library import make_routing
from repro.synthesis import (
    PARTITION_STRATEGIES,
    CandidateSpec,
    build_candidate,
    intended_assignment,
    make_partition,
)

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

app_params = st.tuples(
    st.integers(4, 12),    # cores
    st.integers(0, 1000),  # seed
)

strategy_st = st.sampled_from(sorted(PARTITION_STRATEGIES))


def _spec(strategy, n_cores, concentration, degree) -> CandidateSpec:
    return CandidateSpec(
        strategy=strategy,
        num_switches=max(1, math.ceil(n_cores / concentration)),
        max_cluster_size=concentration,
        max_switch_degree=degree,
        link_capacity_mb_s=500.0,
    )


@given(app_params, strategy_st, st.integers(2, 4))
@SLOW
def test_partition_covers_every_core_once(params, strategy, concentration):
    n_cores, seed = params
    app = random_core_graph(n_cores, seed=seed)
    clusters = make_partition(
        strategy,
        app,
        max(1, math.ceil(n_cores / concentration)),
        concentration,
    )
    flat = sorted(c for cluster in clusters for c in cluster)
    assert flat == list(range(n_cores))
    assert all(len(cluster) <= concentration for cluster in clusters)


@given(app_params, strategy_st, st.integers(2, 4), st.integers(2, 8))
@SLOW
def test_fabric_structure_invariants(params, strategy, concentration, degree):
    n_cores, seed = params
    app = random_core_graph(n_cores, seed=seed)
    spec = _spec(strategy, n_cores, concentration, degree)
    topo = build_candidate(app, spec)

    # One terminal slot per core.
    assert topo.num_slots == n_cores
    # Connected: every terminal reaches every other terminal.
    assert nx.is_strongly_connected(to_networkx(topo.graph))
    # Network degree per switch (channels, multiplicity counted) within
    # the configured bound; switch_ports reflects channels + core slots.
    mults = topo.link_multiplicity()
    concentration_map = topo.concentration()
    for sw in topo.switches:
        sid = sw[1]
        channels = sum(
            m for (a, b), m in mults.items() if sid in (a, b)
        )
        assert channels <= spec.max_switch_degree
        n_in, n_out = topo.switch_ports(sw)
        expected = channels + concentration_map.get(sid, 0)
        assert n_in == expected
        assert n_out == expected


@given(app_params, strategy_st)
@SLOW
def test_fabric_survives_full_evaluation(params, strategy):
    n_cores, seed = params
    app = random_core_graph(n_cores, seed=seed)
    spec = _spec(strategy, n_cores, concentration=3, degree=6)
    topo = build_candidate(app, spec)
    clusters = make_partition(
        strategy, app, spec.num_switches, spec.max_cluster_size,
        bw_budget=spec.max_switch_degree * spec.link_capacity_mb_s,
    )
    evaluation = evaluate_mapping(
        app,
        topo,
        intended_assignment(clusters),
        make_routing("MP"),
        Constraints(),
    )
    assert evaluation.avg_hops >= 1.0
    assert evaluation.power_mw is not None and evaluation.power_mw > 0
    assert evaluation.routing_result.loads.total > 0


@given(app_params, strategy_st, st.integers(2, 4), st.integers(2, 8))
@SLOW
def test_build_is_deterministic(params, strategy, concentration, degree):
    n_cores, seed = params
    app = random_core_graph(n_cores, seed=seed)
    spec = _spec(strategy, n_cores, concentration, degree)
    a = build_candidate(app, spec)
    b = build_candidate(app, spec)
    assert a.slot_switch == b.slot_switch
    assert a.link_multiplicity() == b.link_multiplicity()
    assert a.switch_positions() == b.switch_positions()
