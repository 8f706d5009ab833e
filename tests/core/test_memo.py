"""Memoized evaluation of slot-swap candidates.

``MemoizedMappingEvaluator.evaluate_swap`` must equal a from-scratch
:func:`~repro.core.evaluate.evaluate_mapping` of the swapped assignment
exactly — same paths, float-equal loads (order and values), hops, power,
cost and feasibility — for every routing function and topology family,
across swap sequences; the memo stays the outer layer; and it is private
to its search, so mapping never touches the engine's cache metrics.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import vopd
from repro.apps.synthetic import random_core_graph
from repro.core.annealing import (
    AnnealingConfig,
    random_search_map,
    simulated_annealing_map,
)
from repro.core.constraints import Constraints
from repro.core.evaluate import evaluate_mapping
from repro.core.greedy import initial_greedy_mapping
from repro.core.mapper import map_onto
from repro.core.memo import MemoizedMappingEvaluator, swap_assignment
from repro.core.objectives import make_objective
from repro.errors import UnsupportedRoutingError
from repro.obs.metrics import get_registry
from repro.physical.estimate import NetworkEstimator
from repro.routing.library import make_routing
from repro.topology.library import make_topology

TOPOLOGIES = ("mesh", "torus", "butterfly", "clos")
ROUTINGS = ("DO", "MP", "SM", "SA")

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_identical(swapped, scratch):
    """Float-exact equality of every metric the evaluation exposes."""
    assert swapped.assignment == scratch.assignment
    assert swapped.avg_hops == scratch.avg_hops
    assert swapped.max_link_load == scratch.max_link_load
    assert swapped.bandwidth_feasible == scratch.bandwidth_feasible
    assert swapped.overflow_mb_s == scratch.overflow_mb_s
    assert swapped.qos_feasible == scratch.qos_feasible
    assert swapped.power_mw == scratch.power_mw
    assert swapped.power == scratch.power
    assert swapped.cost == scratch.cost
    assert swapped.feasible == scratch.feasible
    assert (
        swapped.routing_result.loads.items()
        == scratch.routing_result.loads.items()
    )
    assert (
        swapped.routing_result.loads.total
        == scratch.routing_result.loads.total
    )
    for a, b in zip(
        swapped.routing_result.routed, scratch.routing_result.routed
    ):
        assert a.src_slot == b.src_slot
        assert a.dst_slot == b.dst_slot
        assert a.paths == b.paths
        assert a.hops == b.hops


@SLOW
@given(
    st.integers(4, 8),         # cores
    st.integers(0, 500),       # app seed
    st.sampled_from(TOPOLOGIES),
    st.sampled_from(ROUTINGS),
    st.lists(                  # swap sequence over slots
        st.tuples(st.integers(0, 11), st.integers(0, 11)),
        min_size=1,
        max_size=4,
    ),
)
def test_swap_sequence_matches_from_scratch(
    n_cores, seed, topo_name, code, swaps
):
    app = random_core_graph(n_cores, seed=seed)
    topology = make_topology(topo_name, 12)
    routing = make_routing(code)
    constraints = Constraints()
    estimator = NetworkEstimator()
    objective = make_objective("hops")
    memo = MemoizedMappingEvaluator(
        app, topology, routing, constraints, estimator
    )
    assignment = initial_greedy_mapping(app, topology)
    for s1, s2 in swaps:
        s1 %= topology.num_slots
        s2 %= topology.num_slots
        try:
            swapped = memo.evaluate_swap(
                assignment, s1, s2, with_floorplan=False
            )
        except UnsupportedRoutingError:
            return  # e.g. DO on Clos — the selector reports these combos
        assignment = swap_assignment(assignment, s1, s2)
        scratch = evaluate_mapping(
            app,
            topology,
            assignment,
            routing,
            constraints,
            estimator=estimator,
            with_floorplan=False,
        )
        swapped.cost = objective.cost(swapped)
        scratch.cost = objective.cost(scratch)
        _assert_identical(swapped, scratch)


@SLOW
@given(
    st.integers(4, 7),
    st.integers(0, 500),
    st.sampled_from(TOPOLOGIES),
    st.sampled_from(("MP", "SM")),
    st.integers(0, 11),
    st.integers(0, 11),
)
def test_memo_swap_hit_returns_same_object(
    n_cores, seed, topo_name, code, a, b
):
    """Evaluating the identical swap twice must serve the memoized
    evaluation object — the memo stays the outer layer."""
    app = random_core_graph(n_cores, seed=seed)
    topology = make_topology(topo_name, 12)
    memo = MemoizedMappingEvaluator(
        app, topology, make_routing(code), Constraints(), NetworkEstimator()
    )
    base = initial_greedy_mapping(app, topology)
    s1, s2 = a % topology.num_slots, b % topology.num_slots
    first = memo.evaluate_swap(base, s1, s2, with_floorplan=False)
    again = memo.evaluate_swap(base, s1, s2, with_floorplan=False)
    assert again is first
    assert memo.evaluate(
        swap_assignment(base, s1, s2), with_floorplan=False
    ) is first


def test_swap_assignment_moves_cores_and_keeps_key_order():
    base = {2: 5, 0: 1, 1: 3}
    assert swap_assignment(base, 1, 5) == {2: 1, 0: 5, 1: 3}
    assert list(swap_assignment(base, 1, 5)) == [2, 0, 1]
    assert swap_assignment(base, 3, 7) == {2: 5, 0: 1, 1: 7}  # to a free slot
    assert base == {2: 5, 0: 1, 1: 3}  # the input is not mutated


def _cache_series() -> dict:
    """Every ``repro_cache_*`` family's series in the process registry."""
    return {
        name: family["series"]
        for name, family in get_registry().snapshot().items()
        if name.startswith("repro_cache_")
    }


def test_mapping_searches_leave_the_cache_metrics_untouched():
    app = vopd()
    topology = make_topology("mesh", app.num_cores)
    before = _cache_series()
    swap = map_onto(app, topology)
    annealed = simulated_annealing_map(
        app, topology, config=AnnealingConfig(iterations=60)
    )
    sampled = random_search_map(app, topology, iterations=40)
    assert _cache_series() == before
    for evaluation in (swap, annealed, sampled):
        assert evaluation.assignment  # each search really ran


def test_memo_stats_count_each_lookup_once():
    app = random_core_graph(5, seed=3)
    topology = make_topology("mesh", 6)
    memo = MemoizedMappingEvaluator(
        app, topology, make_routing("MP"), Constraints(), NetworkEstimator()
    )
    base = initial_greedy_mapping(app, topology)
    memo.evaluate(base, with_floorplan=False)
    memo.evaluate(base, with_floorplan=False)
    memo.evaluate(base, with_floorplan=True)  # the flag is part of the key
    memo.evaluate_swap(base, 0, 1, with_floorplan=False)
    memo.evaluate_swap(base, 0, 1, with_floorplan=False)
    assert (memo.stats.hits, memo.stats.misses) == (2, 3)
