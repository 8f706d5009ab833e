"""Evaluation of slot-swap candidates and the search's visited set.

``MemoizedMappingEvaluator.evaluate_swap``, finished by
``MemoizedMappingEvaluator.finish``, must equal a from-scratch
:func:`~repro.core.evaluate.evaluate_mapping` of the swapped assignment
exactly — same paths, float-equal loads (order and values), hops, power,
cost and feasibility — for every routing function and topology family,
across swap sequences. A bounded revisit is skipped without routing, an
unbounded one is evaluated again; and the evaluator is private to its
search, so mapping never touches the engine's cache metrics. Each base
assignment is validated once, and each candidate's two slots are
range-checked, so an invalid base or slot still raises.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import vopd
from repro.apps.synthetic import random_core_graph
from repro.core import memo as memo_module
from repro.core.constraints import Constraints
from repro.core.evaluate import evaluate_mapping, start_evaluation
from repro.core.greedy import initial_greedy_mapping
from repro.core.mapper import SwapBound, map_onto
from repro.core.memo import MemoizedMappingEvaluator, swap_assignment
from repro.core.objectives import make_objective
from repro.errors import MappingInfeasibleError, UnsupportedRoutingError
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
            swapped = memo.finish(memo.evaluate_swap(
                assignment, s1, s2, with_floorplan=False
            ))
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


def _counting_start_evaluation(monkeypatch) -> list:
    """Count the memo module's calls of ``start_evaluation``, plus the
    candidates a bound's cut-off 1 or 5 drops before routing (the memo
    asks those itself and never hands the candidate on)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return start_evaluation(*args, **kwargs)

    def counting(cutoff):
        def cut(bound, floor):
            drop = cutoff(bound, floor)
            if drop:
                calls.append(None)
            return drop
        return cut

    monkeypatch.setattr(memo_module, "start_evaluation", counted)
    for name in ("hops_cut", "overflow_floor"):
        monkeypatch.setattr(SwapBound, name, counting(getattr(SwapBound, name)))
    return calls


@SLOW
@given(
    st.integers(4, 7),
    st.integers(0, 500),
    st.sampled_from(TOPOLOGIES),
    st.sampled_from(("MP", "SM")),
    st.integers(0, 11),
    st.integers(0, 11),
)
def test_memo_bounded_revisit_is_skipped_unbounded_is_evaluated(
    n_cores, seed, topo_name, code, a, b
):
    """A visited assignment cannot beat a bound: under one it comes back
    as ``None`` without routing. Without a bound it is evaluated again,
    value-equal to the first evaluation."""
    app = random_core_graph(n_cores, seed=seed)
    topology = make_topology(topo_name, 12)
    memo = MemoizedMappingEvaluator(
        app, topology, make_routing(code), Constraints(), NetworkEstimator()
    )
    base = initial_greedy_mapping(app, topology)
    objective = make_objective("hops")
    s1, s2 = a % topology.num_slots, b % topology.num_slots
    first = memo.finish(memo.evaluate_swap(base, s1, s2, with_floorplan=False))
    again = memo.finish(memo.evaluate_swap(base, s1, s2, with_floorplan=False))
    assert again is not first
    first.cost = objective.cost(first)
    again.cost = objective.cost(again)
    _assert_identical(again, first)
    assert (memo.stats.hits, memo.stats.misses) == (0, 2)

    calls = []
    original = memo_module.start_evaluation
    memo_module.start_evaluation = lambda *args, **kw: calls.append(args)
    try:
        bound = SwapBound(first.sort_key(), objective)
        assert memo.evaluate_swap(
            base, s1, s2, with_floorplan=False, bound=bound
        ) is None
    finally:
        memo_module.start_evaluation = original
    assert calls == []
    assert (memo.stats.hits, memo.stats.misses) == (1, 2)


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
    assert _cache_series() == before
    assert swap.assignment  # the search really ran


def test_memo_stats_count_each_lookup_once(monkeypatch):
    calls = _counting_start_evaluation(monkeypatch)
    app = random_core_graph(5, seed=3)
    topology = make_topology("mesh", 6)
    memo = MemoizedMappingEvaluator(
        app, topology, make_routing("MP"), Constraints(), NetworkEstimator()
    )
    base = initial_greedy_mapping(app, topology)
    first = memo.evaluate(base, with_floorplan=False)
    memo.evaluate(base, with_floorplan=False)  # evaluate never skips
    bound = SwapBound(first.sort_key(), make_objective("hops"))
    memo.evaluate_swap(base, 0, 1, with_floorplan=False, bound=bound)
    assert memo.evaluate_swap(
        base, 0, 1, with_floorplan=False, bound=bound
    ) is None
    assert (memo.stats.hits, memo.stats.misses) == (1, 3)
    assert len(calls) == memo.stats.misses


def test_floorplan_in_loop_search_evaluates_once_per_miss(monkeypatch):
    """With the floorplanner in the swap loop the winner is returned as
    evaluated: no final re-evaluation beyond the search's misses."""
    calls = _counting_start_evaluation(monkeypatch)
    searches = []
    original_init = MemoizedMappingEvaluator.__init__

    def init(self, *args):
        original_init(self, *args)
        searches.append(self)

    swaps = []
    original_swap = MemoizedMappingEvaluator.evaluate_swap

    def evaluate_swap(self, *args, **kwargs):
        swaps.append(args[1:3])
        return original_swap(self, *args, **kwargs)

    monkeypatch.setattr(MemoizedMappingEvaluator, "__init__", init)
    monkeypatch.setattr(MemoizedMappingEvaluator, "evaluate_swap", evaluate_swap)
    app = random_core_graph(5, seed=3)
    best = map_onto(app, make_topology("mesh", 6), objective="power")
    (search,) = searches
    assert best.floorplan is not None
    assert len(calls) == search.stats.misses
    # The greedy seed plus every swap not skipped as a visited revisit.
    assert search.stats.misses == 1 + len(swaps) - search.stats.hits


def _swap_memo():
    app = random_core_graph(5, seed=3)
    topology = make_topology("mesh", 6)
    memo = MemoizedMappingEvaluator(
        app, topology, make_routing("MP"), Constraints(), NetworkEstimator()
    )
    return memo, initial_greedy_mapping(app, topology)


@pytest.mark.parametrize(
    "damage",
    ["duplicate slot", "missing core", "extra core", "slot out of range"],
)
def test_evaluate_swap_rejects_an_invalid_base(damage):
    """The base is validated once per dict, but an invalid one still
    raises on every swap, bounded or not, as the per-candidate check did."""
    memo, base = _swap_memo()
    bad = dict(base)
    if damage == "duplicate slot":
        bad[1] = bad[0]
    elif damage == "missing core":
        del bad[4]
    elif damage == "extra core":
        bad[5] = 5
    else:
        bad[2] = 6
    bound = SwapBound((1, 99, 1e9, 1e9), make_objective("hops"))
    for s1, s2 in ((0, 1), (0, 1), (2, 5)):
        with pytest.raises(MappingInfeasibleError):
            memo.evaluate_swap(bad, s1, s2, with_floorplan=False)
        with pytest.raises(MappingInfeasibleError):
            memo.evaluate_swap(bad, s1, s2, with_floorplan=False, bound=bound)
    assert memo.stats.misses == 0
    # A valid base after an invalid one is validated and evaluated.
    assert memo.evaluate_swap(base, 0, 1, with_floorplan=False) is not None


@pytest.mark.parametrize("s1, s2", [(0, 6), (6, 0), (5, 17), (-1, 2)])
def test_evaluate_swap_rejects_an_out_of_range_slot(s1, s2):
    memo, base = _swap_memo()
    memo.evaluate_swap(base, 0, 1, with_floorplan=False)  # base checked
    with pytest.raises(MappingInfeasibleError, match="out of range"):
        memo.evaluate_swap(base, s1, s2, with_floorplan=False)
    assert memo.stats.misses == 1


def test_evaluate_swap_checks_each_base_once(monkeypatch):
    """One validation per base dict, and each swap's result is what a
    from-scratch (fully validated) evaluation gives."""
    checked = []
    original = memo_module.validate_assignment

    def validate(core_graph, topology, assignment):
        checked.append(assignment)
        original(core_graph, topology, assignment)

    monkeypatch.setattr(memo_module, "validate_assignment", validate)
    memo, base = _swap_memo()
    other = swap_assignment(base, 0, 1)
    for b in (base, base, other, other, base):
        for s1, s2 in ((0, 1), (1, 4), (2, 5)):
            swapped = memo.finish(
                memo.evaluate_swap(b, s1, s2, with_floorplan=False)
            )
            scratch = evaluate_mapping(
                memo.core_graph, memo.topology,
                swap_assignment(b, s1, s2), memo.routing, memo.constraints,
                estimator=memo.estimator, with_floorplan=False,
            )
            _assert_identical(swapped, scratch)
    assert [id(b) for b in checked] == [id(base), id(other), id(base)]
