"""The bounded swap search is exact.

``map_onto`` without a collector stops evaluating a swap candidate once
it provably cannot beat its bound (:class:`~repro.core.mapper.SwapBound`);
with a collector it evaluates every candidate in full. Both must return
the same evaluation — same assignment, cost and sort key, and the same
pickled bytes — across the paper's four applications, the ``hops``,
``power``, ``area`` and ``bandwidth`` objectives, MP/SM/SA/DO routing
and the constraint variants that drive each cut-off (link overflow,
core-link capacity, the QoS hop bound, the area ceiling, and a tight
300 MB/s link capacity that keeps most rounds bounded by an infeasible
mapping, where the overflow floor cuts). A fault overlay and a custom
fabric with parallel channels run the same way, and a synthesized
fabric goes through ``execute_job``. Rounds where every
candidate ties its bound check that the ties are dropped before
routing: hop ties on every input, overflow ties in exact arithmetic.

The matrix is a covering selection, not the full product: every app
meets every routing function under the hops objective, and the
floorplanned objectives (an LP per candidate on the reference path)
run on the smaller cases, plus vopd's Clos and butterfly, where no
floor cuts and the search keeps several LPs in flight at once.
"""

from __future__ import annotations

import pickle

import pytest

from repro.apps import load_application
from repro.apps.synthetic import random_core_graph
from repro.core import mapper, memo
from repro.core.constraints import Constraints
from repro.core.evaluate import evaluate_mapping
from repro.core.greedy import initial_greedy_mapping
from repro.core.mapper import map_onto
from repro.engine.jobs import EvaluationJob, execute_job
from repro.faults import FaultedTopology, sample_faults
from repro.routing.library import make_routing
from repro.synthesis.fabric import CandidateSpec, build_candidate
from repro.topology.custom import CustomTopology
from repro.topology.library import make_topology

#: (app, topology, routing, objective, constraint variant).
CASES = [
    # hops: every app under every routing function
    ("vopd", "mesh", "DO", "hops", "default"),
    ("vopd", "torus", "MP", "hops", "flow_hops"),
    ("vopd", "hypercube", "SM", "hops", "core_link"),
    ("vopd", "mesh", "SA", "hops", "default"),
    ("mpeg4", "mesh", "MP", "hops", "default"),
    ("mpeg4", "torus", "SM", "hops", "flow_hops"),
    ("mpeg4", "mesh", "DO", "hops", "core_link"),
    ("mpeg4", "butterfly", "SA", "hops", "default"),
    ("dsp", "butterfly", "MP", "hops", "area"),
    ("dsp", "mesh", "SM", "hops", "area"),
    ("dsp", "torus", "DO", "hops", "flow_hops"),
    ("dsp", "clos", "SA", "hops", "core_link"),
    ("netproc", "hypercube", "MP", "hops", "default"),
    ("netproc", "mesh", "SM", "hops", "core_link"),
    ("netproc", "mesh", "DO", "hops", "flow_hops"),
    ("netproc", "clos", "SA", "hops", "default"),
    # bandwidth: routing-only cost, no hop bound
    ("vopd", "butterfly", "MP", "bandwidth", "default"),
    ("mpeg4", "mesh", "SM", "bandwidth", "core_link"),
    ("dsp", "torus", "SA", "bandwidth", "flow_hops"),
    ("netproc", "clos", "MP", "bandwidth", "default"),
    # power and area: the floorplanner runs inside the swap loop
    ("dsp", "mesh", "MP", "power", "default"),
    ("dsp", "butterfly", "SM", "power", "flow_hops"),
    ("dsp", "hypercube", "DO", "power", "area"),
    ("mpeg4", "torus", "MP", "power", "default"),
    # every vopd candidate on these reaches the LP: several LPs are in
    # flight in the solver process at once
    ("vopd", "clos", "MP", "power", "default"),
    ("vopd", "butterfly", "MP", "power", "default"),
    ("vopd", "mesh", "MP", "area", "area"),
    ("dsp", "hypercube", "SA", "area", "core_link"),
    # tight links: most rounds race an infeasible bound (cut-off 5)
    ("netproc", "mesh", "SM", "hops", "tight"),
    ("netproc", "torus", "SM", "hops", "tight"),
    ("mpeg4", "butterfly", "MP", "hops", "tight"),
    ("vopd", "mesh", "DO", "hops", "tight"),
    ("dsp", "clos", "SA", "hops", "tight"),
    ("vopd", "faulted-mesh", "MP", "hops", "tight"),
    ("dsp", "fat-custom", "SM", "hops", "tight"),
    ("vopd", "torus", "SM", "hops", "tight_flow_hops"),
]


def _topology(name, core_graph):
    """A library topology, a two-fault overlay of one (``faulted-``), or
    a custom fabric of two cores per switch on a ring of alternately
    single and double links (``fat-custom``)."""
    n = core_graph.num_cores
    if name.startswith("faulted-"):
        base = make_topology(name.split("-", 1)[1], n)
        return FaultedTopology(base, sample_faults(base, 2, seed=1))
    if name == "fat-custom":
        switches = (n + 1) // 2
        links = []
        for s in range(switches):
            links += [(s, (s + 1) % switches)] * (1 + s % 2)
        return CustomTopology(
            name="fat-ring",
            slot_switch=[slot // 2 for slot in range(2 * switches)],
            links=links,
        )
    return make_topology(name, n)


def _constraints(variant, core_graph, topology) -> Constraints:
    if variant == "default":
        return Constraints()
    if variant == "core_link":
        return Constraints(core_link_capacity_mb_s=400.0)
    if variant == "flow_hops":
        return Constraints(max_flow_hops=3)
    if variant == "tight":
        return Constraints(link_capacity_mb_s=300.0)
    if variant == "tight_flow_hops":
        return Constraints(link_capacity_mb_s=300.0, max_flow_hops=3)
    # A ceiling just under the greedy mapping's area, so the search
    # starts infeasible and some swaps fit.
    greedy = evaluate_mapping(
        core_graph, topology, initial_greedy_mapping(core_graph, topology),
        make_routing("MP"), Constraints(),
    )
    return Constraints(max_area_mm2=0.99 * greedy.area_mm2)


def _assert_same(pruned, full):
    assert pruned.assignment == full.assignment
    assert pruned.cost == full.cost
    assert pruned.sort_key() == full.sort_key()
    assert pickle.dumps(pruned) == pickle.dumps(full)


@pytest.mark.parametrize(
    "app, topo, code, objective, variant", CASES,
    ids=["-".join(case) for case in CASES],
)
def test_pruned_search_matches_collector_search(
    app, topo, code, objective, variant, monkeypatch
):
    core_graph = load_application(app)
    topology = _topology(topo, core_graph)
    constraints = _constraints(variant, core_graph, topology)
    swaps = []
    original_swap = memo.MemoizedMappingEvaluator.evaluate_swap

    def evaluate_swap(self, *args, **kwargs):
        swaps.append(args[1:3])
        return original_swap(self, *args, **kwargs)

    monkeypatch.setattr(
        memo.MemoizedMappingEvaluator, "evaluate_swap", evaluate_swap
    )
    collected = []
    full = map_onto(
        core_graph, topology, code, objective, constraints,
        collector=collected,
    )
    # Every candidate is collected, revisits included: the greedy seed
    # plus one entry per swap.
    assert len(collected) == 1 + len(swaps)
    pruned = map_onto(core_graph, topology, code, objective, constraints)
    _assert_same(pruned, full)


def test_synthesized_fabric_job_matches_collector_job(vopd_app):
    spec = CandidateSpec(
        strategy="greedy",
        num_switches=4,
        max_cluster_size=3,
        max_switch_degree=4,
        link_capacity_mb_s=500.0,
    )
    fabric = build_candidate(vopd_app, spec)
    results = [
        execute_job(
            EvaluationJob(vopd_app, fabric, "MP", "hops", collect=collect)
        )
        for collect in (True, False)
    ]
    full, pruned = (r.evaluation for r in results)
    assert results[0].collected and not results[1].collected
    _assert_same(pruned, full)


@pytest.mark.parametrize(
    "app, topo, objective, cutoff",
    [
        ("vopd", "mesh", "hops", "hops_cut"),
        ("dsp", "torus", "power", "watch"),
        ("mpeg4", "mesh", "hops", "watch"),
        # On mpeg4's torus, cut-off 5's exact tie rule drops all of
        # cut-off 3's candidates before routing.
        ("mpeg4", "clos", "power", "loses"),
        ("vopd", "mesh", "power", "power_floor"),
        # Every candidate the watch once abandoned here now fails its
        # overflow floor first.
        ("vopd", "butterfly", "power", "overflow_floor"),
    ],
)
def test_each_cutoff_drops_candidates(app, topo, objective, cutoff, monkeypatch):
    """The differential cases above exercise real pruning: each cut-off
    drops candidates on a paper app, and every evaluation started is
    recorded in the visited set."""
    fired = []

    def watch(bound, topology, constraints):
        inner = original_watch(bound, topology, constraints)

        def stop(rc, loads):
            if inner(rc, loads):
                fired.append("watch")
                return True
            return False
        return stop

    def hops_cut(bound, *args):
        if original_hops_cut(bound, *args):
            fired.append("hops_cut")
            return True
        return False

    def overflow_floor(bound, *args):
        if original_overflow_floor(bound, *args):
            fired.append("overflow_floor")
            return True
        return False

    def loses(bound, evaluation):
        if original_loses(bound, evaluation):
            fired.append("loses")
            return True
        return False

    def power_floor(bound, *args):
        if original_power_floor(bound, *args):
            fired.append("power_floor")
            return True
        return False

    original_watch = mapper.SwapBound.watch
    original_hops_cut = mapper.SwapBound.hops_cut
    original_loses = mapper.SwapBound.loses
    original_power_floor = mapper.SwapBound.power_floor
    original_overflow_floor = mapper.SwapBound.overflow_floor
    monkeypatch.setattr(mapper.SwapBound, "watch", watch)
    monkeypatch.setattr(mapper.SwapBound, "hops_cut", hops_cut)
    monkeypatch.setattr(mapper.SwapBound, "loses", loses)
    monkeypatch.setattr(mapper.SwapBound, "power_floor", power_floor)
    monkeypatch.setattr(mapper.SwapBound, "overflow_floor", overflow_floor)
    stores = []
    original_init = memo.MemoizedMappingEvaluator.__init__

    def init(self, *args):
        original_init(self, *args)
        stores.append(self)

    monkeypatch.setattr(memo.MemoizedMappingEvaluator, "__init__", init)

    core_graph = load_application(app)
    topology = make_topology(topo, core_graph.num_cores)
    map_onto(
        core_graph, topology, "MP", objective,
        config=mapper.MapperConfig(max_rounds=2),
    )
    assert cutoff in fired
    (search,) = stores
    assert search.stats.pruned == len(fired)
    assert search.stats.floored == fired.count("overflow_floor")
    # The final evaluation revisits the winner's assignment unless the
    # floorplanner already ran in the loop.
    finals = 0 if objective == "power" else 1
    assert search.stats.misses == len(search._visited) + finals


#: (app, topology, routing, the ties dropped before routing): rounds
#: where every candidate ties the bound, on the paper apps' whole-MB/s
#: bandwidths (exact arithmetic), and on fractional synthetic apps,
#: whose hop ties drop by replay while their overflow floors stay
#: inexact.
TIE_CASES = [
    ("netproc", "clos", "MP", "overflow"),
    ("netproc", "clos", "SM", "overflow"),
    ("netproc", "butterfly", "SM", "overflow"),
    ("vopd", "clos", "MP", "hops"),
    ("syn12", "clos", "MP", "hops"),
    ("syn16", "butterfly", "MP", "hops"),
    ("syn16", "clos", "SM", "hops"),
]

#: The fractional apps: ``random_core_graph(cores, seed=1, **kwargs)``.
SYNTHETIC = {"syn12": (12, {}), "syn16": (16, {"bandwidth_range": (10, 100)})}


@pytest.mark.parametrize(
    "app, topo, code, ties", TIE_CASES,
    ids=["-".join(case[:3]) for case in TIE_CASES],
)
def test_exact_ties_are_dropped_before_routing(
    app, topo, code, ties, monkeypatch
):
    """A candidate proven to tie the bound cannot strictly beat it, so
    the search drops it before routing: a replayed ``avg_hops`` equal to
    a feasible key's cost (cut-off 1, on any input under MP and SM), or
    an exact overflow floor equal to an infeasible key's whose
    max-link-load floor reaches the key's (cut-off 5, on grid-valued
    inputs only)."""
    counts = {"hops": 0, "overflow": 0}
    exact = set()

    def hops_cut(bound, floor):
        drop = original_hops_cut(bound, floor)
        lower = bound.objective.lower_bound(floor)
        if drop and bound.key[0] == 0 and lower is not None:
            counts["hops"] += abs(lower - bound.key[2]) < 1e-9
        return drop

    def overflow_floor(bound, floor):
        drop = original_overflow_floor(bound, floor)
        totals = floor._base_totals()
        exact.add(totals is not None and totals.exact)
        counts["overflow"] += (
            drop and bound.key[0] == 1 and floor.floors()[1] == bound.key[2]
        )
        return drop

    original_hops_cut = mapper.SwapBound.hops_cut
    original_overflow_floor = mapper.SwapBound.overflow_floor
    monkeypatch.setattr(mapper.SwapBound, "hops_cut", hops_cut)
    monkeypatch.setattr(mapper.SwapBound, "overflow_floor", overflow_floor)
    if app in SYNTHETIC:
        cores, kwargs = SYNTHETIC[app]
        core_graph = random_core_graph(cores, seed=1, **kwargs)
    else:
        core_graph = load_application(app)
    topology = make_topology(topo, core_graph.num_cores)
    full = map_onto(core_graph, topology, code, "hops", collector=[])
    pruned = map_onto(core_graph, topology, code, "hops")
    _assert_same(pruned, full)
    assert counts[ties]
    if app in SYNTHETIC:
        assert True not in exact
    elif ties == "overflow":
        assert True in exact


def test_overflow_floor_drops_netproc_candidates_before_routing(monkeypatch):
    """Netproc under SM on its mesh races infeasible bounds for most of
    its rounds; the overflow floor must drop candidates there before a
    single commodity is routed."""
    stores = []
    original_init = memo.MemoizedMappingEvaluator.__init__

    def init(self, *args):
        original_init(self, *args)
        stores.append(self)

    monkeypatch.setattr(memo.MemoizedMappingEvaluator, "__init__", init)
    core_graph = load_application("netproc")
    topology = make_topology("mesh", core_graph.num_cores)
    assert topology.name == "mesh-4x4"
    map_onto(core_graph, topology, "SM", "hops")
    (search,) = stores
    assert 0 < search.stats.floored <= search.stats.pruned
