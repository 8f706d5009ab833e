"""Exhaustive oracle for the swap search's pre-routing floors.

Every injective mapping of a small random application onto a small
library fabric is routed and measured in full; then, with each mapping
as a round's base, every swap candidate's floors
(:class:`~repro.core.floor.SwapFloor`, updated from the base by swap
delta) are checked against the candidate's measured evaluation:

* the overflow floor never exceeds ``bandwidth_overflow`` and the QoS
  violations floor never exceeds the violations;
* ``HopDelayObjective.lower_bound`` (the hop bound updated by swap
  delta) equals the bandwidth-weighted hop distance of the candidate's
  slots, re-summed, and never exceeds ``avg_hops``;
* under MP and SM, ``avg_hops`` replayed before routing
  (:meth:`~repro.core.floor.SwapFloor.replay_hops`) is the candidate's
  ``avg_hops`` bit for bit, on these fractional bandwidths, and cut-off
  1 drops a cost tie and no key one ulp above the cost;
* cut-off 5 never drops a candidate against a key it strictly beats.

The link capacity leaves most mappings infeasible, so the floors are
tested where they cut. MP and SM use forced paths and switch cuts, SA
the switch cuts alone.

A grid-valued variant of the same graphs (every bandwidth a whole
MB/s) puts the overflow floors in exact arithmetic, where the search
also drops candidates that only tie an infeasible bound. There, for
every mapping and swap:

* the max-link-load floor (:meth:`~repro.core.floor.SwapFloor.peak_reaches`)
  never exceeds ``max_link_load``;
* cut-off 5's tie rule never drops a candidate whose key strictly
  beats the bound, and it fires.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from repro.apps.synthetic import random_core_graph
from repro.core.constraints import Constraints, bandwidth_overflow
from repro.core.coregraph import CoreGraph
from repro.core.evaluate import evaluate_mapping
from repro.core.floor import SwapFloor
from repro.core.mapper import SwapBound
from repro.core.objectives import make_objective
from repro.routing.library import make_routing
from repro.topology.library import make_topology

#: (fabric, app seed, link capacity MB/s, QoS hop bound, routings):
#: six cores on six slots, 720 mappings each.
CASES = [
    ("mesh", 1, 300.0, None, ("MP", "SM", "SA")),
    ("torus", 2, 300.0, 2, ("MP", "SM")),
    ("clos", 3, 250.0, None, ("MP", "SM", "SA")),
]
N_CORES = 6


def all_mappings(n_cores: int, num_slots: int):
    """Every injective core -> slot assignment, as dicts."""
    for slots in permutations(range(num_slots), n_cores):
        yield dict(enumerate(slots))


#: The grid-valued variant: (fabric, routing, terminal link capacity
#: MB/s) on ``CASES``' fabrics. Clos's switch floors are never tight on
#: six cores, so its terminal links are constrained, and a terminal
#: link's load is the peak floor's third part.
GRID_CASES = [("mesh", "MP", None), ("torus", "SM", None), ("clos", "SM", 400.0)]


def _whole_mb_s(app: CoreGraph) -> CoreGraph:
    """``app`` with every bandwidth rounded to a whole MB/s."""
    grid = CoreGraph(f"{app.name}-grid")
    for core in app.cores:
        grid.add_core(core.name, area_mm2=core.area_mm2)
    for (src, dst), value in app.flows().items():
        grid.add_flow(src, dst, float(round(value)))
    return grid


@lru_cache(maxsize=1)  # the mutation test's case is the next test's
def _oracle(
    name, n_cores, seed, capacity, max_hops, code, grid=False,
    core_capacity=None,
):
    """The case's context and every mapping's full evaluation and
    re-summed hop distance, by the slots in core order (with whole-MB/s
    bandwidths if ``grid``)."""
    app = random_core_graph(n_cores, seed=seed)
    if grid:
        app = _whole_mb_s(app)
    topology = make_topology(name, n_cores)
    routing = make_routing(code)
    constraints = Constraints(
        link_capacity_mb_s=capacity, core_link_capacity_mb_s=core_capacity,
        max_flow_hops=max_hops,
    )
    evaluations = {
        tuple(assignment.values()): evaluate_mapping(
            app, topology, assignment, routing, constraints,
            with_floorplan=False,
        )
        for assignment in all_mappings(n_cores, topology.num_slots)
    }
    distances = {
        slots: _hop_distance(app, topology, slots) for slots in evaluations
    }
    return app, topology, routing, constraints, evaluations, distances


def _swaps(assignment: dict, num_slots: int) -> list:
    occupied = sorted(assignment.values())
    free = sorted(set(range(num_slots)) - set(occupied))
    return list(combinations(occupied, 2)) + [
        (s, f) for s in occupied for f in free
    ]


def _hop_distance(app, topology, slots: tuple) -> float:
    """Bandwidth-weighted hop distance of the mapping ``slots``."""
    flows = app.commodities()
    weighted = sum(
        c.value * topology.hop_distance(slots[c.src], slots[c.dst])
        for c in flows
    )
    return weighted / sum(c.value for c in flows)


def _swapped(assignment: dict, s1: int, s2: int) -> tuple:
    def move(slot):
        return s2 if slot == s1 else s1 if slot == s2 else slot
    return tuple(move(slot) for slot in assignment.values())


@pytest.mark.parametrize(
    "name, seed, capacity, max_hops, code",
    [case[:4] + (code,) for case in CASES for code in case[4]],
    ids=[f"{case[0]}-{code}" for case in CASES for code in case[4]],
)
def test_floors_never_exceed_the_measured_mapping(
    name, seed, capacity, max_hops, code
):
    n_cores = N_CORES
    app, topology, routing, constraints, evaluations, distances = _oracle(
        name, n_cores, seed, capacity, max_hops, code
    )
    hops = make_objective("hops")
    overflows = sorted(ev.overflow_mb_s for ev in evaluations.values())
    # Keys across the whole range: feasible, infeasible with no
    # overflow (an area or QoS failure), and overflow quantiles.
    keys = [(0, 0, float("inf"), 0.0), (1, 0, 0.0, 0.0)] + [
        (1, v, overflows[q * (len(overflows) - 1) // 4], 0.0)
        for v in range(2) for q in range(5)
    ]
    raw = {
        slots: bandwidth_overflow(ev.routing_result, topology, constraints)
        for slots, ev in evaluations.items()
    }
    cut = dropped = 0
    for assignment in all_mappings(n_cores, topology.num_slots):
        base = tuple(assignment.values())
        floor = SwapFloor(app, topology, routing, constraints, assignment)
        for s1, s2 in [(0, 0), *_swaps(assignment, topology.num_slots)]:
            slots = base if s1 == s2 else _swapped(assignment, s1, s2)
            ev = evaluations[slots]
            floor.select(s1, s2)
            # The swap-delta hop bound equals the re-summed one.
            lower = hops.lower_bound(floor)
            assert abs(lower - distances[slots]) <= 1e-12 * lower
            assert lower <= ev.avg_hops + 1e-12
            if code == "SA":
                assert floor.replay_hops() is None
            else:
                assert floor.replay_hops() == ev.avg_hops
                if s1 == s2:
                    _check_hop_tie(floor, ev.avg_hops)
            violations, overflow = floor.floors()
            assert violations <= len(ev.qos_violations)
            assert overflow <= raw[slots] + 1e-9
            cut += overflow > 0.0
            # No key the candidate strictly beats is dropped; the rest
            # are asked until one drop shows the floors cut.
            measured = ev.sort_key()
            for key in keys:
                if measured < key:
                    assert not floor.loses(key), (slots, key)
                elif not dropped:
                    dropped = floor.loses(key)
    # The floors are not vacuous: they are positive and they cut.
    assert cut and dropped


def _check_hop_tie(floor, cost):
    """Cut-off 1 drops a candidate whose replayed cost ties the key's,
    and not one whose cost beats the key by one ulp."""
    hops = make_objective("hops")
    assert SwapBound((0, 0, cost, 0.0), hops).hops_cut(floor)
    above = math.nextafter(cost, math.inf)
    assert not SwapBound((0, 0, above, 0.0), hops).hops_cut(floor)


class _TransitFloor(SwapFloor):
    """A wrong peak floor: it counts the forced load entering a switch
    as leaving it too, though that traffic may eject there."""

    def peak_reaches(self, peak: float) -> bool:
        load, demand_out, demand_in = self._loads
        head = self._totals.fabric[3]
        transit = demand_out[:]
        for eid in self.table.net:
            transit[head[eid]] += load[eid]
        self._loads = (load, transit, demand_in)
        try:
            return super().peak_reaches(peak)
        finally:
            self._loads = (load, demand_out, demand_in)


def test_oracle_catches_a_peak_floor_counting_transit_edges():
    with pytest.raises(AssertionError):
        _check_exact_floors("mesh", "MP", None, floor_class=_TransitFloor)


@pytest.mark.parametrize(
    "name, code, core_capacity", GRID_CASES,
    ids=[f"{name}-{code}" for name, code, _ in GRID_CASES],
)
def test_exact_floors_on_grid_valued_bandwidths(name, code, core_capacity):
    _check_exact_floors(name, code, core_capacity)


def _check_exact_floors(name, code, core_capacity, floor_class=SwapFloor):
    _, seed, capacity, max_hops, _ = next(c for c in CASES if c[0] == name)
    app, topology, routing, constraints, evaluations, _ = _oracle(
        name, N_CORES, seed, capacity, max_hops, code, grid=True,
        core_capacity=core_capacity,
    )
    ranked = sorted({ev.sort_key() for ev in evaluations.values()})
    keys = [ranked[q * (len(ranked) - 1) // 4] for q in range(5)]
    reached = 0
    for assignment in all_mappings(N_CORES, topology.num_slots):
        base = tuple(assignment.values())
        floor = floor_class(app, topology, routing, constraints, assignment)
        assert floor._base_totals().exact
        for s1, s2 in [(0, 0), *_swaps(assignment, topology.num_slots)]:
            ev = evaluations[base if s1 == s2 else _swapped(assignment, s1, s2)]
            floor.select(s1, s2)
            # The max-link-load floor is at most the measured peak: with
            # whole-MB/s loads, a floor above it is 2**-16 or more above.
            violations, overflow = floor.floors()
            peak = ev.max_link_load
            assert not floor.peak_reaches(peak + 2**-20)
            if overflow > 0.0:
                # A key the floors tie drops iff the peak floor reaches it.
                tie = (1, violations, overflow, peak)
                assert floor.loses(tie) == floor.peak_reaches(peak)
                reached += floor.loses(tie)
            key = ev.sort_key()
            beaten = [k for k in keys if key < k]
            if key[0] == 1:
                beaten.append(key[:3] + (peak + 1.0,))
            for k in beaten:
                assert not floor.loses(k), (base, s1, s2, k)
    # The tie rule is not vacuous.
    assert reached
