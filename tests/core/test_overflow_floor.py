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
* cut-off 5 never drops a candidate against a key it strictly beats.

The link capacity leaves most mappings infeasible, so the floors are
tested where they cut. MP and SM use forced paths and switch cuts, SA
the switch cuts alone.
"""

from __future__ import annotations

from itertools import combinations, permutations

import pytest

from repro.apps.synthetic import random_core_graph
from repro.core.constraints import Constraints, bandwidth_overflow
from repro.core.evaluate import evaluate_mapping
from repro.core.floor import SwapFloor
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


def _oracle(name, n_cores, seed, capacity, max_hops, code):
    """The case's context and every mapping's full evaluation, by the
    slots in core order."""
    app = random_core_graph(n_cores, seed=seed)
    topology = make_topology(name, n_cores)
    routing = make_routing(code)
    constraints = Constraints(
        link_capacity_mb_s=capacity, max_flow_hops=max_hops
    )
    evaluations = {
        tuple(assignment.values()): evaluate_mapping(
            app, topology, assignment, routing, constraints,
            with_floorplan=False,
        )
        for assignment in all_mappings(n_cores, topology.num_slots)
    }
    return app, topology, routing, constraints, evaluations


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
    app, topology, routing, constraints, evaluations = _oracle(
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
            assert lower == pytest.approx(
                _hop_distance(app, topology, slots), rel=1e-12
            )
            assert lower <= ev.avg_hops + 1e-12
            violations, overflow = floor.floors()
            assert violations <= len(ev.qos_violations)
            assert overflow <= raw[slots] + 1e-9
            cut += overflow > 0.0
            for key in keys:
                if floor.loses(key):
                    assert not ev.sort_key() < key, (slots, key)
                    dropped += 1
    # The floors are not vacuous: they are positive and they cut.
    assert cut and dropped
