"""The general mapping algorithm (Figure 5).

Three phases, exactly as the paper describes:

1. an initial greedy mapping (:mod:`repro.core.greedy`);
2. commodity routing in decreasing order with bandwidth/area checks and
   cost computation (:mod:`repro.core.evaluate`);
3. pair-wise swap exploration: "repeat steps 2 to 8 for each pair-wise
   swap of vertices in P; return the mapping with lowest cost of all
   evaluated mappings".

Feasibility dominates cost when comparing mappings: a feasible mapping
always beats an infeasible one, and infeasible mappings compete on their
worst link overload, which steers the search toward feasibility (this is
how MPEG4 finds split-routable placements for its 910 MB/s flow).

``MapperConfig.max_rounds`` repeats the paper's single swap pass as
steepest-descent rounds until no swap improves; ``max_rounds=1`` is the
paper's algorithm (``tests/paper/test_vopd_claims.py`` compares the
two).

**Bounded swap search.** A swap candidate only matters if its sort key
strictly beats its *bound*: the base mapping, or the best candidate so
far once one beats the base (:class:`SwapBound`). Most candidates lose,
so evaluation stops as soon as a candidate provably cannot win:

1. before routing, when the objective's lower bound (for hops, the
   bandwidth-weighted hop distance of the mapped slots, updated from
   the round's base by swap delta) already exceeds a feasible bound's
   cost, or, within the 1e-9 margin of it, the cost replayed before
   routing does not beat it (hops under MP and SM,
   :meth:`~repro.core.floor.SwapFloor.replay_hops`);
2. mid-routing, once a link overflows against a feasible bound, or the
   partial (QoS violations, overflow) loses to an infeasible one
   (:class:`~repro.core.constraints.RoutingWatch`);
3. after routing, when the routing alone fixes the candidate's sort
   key — it is bandwidth- or QoS-infeasible, or the objective is
   ``routing_only`` — and that key does not beat the bound: no
   floorplan, power walk or resource summary;
4. before the floorplan LP, when the objective's floor over every
   floorplan (for power, the power with each placed link at its length
   floor, :func:`~repro.floorplan.lp.link_length_floors`) already
   exceeds a feasible bound's cost;
5. before routing, right after cut-off 1, when the candidate's floors
   of QoS violations and ``bandwidth_overflow``
   (:class:`~repro.core.floor.SwapFloor`: forced-path loads, switch
   cuts, constrained terminal links) prove it infeasible against a
   feasible bound, or worse than an infeasible one; in exact
   arithmetic, also no better: an overflow floor equal to the bound's
   whose max-link-load floor reaches the bound's.

Estimated quantities are compared with a 1e-9 relative margin, so a
near-tie is evaluated in full, unless a replayed hop cost or exact
overflow arithmetic proves it a tie (:mod:`repro.core.floor`). The memo
asks cut-offs 1 and 5 beside the round's floor. The bound only tightens,
so a candidate whose assignment the search has already visited cannot beat
it either and is skipped before routing
(:class:`~repro.core.memo.MemoizedMappingEvaluator`). Dropped and
skipped candidates are never returned; the search returns the same
evaluation, bit for bit, as the unbounded one. With a ``collector``
(the Pareto exploration wants every candidate measured) every
candidate, revisits included, is evaluated in full.

**Pipelined candidates.** With the floorplanner in the loop, the LP of
a candidate is solved in the LP solver process
(:mod:`repro.floorplan.lp`) while the search routes the next ones. It
is a process, not a thread, because of the GIL: the search thread
yields the GIL only every switch interval, so a solver thread waited
for it to start and to finish each solve, whereas a solver process runs
beside the search and leaves the search thread as the only pace. A
candidate is *started* (routed, cut-offs 1-5 asked, its LP queued) up
to :data:`WINDOW` candidates ahead of the oldest unfinished one, and
candidates are *finished* (LP awaited, floorplan legalized, power and
score measured, collector appended) strictly in candidate order: the
oldest finishes once it was pruned, has no queued LP, is more than the
window behind, or is the last. The schedule never asks whether an LP is
done, so every counter of the search depends on its input alone, never
on how fast the solver runs. A candidate started under an older,
looser bound can only be pruned less, never more, and is compared
against the bound of its finishing time, so the search returns the
same evaluation bit for bit. Without the floorplanner nothing waits,
and each candidate finishes right after it starts.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations

from repro.core.constraints import Constraints, RoutingWatch, beyond
from repro.core.coregraph import CoreGraph
from repro.core.evaluate import MappingEvaluation
from repro.core.greedy import initial_greedy_mapping
from repro.core.memo import MemoizedMappingEvaluator
from repro.core.objectives import Objective, make_objective
from repro.errors import ReproError
from repro.physical.estimate import NetworkEstimator
from repro.routing.base import RoutingFunction
from repro.routing.library import make_routing
from repro.topology.base import Topology


@dataclass
class MapperConfig:
    """Knobs of the swap phase.

    Attributes:
        max_rounds: most pairwise-swap passes; the search stops earlier
            at the first pass that finds no improving swap. 1 is the
            paper's single pass (Figure 5 steps 9-10); more rounds are
            needed e.g. for VOPD to discover a bandwidth-feasible
            butterfly placement.

    The swap loop floorplans each candidate iff the objective or an
    area constraint needs it.
    """

    max_rounds: int = 8


def _resolve(routing, objective):
    if isinstance(routing, str):
        routing = make_routing(routing)
    if isinstance(objective, str):
        objective = make_objective(objective)
    return routing, objective


def _score(evaluation: MappingEvaluation, objective: Objective) -> MappingEvaluation:
    try:
        evaluation.cost = objective.cost(evaluation)
    except (ReproError, TypeError):
        evaluation.cost = math.inf
    return evaluation


def map_onto(
    core_graph: CoreGraph,
    topology: Topology,
    routing: RoutingFunction | str = "MP",
    objective: Objective | str = "hops",
    constraints: Constraints | None = None,
    estimator: NetworkEstimator | None = None,
    config: MapperConfig | None = None,
    collector: list | None = None,
) -> MappingEvaluation:
    """Map a core graph onto one topology and return the best evaluation.

    Args:
        collector: optional list receiving *every* evaluated mapping
            (used for the Pareto exploration of Figure 9(b)); with one
            attached, no swap candidate is dropped early.

    Raises:
        MappingInfeasibleError: if the application has more cores than
            the topology has slots.
        UnsupportedRoutingError: if the routing function is undefined for
            this topology (e.g. DO on Clos).

    Note: a returned evaluation may still have ``feasible == False``
    (bandwidth or area violation everywhere) — that is the paper's
    "No Feasible Mapping" outcome for MPEG4 on the butterfly.
    """
    routing, objective = _resolve(routing, objective)
    constraints = constraints or Constraints()
    estimator = estimator or NetworkEstimator()
    config = config or MapperConfig()

    fp_in_loop = (
        objective.needs_floorplan or constraints.max_area_mm2 is not None
    )

    memo = MemoizedMappingEvaluator(
        core_graph, topology, routing, constraints, estimator
    )

    def run(assignment: dict[int, int]) -> MappingEvaluation:
        ev = memo.evaluate(assignment, with_floorplan=fp_in_loop)
        _score(ev, objective)
        if collector is not None:
            collector.append(ev)
        return ev

    def start_swap(base: MappingEvaluation, s1: int, s2: int, bound):
        return memo.evaluate_swap(
            base.assignment, s1, s2, with_floorplan=fp_in_loop, bound=bound
        )

    def finish_swap(started) -> MappingEvaluation | None:
        ev = memo.finish(started)
        if ev is None:
            return None
        _score(ev, objective)
        if collector is not None:
            collector.append(ev)
        return ev

    best = run(initial_greedy_mapping(core_graph, topology))

    bounded = objective if collector is None else None
    for _ in range(config.max_rounds):
        candidate = _best_swap(best, start_swap, finish_swap, bounded)
        if candidate is None:
            break
        best = candidate

    if fp_in_loop:
        return best
    # Final evaluation with the floorplanner on, so every reported
    # mapping carries area/power numbers and a real area check.
    final = memo.evaluate(best.assignment, with_floorplan=True)
    return _score(final, objective)


class SwapBound:
    """The sort key a swap candidate must strictly beat, and the
    five exact tests that prove a candidate cannot (see the module
    docstring), asked in the order a candidate meets them."""

    __slots__ = ("key", "objective")

    def __init__(self, key: tuple, objective: Objective):
        self.key = key
        self.objective = objective

    def hops_cut(self, floor) -> bool:
        """Cut-off 1: the objective's lower bound of the candidate
        selected in ``floor`` already loses to a feasible bound, or lies
        within its margin and the replayed cost does not beat it."""
        if self.key[0] != 0:
            return False
        cost = self.key[2]
        lower = self.objective.lower_bound(floor)
        if lower is None or beyond(cost, lower):
            return False
        if beyond(lower, cost):
            return True
        replayed = self.objective.replayed_cost(floor)
        return replayed is not None and not replayed < cost

    def overflow_floor(self, floor) -> bool:
        """Cut-off 5, before routing: the candidate's QoS-violation and
        overflow floors (:meth:`~repro.core.floor.SwapFloor.loses`)
        already lose to the bound."""
        return floor.loses(self.key)

    def watch(self, topology: Topology, constraints: Constraints):
        """Cut-off 2: the ``stop`` hook for ``route_all``."""
        return RoutingWatch(topology, constraints, self.key)

    def power_floor(
        self, evaluation: MappingEvaluation, estimator, used_switches,
        pitch_mm: float,
    ) -> bool:
        """Cut-off 4, on a routed candidate about to be floorplanned:
        the objective's floor over every floorplan of it already loses
        to a feasible bound. A candidate whose floorplan fails or breaks
        the area constraint is infeasible and loses to that bound
        anyway."""
        if self.key[0] != 0:
            return False
        floor = self.objective.lower_bound_routed(
            evaluation, estimator, used_switches, pitch_mm
        )
        return floor is not None and beyond(floor, self.key[2])

    def loses(self, evaluation: MappingEvaluation) -> bool:
        """Cut-off 3, on a routed but unmeasured evaluation: whether its
        routing alone proves it does not beat the bound. Measuring can
        only make a key worse (an area violation), never better."""
        if evaluation.bandwidth_feasible and evaluation.qos_feasible:
            if not self.objective.routing_only:
                return False
            _score(evaluation, self.objective)
        return not evaluation.sort_key() < self.key


#: Most swap candidates started but not yet finished: enough to keep
#: the LP solver busy while the search routes, few enough that the
#: bound the candidates start under stays close to the latest one.
WINDOW = 6


def _best_swap(
    base: MappingEvaluation, start_swap, finish_swap,
    objective: Objective | None = None,
) -> MappingEvaluation | None:
    """Evaluate every pairwise slot swap of ``base``; return the best
    one that strictly beats it (the earliest on ties), or ``None``.

    ``start_swap(base, s1, s2, bound)`` starts one slot swap of the
    base (:meth:`~repro.core.memo.MemoizedMappingEvaluator.evaluate_swap`)
    and ``finish_swap`` finishes it, in candidate order, at most
    :data:`WINDOW` starts behind: right away unless its LP is queued in
    the solver process, whether or not the LP is done. With an
    ``objective`` each candidate is bounded by a :class:`SwapBound` on
    the key to beat, tightened in place as better candidates finish;
    without one (``bound`` is ``None``) every candidate is evaluated in
    full.
    """
    topology = base.topology
    occupied = sorted(base.assignment.values())
    free = sorted(set(range(topology.num_slots)) - set(occupied))

    best: MappingEvaluation | None = None
    key = base.sort_key()
    bound = SwapBound(key, objective) if objective is not None else None
    candidates = list(combinations(occupied, 2))
    candidates += [(s, f) for s in occupied for f in free]
    started = deque()
    for i, (s1, s2) in enumerate(candidates):
        started.append(start_swap(base, s1, s2, bound))
        last = i == len(candidates) - 1
        while started and (
            last or len(started) > WINDOW
            or started[0] is None or not started[0].queued
        ):
            ev = finish_swap(started.popleft())
            if ev is not None and ev.sort_key() < key:
                best, key = ev, ev.sort_key()
                if bound is not None:
                    bound.key = key
    return best
