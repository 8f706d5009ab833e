"""The swap search's evaluation context and its set of visited assignments.

:class:`MemoizedMappingEvaluator` wraps one search's evaluation context
(core graph, topology, routing function, constraints, estimator) around
:func:`~repro.core.evaluate.start_evaluation`, and records every
assignment the search has handed it. It lives and dies with its search.

The pairwise-swap search (:mod:`repro.core.mapper`) hands in its
candidates as slot swaps of a base assignment, optionally with a
:class:`~repro.core.mapper.SwapBound`; one that provably cannot beat
the bound is dropped part-way and comes back as ``None``
(``stats.pruned``). Bounded candidates of one base share a
:class:`~repro.core.floor.SwapFloor`, which prices each before routing
from the base's totals; cut-offs 1 and 5 drop losers right there.

:meth:`~MemoizedMappingEvaluator.evaluate_swap` only starts a
candidate: it routes it and, with the floorplanner on, queues its LP on
the LP solver process (:class:`~repro.core.evaluate.PendingEvaluation`).
The search starts a few more while the LP solves and hands each back,
in candidate order, to :meth:`~MemoizedMappingEvaluator.finish`, which
waits for its LP and always measures it in full.

The bound only tightens during a search: every assignment seen so far
either lost to the bound of its time or became that bound. So a
bounded candidate whose assignment was already visited cannot strictly
beat the current bound either; it comes back as ``None`` without being
routed (counted in ``stats.hits``). A search revisits an assignment
only in a later round, after every candidate of the earlier ones has
finished. Without a bound (a collector search, which wants every
candidate measured) a revisit is evaluated in full again.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constraints import Constraints
from repro.core.coregraph import CoreGraph
from repro.core.evaluate import (
    MappingEvaluation,
    PendingEvaluation,
    start_evaluation,
    validate_assignment,
)
from repro.core.floor import SwapFloor
from repro.errors import MappingInfeasibleError
from repro.physical.estimate import NetworkEstimator
from repro.routing.base import RoutingFunction
from repro.topology.base import Topology


def swap_assignment(
    assignment: dict[int, int], s1: int, s2: int
) -> dict[int, int]:
    """Apply the slot swap (s1, s2) and return a new assignment.

    Preserves the input dict's key order (``dict(assignment)`` plus
    in-place reassignment), matching how the swap search has always
    built candidates — key order feeds through to
    ``MappingEvaluation.assignment`` and the floorplanner.
    """
    swapped = dict(assignment)
    c1 = c2 = None
    for core, slot in assignment.items():
        if slot == s1:
            c1 = core
        elif slot == s2:
            c2 = core
    if c1 is not None:
        swapped[c1] = s2
    if c2 is not None:
        swapped[c2] = s1
    return swapped


def _key(assignment: dict[int, int]) -> tuple[int, ...]:
    """The visited-set key: the slots in core order, as one flat tuple
    so the set adds no per-core pairs for the garbage collector to track."""
    return tuple(map(assignment.__getitem__, sorted(assignment)))


@dataclass
class MemoStats:
    """Counters of one search: ``hits`` are bounded revisits skipped
    without routing, ``misses`` are evaluations started, ``pruned``
    counts the misses a bound dropped before they were fully evaluated,
    and ``floored`` the pruned ones its overflow floor dropped before
    routing (cut-off 5)."""

    hits: int = 0
    misses: int = 0
    pruned: int = 0
    floored: int = 0


class MemoizedMappingEvaluator:
    """Evaluate assignments of one search context, skipping bounded
    revisits."""

    __slots__ = (
        "core_graph",
        "topology",
        "routing",
        "constraints",
        "estimator",
        "stats",
        "_visited",
        "_checked_base",
        "_floor",
    )

    def __init__(
        self,
        core_graph: CoreGraph,
        topology: Topology,
        routing: RoutingFunction,
        constraints: Constraints,
        estimator: NetworkEstimator,
    ):
        self.core_graph = core_graph
        self.topology = topology
        self.routing = routing
        self.constraints = constraints
        self.estimator = estimator
        self.stats = MemoStats()
        self._visited: set[tuple] = set()
        #: The last base assignment ``evaluate_swap`` validated (the
        #: swap search hands in one base, never mutated, per round),
        #: and its bounded candidates' floor (built on first use).
        self._checked_base = None
        self._floor = None

    def evaluate(
        self, assignment: dict[int, int], with_floorplan: bool
    ) -> MappingEvaluation:
        """Route/check/measure ``assignment`` and mark it visited."""
        return self.finish(
            self._start(assignment, _key(assignment), with_floorplan)
        )

    def finish(
        self, started: PendingEvaluation | None
    ) -> MappingEvaluation | None:
        """Finish a candidate :meth:`evaluate_swap` started (waiting for
        its LP); ``None`` stays ``None``."""
        return None if started is None else started.finish()

    def evaluate_swap(
        self,
        base_assignment: dict[int, int],
        s1: int,
        s2: int,
        with_floorplan: bool,
        bound=None,
    ) -> PendingEvaluation | None:
        """Start :meth:`evaluate` of ``swap_assignment(base_assignment,
        s1, s2)``; :meth:`finish` completes it.

        With a ``bound`` (a :class:`~repro.core.mapper.SwapBound`), a
        candidate that provably cannot beat it returns ``None``; an
        already visited one does so without being routed, and so does
        one the bound's cut-offs 1 and 5 drop from the price the base's
        :class:`~repro.core.floor.SwapFloor` gives it.

        The base assignment is validated once (and again only when a
        different base dict is handed in); each candidate then needs
        only its two slots in range, since a swap of a valid
        assignment's in-range slots is valid.
        """
        if base_assignment is not self._checked_base:
            validate_assignment(
                self.core_graph, self.topology, base_assignment
            )
            self._checked_base = base_assignment
            self._floor = None
        num_slots = self.topology.num_slots
        for slot in (s1, s2):
            if not 0 <= slot < num_slots:
                raise MappingInfeasibleError(f"slot {slot} out of range")
        assignment = swap_assignment(base_assignment, s1, s2)
        key = _key(assignment)
        dropped = False
        if bound is not None:
            if key in self._visited:
                self.stats.hits += 1
                return None
            floor = self._floor
            if floor is None:
                floor = self._floor = SwapFloor(
                    self.core_graph, self.topology, self.routing,
                    self.constraints, base_assignment,
                )
            floor.select(s1, s2)
            dropped = bound.hops_cut(floor) or bound.overflow_floor(floor)
            self.stats.floored += floor.dropped
        return self._start(
            assignment, key, with_floorplan, bound, checked=True,
            dropped=dropped,
        )

    def _start(
        self, assignment: dict[int, int], key: tuple, with_floorplan: bool,
        bound=None, checked: bool = False, dropped: bool = False,
    ) -> PendingEvaluation | None:
        # The shared body of both entry points; neither calls the other,
        # so a wrapper around either sees each lookup once. A candidate
        # ``dropped`` before routing counts as a pruned miss.
        self._visited.add(key)
        self.stats.misses += 1
        started = None if dropped else start_evaluation(
            self.core_graph,
            self.topology,
            assignment,
            self.routing,
            self.constraints,
            estimator=self.estimator,
            with_floorplan=with_floorplan,
            bound=bound,
            checked=checked,
        )
        self.stats.pruned += started is None
        return started
