"""Assignment-level memoization of :func:`~repro.core.evaluate.evaluate_mapping`.

The pairwise-swap search (:mod:`repro.core.mapper`) and the annealing
refinement (:mod:`repro.core.annealing`) both revisit assignments — the
swap that undoes the previous round's best move, annealing walks that
return to an earlier state, the final authoritative re-evaluation of the
winning assignment. Routing and floorplanning the same assignment twice
is pure waste: :func:`evaluate_mapping` is deterministic in its inputs.

:class:`MemoizedMappingEvaluator` wraps one search's evaluation context
(core graph, topology, routing function, constraints, estimator) around
a private dict keyed by the sorted assignment plus the floorplan flag;
the context is fixed by construction, so it needs no place in the key,
and the memo lives and dies with its search. Hits return the previously
evaluated :class:`~repro.core.evaluate.MappingEvaluation` object itself
— callers treat evaluations as immutable apart from the ``cost`` field,
which objectives re-assign idempotently.

The searches hand their candidates in as slot swaps of a base
assignment (:meth:`~MemoizedMappingEvaluator.evaluate_swap`); a swap is
applied and then evaluated through the same memo, so both entry points
share one store. What makes a candidate cheap is the interned routing
underneath (:mod:`repro.routing.shortest`), not a second evaluator.

The pairwise-swap search may also pass a
:class:`~repro.core.mapper.SwapBound`: a candidate that provably cannot
beat it is dropped part-way through its evaluation and comes back as
``None`` (counted in ``stats.pruned``). The store only ever holds full
evaluations, so a later lookup of a dropped assignment — under another
bound, or none — evaluates it afresh.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constraints import Constraints
from repro.core.coregraph import CoreGraph
from repro.core.evaluate import MappingEvaluation, evaluate_mapping
from repro.physical.estimate import NetworkEstimator
from repro.routing.base import RoutingFunction
from repro.topology.base import Topology


def swap_assignment(
    assignment: dict[int, int], s1: int, s2: int
) -> dict[int, int]:
    """Apply the slot swap (s1, s2) and return a new assignment.

    Preserves the input dict's key order (``dict(assignment)`` plus
    in-place reassignment), matching how the swap search and the
    annealer have always built candidates — key order feeds through to
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


@dataclass
class MemoStats:
    """Hit/miss counters of one search's memo; ``pruned`` counts the
    misses a bound dropped before they were fully evaluated."""

    hits: int = 0
    misses: int = 0
    pruned: int = 0


class MemoizedMappingEvaluator:
    """Evaluate assignments of one search context through a private memo."""

    __slots__ = (
        "core_graph",
        "topology",
        "routing",
        "constraints",
        "estimator",
        "stats",
        "_store",
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
        self._store: dict[tuple, MappingEvaluation] = {}

    def evaluate(
        self, assignment: dict[int, int], with_floorplan: bool
    ) -> MappingEvaluation:
        """Route/check/measure ``assignment``, or return the cached
        evaluation of a bit-identical earlier one."""
        return self._memoized(assignment, with_floorplan)

    def evaluate_swap(
        self,
        base_assignment: dict[int, int],
        s1: int,
        s2: int,
        with_floorplan: bool,
        bound=None,
    ) -> MappingEvaluation | None:
        """:meth:`evaluate` of ``swap_assignment(base_assignment, s1, s2)``.

        With a ``bound`` (a :class:`~repro.core.mapper.SwapBound`), a
        candidate that provably cannot beat it returns ``None`` and is
        not stored.
        """
        return self._memoized(
            swap_assignment(base_assignment, s1, s2), with_floorplan, bound
        )

    def _memoized(
        self, assignment: dict[int, int], with_floorplan: bool, bound=None
    ) -> MappingEvaluation | None:
        # The shared body of both entry points (one memo lookup per
        # candidate, whichever way it arrived).
        key = (tuple(sorted(assignment.items())), with_floorplan)
        hit = self._store.get(key)
        if hit is not None:
            self.stats.hits += 1
            return hit
        self.stats.misses += 1
        evaluation = evaluate_mapping(
            self.core_graph,
            self.topology,
            assignment,
            self.routing,
            self.constraints,
            estimator=self.estimator,
            with_floorplan=with_floorplan,
            bound=bound,
        )
        if evaluation is None:
            self.stats.pruned += 1
            return None
        self._store[key] = evaluation
        return evaluation
