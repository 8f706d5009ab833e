"""Single-mapping evaluation (Figure 5, steps 2-8).

Given an assignment of cores to slots, this module routes all commodities
in decreasing order, checks bandwidth feasibility, optionally floorplans
the design, and derives the three report metrics of the paper's tables:
average hop delay, design area and design power.

An evaluation runs in two steps. :func:`start_evaluation` routes the
mapping, asks a bound's cut-offs and, with the floorplanner on, asks for
the sizing LP (:func:`~repro.floorplan.lp.request_floorplan`), which the
LP solver process solves meanwhile; :meth:`PendingEvaluation.finish`
waits for it, then legalizes the floorplan and measures area, power and
resources. :func:`evaluate_mapping` does both at once; the swap search
starts a few candidates ahead and finishes them in order
(:mod:`repro.core.mapper`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.constraints import (
    Constraints,
    area_feasible,
    bandwidth_feasible,
    bandwidth_overflow,
    qos_feasible,
)
from repro.core.coregraph import CoreGraph
from repro.errors import FloorplanError, MappingInfeasibleError
from repro.floorplan.lp import (
    FloorplanRequest,
    FloorplanResult,
    floorplan_mapping,
    request_floorplan,
)
from repro.physical.estimate import NetworkEstimator, PowerBreakdown
from repro.routing.base import RoutingFunction, RoutingResult
from repro.topology.base import ResourceSummary, Topology


def nominal_pitch_mm(core_graph: CoreGraph) -> float:
    """Tile pitch estimate when no floorplan is available: the side of an
    average core block."""
    if core_graph.num_cores == 0:
        return 1.0
    return math.sqrt(core_graph.total_core_area() / core_graph.num_cores)


@dataclass
class MappingEvaluation:
    """Everything known about one evaluated mapping."""

    core_graph: CoreGraph
    topology: Topology
    routing_code: str
    assignment: dict[int, int]

    routing_result: RoutingResult
    avg_hops: float
    max_link_load: float
    bandwidth_feasible: bool
    overflow_mb_s: float = 0.0
    qos_feasible: bool = True
    qos_violations: list = field(default_factory=list)

    floorplan: FloorplanResult | None = None
    area_mm2: float | None = None
    power: PowerBreakdown | None = None
    power_mw: float | None = None
    area_feasible: bool = True
    resources: ResourceSummary | None = None
    cost: float = math.inf

    @property
    def feasible(self) -> bool:
        return (
            self.bandwidth_feasible
            and self.area_feasible
            and self.qos_feasible
        )

    def sort_key(self) -> tuple:
        """Feasible-first, then cost; infeasible mappings compete on how
        badly they violate constraints (QoS violations, then total
        bandwidth overflow, then worst link), driving the swap search
        toward feasibility."""
        if self.feasible:
            return (0, 0, self.cost, 0.0)
        return (
            1,
            len(self.qos_violations),
            self.overflow_mb_s,
            self.max_link_load,
        )

    def summary_row(self) -> dict:
        """Row for the paper-style comparison tables."""
        return {
            "topology": self.topology.name,
            "routing": self.routing_code,
            "feasible": self.feasible,
            "avg_hops": round(self.avg_hops, 3),
            "max_link_load_mb_s": round(self.max_link_load, 1),
            "area_mm2": None if self.area_mm2 is None else round(self.area_mm2, 2),
            "power_mw": None if self.power_mw is None else round(self.power_mw, 1),
            "switches": None if self.resources is None else self.resources.num_switches,
            "links": None if self.resources is None else self.resources.num_links,
        }


def evaluate_mapping(
    core_graph: CoreGraph,
    topology: Topology,
    assignment: dict[int, int],
    routing: RoutingFunction,
    constraints: Constraints,
    estimator: NetworkEstimator | None = None,
    with_floorplan: bool = True,
    bound=None,
    checked: bool = False,
) -> MappingEvaluation | None:
    """Route, check and measure one mapping: :func:`start_evaluation`
    and :meth:`PendingEvaluation.finish` in one call.

    Args:
        assignment: core index -> terminal slot; must be injective and
            cover every core.
        with_floorplan: run the LP floorplanner (needed for area/power
            numbers and area feasibility). Disable inside hop-objective
            swap loops for speed; re-enable for the final report.
        bound: optional :class:`~repro.core.mapper.SwapBound` the
            mapping must strictly beat. Work stops as soon as it
            provably cannot — mid-routing, or before the floorplan LP
            and power walk — and the result is ``None``; a mapping that
            might win is evaluated in full. (The swap search's memo asks
            the bound's pre-routing cut-offs before calling this.)
        checked: the caller has already validated ``assignment`` (the
            swap search's memo validates each base assignment once and
            each candidate's two swapped slots), so it is not re-checked.

    Raises:
        MappingInfeasibleError: if the assignment is structurally invalid
            (wrong size, duplicate slots, slot out of range).
    """
    started = start_evaluation(
        core_graph, topology, assignment, routing, constraints,
        estimator=estimator, with_floorplan=with_floorplan, bound=bound,
        checked=checked,
    )
    return None if started is None else started.finish()


def start_evaluation(
    core_graph: CoreGraph,
    topology: Topology,
    assignment: dict[int, int],
    routing: RoutingFunction,
    constraints: Constraints,
    estimator: NetworkEstimator | None = None,
    with_floorplan: bool = True,
    bound=None,
    checked: bool = False,
) -> PendingEvaluation | None:
    """The first step of :func:`evaluate_mapping` (same arguments):
    route the mapping and, with the floorplanner on, ask for its LP.

    ``None`` when the ``bound`` drops the mapping (mid-routing, on its
    routing alone, or on its floor over every floorplan, cut-offs 2-4).
    """
    if not checked:
        validate_assignment(core_graph, topology, assignment)
    if estimator is None:
        estimator = NetworkEstimator()

    commodities = core_graph.commodities()
    result = routing.route_all(
        topology, assignment, commodities,
        stop=None if bound is None else bound.watch(topology, constraints),
    )
    if result is None:
        return None
    bw_ok, max_load = bandwidth_feasible(result, topology, constraints)
    overflow = 0.0 if bw_ok else bandwidth_overflow(result, topology, constraints)
    qos_ok, violations = qos_feasible(result, constraints)

    evaluation = MappingEvaluation(
        core_graph=core_graph,
        topology=topology,
        routing_code=routing.code,
        assignment=dict(assignment),
        routing_result=result,
        avg_hops=result.weighted_average_hops(),
        max_link_load=max_load,
        bandwidth_feasible=bw_ok,
        overflow_mb_s=overflow,
        qos_feasible=qos_ok,
        qos_violations=violations,
    )
    if bound is not None and bound.loses(evaluation):
        return None

    pitch = nominal_pitch_mm(core_graph)
    started = PendingEvaluation(evaluation, estimator, constraints, pitch)
    if not with_floorplan:
        return started
    used = started.used_switches = estimator.used_switches(topology, result)
    if bound is not None and bound.power_floor(
        evaluation, estimator, used, pitch
    ):
        return None
    try:
        started.request = request_floorplan(
            topology,
            assignment,
            core_graph,
            used_switches=used,
            tech=estimator.tech,
            max_aspect=constraints.max_chip_aspect,
        )
    except FloorplanError:
        pass  # nothing to floorplan: the mapping is area-infeasible
    return started


class PendingEvaluation:
    """A routed mapping that :func:`start_evaluation` kept: its
    evaluation, measured up to the floorplan, and the floorplan's LP
    request (``None`` when the floorplan already failed)."""

    __slots__ = (
        "evaluation", "estimator", "constraints", "pitch_mm",
        "used_switches", "request",
    )

    def __init__(self, evaluation, estimator, constraints, pitch_mm):
        self.evaluation = evaluation
        self.estimator = estimator
        self.constraints = constraints
        self.pitch_mm = pitch_mm
        #: Set when the floorplanner runs (``with_floorplan``).
        self.used_switches = None
        self.request: FloorplanRequest | None = None

    @property
    def queued(self) -> bool:
        """Whether :meth:`finish` may wait for an LP in the solver."""
        return self.request is not None and self.request.queued

    def finish(self) -> MappingEvaluation:
        """Wait for the LP, legalize the floorplan, and measure area,
        power and resources."""
        evaluation = self.evaluation
        topology = evaluation.topology
        assignment = evaluation.assignment
        result = evaluation.routing_result
        estimator = self.estimator
        pitch = self.pitch_mm
        if self.used_switches is not None:
            request = self.request
            floorplan = None
            if request is not None:
                try:
                    floorplan = floorplan_mapping(
                        topology, assignment, evaluation.core_graph,
                        request=request,
                    )
                except FloorplanError:
                    pass
            evaluation.floorplan = floorplan
            lengths = (
                floorplan.link_lengths(topology, assignment)
                if floorplan is not None
                else None
            )
            channels = estimator.channels_area_mm2(
                topology, result, lengths_mm=lengths, pitch_mm=pitch
            )
            if floorplan is not None:
                evaluation.area_mm2 = floorplan.area_mm2 + channels
            evaluation.power = estimator.network_power_mw(
                topology, result, lengths_mm=lengths, pitch_mm=pitch
            )
            evaluation.power_mw = evaluation.power.total_mw
            evaluation.area_feasible = floorplan is not None and area_feasible(
                floorplan, evaluation.area_mm2, self.constraints
            )
        else:
            # Fast mode: power from nominal link lengths, no area numbers.
            evaluation.power = estimator.network_power_mw(
                topology, result, lengths_mm=None, pitch_mm=pitch
            )
            evaluation.power_mw = evaluation.power.total_mw
            evaluation.area_feasible = True

        # Direct topologies ignore the route list entirely (their resource
        # summary is mapping-independent apart from the slot count), so skip
        # materializing all paths for them — it sits on the swap-search hot
        # path.
        routes = None if topology.kind == "direct" else result.all_paths()
        evaluation.resources = topology.resource_summary(
            routes=routes, mapped_slots=list(assignment.values())
        )
        # Edge ids are working data of this evaluation (the routing watch,
        # the power walk). A finished evaluation drops them, as its pickle
        # does, so collectors and in-memory caches hold no more than node
        # paths.
        for rc in result.routed:
            rc.edge_ids = None
        return evaluation


def validate_assignment(
    core_graph: CoreGraph, topology: Topology, assignment: dict[int, int]
) -> None:
    """Raise :class:`MappingInfeasibleError` unless ``assignment`` maps
    every core of ``core_graph`` to its own slot of ``topology``."""
    if set(assignment) != set(range(core_graph.num_cores)):
        raise MappingInfeasibleError(
            "assignment must map every core exactly once"
        )
    slots = list(assignment.values())
    if len(set(slots)) != len(slots):
        raise MappingInfeasibleError("assignment maps two cores to one slot")
    for slot in slots:
        if not 0 <= slot < topology.num_slots:
            raise MappingInfeasibleError(f"slot {slot} out of range")
