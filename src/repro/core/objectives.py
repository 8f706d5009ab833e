"""Mapping objectives (Section 1: "minimizing average communication
delay, area, power dissipation subject to bandwidth and area
constraints").

An objective turns a :class:`~repro.core.evaluate.MappingEvaluation` into
a scalar cost (lower is better) and declares whether it needs the
floorplanner inside the swap loop (area/power do; hop delay does not,
which keeps Figure 6(a)-style runs fast). More declarations let the
swap search drop a losing candidate early (:mod:`repro.core.mapper`):
``routing_only`` (the cost is known once the mapping is routed),
:meth:`Objective.lower_bound` (a cost no routing of a swap candidate can
beat, priced from the round's :class:`~repro.core.floor.SwapFloor`),
:meth:`Objective.replayed_cost` (the cost a candidate's routing gives,
known before routing) and :meth:`Objective.lower_bound_routed` (a cost
no floorplan of a routed mapping can beat).

The extra ``bandwidth`` objective minimizes the worst link load; mapping
with it yields the *minimum feasible link bandwidth* of a routing
function — the quantity plotted in Figure 9(a).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.errors import ReproError
from repro.floorplan.lp import link_length_floors


class Objective(ABC):
    """Scalar mapping cost; lower is better."""

    name: str = "?"
    needs_floorplan: bool = False
    #: The cost reads only routing outcomes (``avg_hops``, link loads),
    #: never area or power, so a candidate can be ranked right after
    #: routing.
    routing_only: bool = False

    @abstractmethod
    def cost(self, evaluation) -> float:
        """Cost of an evaluated mapping."""

    def lower_bound(self, floor) -> float | None:
        """A cost no routing of the swap candidate selected in ``floor``
        (a :class:`~repro.core.floor.SwapFloor`) can go below, or
        ``None`` when the objective offers none (the default)."""
        return None

    def replayed_cost(self, floor) -> float | None:
        """The cost the routing of the swap candidate selected in
        ``floor`` gives, bit for bit, computed before routing, or
        ``None`` when the objective cannot replay it (the default)."""
        return None

    def lower_bound_routed(
        self, evaluation, estimator, used_switches, pitch_mm
    ) -> float | None:
        """A cost no floorplan of the routed, not yet floorplanned
        ``evaluation`` can go below, or ``None`` when the objective
        offers none (the default)."""
        return None

    def __repr__(self) -> str:
        return f"Objective({self.name})"


class HopDelayObjective(Objective):
    """Bandwidth-weighted average hop count (the paper's "avg hops")."""

    name = "hops"
    needs_floorplan = False
    routing_only = True

    def cost(self, evaluation) -> float:
        return evaluation.avg_hops

    def lower_bound(self, floor) -> float | None:
        """Bandwidth-weighted hop distance between the mapped slots
        (:meth:`~repro.core.floor.SwapFloor.hop_bound`): no routed path
        crosses fewer switches than
        :meth:`~repro.topology.base.Topology.hop_distance`. ``None`` when
        a pair is disconnected (routing then reports it)."""
        return floor.hop_bound()

    def replayed_cost(self, floor) -> float | None:
        """``avg_hops`` replayed from the slots' hop distances under MP
        and SM (:meth:`~repro.core.floor.SwapFloor.replay_hops`)."""
        return floor.replay_hops()


class AreaObjective(Objective):
    """Floorplanned design area (blocks + whitespace + channels)."""

    name = "area"
    needs_floorplan = True

    def cost(self, evaluation) -> float:
        if evaluation.area_mm2 is None:
            raise ReproError("area objective requires a floorplanned evaluation")
        return evaluation.area_mm2


class PowerObjective(Objective):
    """Network power (switch + link dynamic, clock, leakage)."""

    name = "power"
    needs_floorplan = True

    def cost(self, evaluation) -> float:
        if evaluation.power_mw is None:
            raise ReproError("power objective requires a floorplanned evaluation")
        return evaluation.power_mw

    def lower_bound_routed(
        self, evaluation, estimator, used_switches, pitch_mm
    ) -> float | None:
        """The network power with every placed link at its length floor
        (:func:`~repro.floorplan.lp.link_length_floors`). Power is linear
        in each link's length with non-negative coefficients (wire
        energy of the traffic it carries, repeater leakage), and the
        floors go through the same accumulation as the floorplanned
        lengths, so no floorplan gives less."""
        topology = evaluation.topology
        floors = link_length_floors(
            topology,
            evaluation.assignment,
            evaluation.core_graph,
            used_switches=used_switches,
            tech=estimator.tech,
        )
        return estimator.network_power_mw(
            topology, evaluation.routing_result,
            lengths_mm=floors, pitch_mm=pitch_mm,
        ).total_mw


class BandwidthObjective(Objective):
    """Worst constrained-link load (for Figure 9(a) sweeps).

    A subordinate RMS-load term breaks ties between mappings sharing the
    same bottleneck, so the swap search keeps a gradient across max-load
    plateaus (e.g. several placements all pinned at an unsplittable
    600 MB/s flow).
    """

    name = "bandwidth"
    needs_floorplan = False
    routing_only = True

    def cost(self, evaluation) -> float:
        loads = [v for _, v in evaluation.routing_result.loads.items()]
        rms = math.sqrt(sum(v * v for v in loads) / len(loads)) if loads else 0.0
        return evaluation.max_link_load + 1e-4 * rms


class WeightedObjective(Objective):
    """Convex combination of hop delay, area and power.

    Terms are normalized by caller-provided reference values so the
    weights are unitless, e.g.::

        WeightedObjective(hops=0.5, power=0.5, hops_ref=3.0, power_ref=400)
    """

    name = "weighted"

    def __init__(
        self,
        hops: float = 0.0,
        area: float = 0.0,
        power: float = 0.0,
        hops_ref: float = 1.0,
        area_ref: float = 1.0,
        power_ref: float = 1.0,
    ):
        if hops < 0 or area < 0 or power < 0:
            raise ReproError("objective weights must be non-negative")
        if hops + area + power <= 0:
            raise ReproError("at least one objective weight must be positive")
        self.weights = {"hops": hops, "area": area, "power": power}
        self.refs = {"hops": hops_ref, "area": area_ref, "power": power_ref}
        self.needs_floorplan = area > 0 or power > 0

    @property
    def routing_only(self) -> bool:
        # A property, not instance state: the objective fingerprint
        # keys on instance attributes.
        return not self.needs_floorplan

    def cost(self, evaluation) -> float:
        total = 0.0
        if self.weights["hops"]:
            total += self.weights["hops"] * evaluation.avg_hops / self.refs["hops"]
        if self.weights["area"]:
            total += self.weights["area"] * evaluation.area_mm2 / self.refs["area"]
        if self.weights["power"]:
            total += self.weights["power"] * evaluation.power_mw / self.refs["power"]
        return total


_OBJECTIVES = {
    "hops": HopDelayObjective,
    "latency": HopDelayObjective,
    "area": AreaObjective,
    "power": PowerObjective,
    "bandwidth": BandwidthObjective,
}


def make_objective(name: str) -> Objective:
    """Instantiate an objective by name (hops/latency, area, power,
    bandwidth)."""
    try:
        return _OBJECTIVES[name.lower()]()
    except KeyError:
        raise ReproError(
            f"unknown objective {name!r}; choose from {sorted(set(_OBJECTIVES))}"
        ) from None
