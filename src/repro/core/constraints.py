"""Bandwidth and area constraints (Figure 5, step 8).

"Bandwidth constraints are satisfied, if in the resulting mapping, the
traffic across any link is smaller than or equal to the capacity of the
link. The area constraints are satisfied when the mapped design area is
lower than the maximum allowed area and aspect ratios of the design and
soft core blocks are within permissible ranges."

Link capacity "is technology and implementation dependent and is assumed
as an input" — the paper's experiments use a conservative 500 MB/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.floorplan.lp import FloorplanResult
from repro.routing.base import RoutingResult, worst_hops
from repro.routing.loads import edge_index
from repro.topology.base import Topology

#: The paper's conservative maximum link bandwidth (Section 6.1).
DEFAULT_LINK_CAPACITY_MB_S = 500.0


@dataclass(frozen=True)
class Constraints:
    """Feasibility envelope for a mapping.

    Attributes:
        link_capacity_mb_s: capacity of every switch-to-switch channel.
        core_link_capacity_mb_s: optional capacity for terminal links
            (None = unconstrained). The paper's results need the NI
            links unconstrained: each core attaches through one link,
            and MPEG4's SDRAM alone injects 950.5 MB/s (its 910 MB/s
            flow included) and ejects 1460.5 MB/s, so a 500 MB/s cap
            there would rule out the SM/SA mappings Section 6.1 reports.
        max_area_mm2: optional ceiling on the floorplanned design area.
        max_chip_aspect: maximum chip width/height ratio (either
            orientation).
        max_flow_hops: optional QoS bound — no commodity may traverse
            more than this many switches on any of its paths (the
            paper's future-work "guaranteeing Quality-of-Service",
            realized as a per-flow latency guarantee).
    """

    link_capacity_mb_s: float = DEFAULT_LINK_CAPACITY_MB_S
    core_link_capacity_mb_s: float | None = None
    max_area_mm2: float | None = None
    max_chip_aspect: float = 3.0
    max_flow_hops: int | None = None

    def relaxed(self) -> "Constraints":
        """Copy with bandwidth constraints lifted (Section 6.2 uses this
        to force mappings onto every topology for simulation)."""
        return Constraints(
            link_capacity_mb_s=math.inf,
            core_link_capacity_mb_s=None,
            max_area_mm2=self.max_area_mm2,
            max_chip_aspect=self.max_chip_aspect,
            max_flow_hops=self.max_flow_hops,
        )


class CapacityTable:
    """The bandwidth constraints of one topology, by edge id.

    Built once per (topology, capacities) by :func:`capacity_table` and
    read by :func:`bandwidth_feasible`, :func:`bandwidth_overflow` and
    :class:`RoutingWatch`, so the swap search's early exit and the final
    verdict apply the same numbers.

    Attributes:
        index: the topology's :func:`~repro.routing.loads.edge_index`.
        net, core: ids of the constrained switch-to-switch edges (in
            ``net_edges()`` order) and terminal edges (in
            ``core_edges()`` order; empty when unconstrained).
        divisor: per edge id, the parallel-channel count its load is
            divided by for the per-channel check (1 for single
            channels and terminal links).
        limit: per edge id, the largest feasible per-channel load (the
            capacity plus a 1e-9 tolerance); ``inf`` if unconstrained.
        capacity: per edge id, the edge's total capacity over all its
            channels (what :func:`bandwidth_overflow` charges against).
    """

    __slots__ = ("index", "net", "core", "divisor", "limit", "capacity")

    def __init__(self, topology: Topology, constraints: Constraints):
        self.index = index = edge_index(topology)
        ids = index[0]
        n = len(index[1])
        self.divisor = [1] * n
        self.limit = [math.inf] * n
        self.capacity = [math.inf] * n
        cap = constraints.link_capacity_mb_s
        mults = topology.channel_multiplicities() or {}
        self.net = [ids[edge] for edge in topology.net_edges()]
        for edge, eid in zip(topology.net_edges(), self.net):
            mult = mults.get(edge, 1)
            self.divisor[eid] = mult
            self.limit[eid] = cap + 1e-9
            self.capacity[eid] = cap * mult
        core_cap = constraints.core_link_capacity_mb_s
        if topology.constrain_core_links and core_cap is None:
            core_cap = cap
        self.core = []
        if core_cap is not None:
            self.core = [ids[edge] for edge in topology.core_edges()]
            for eid in self.core:
                self.limit[eid] = core_cap + 1e-9
                self.capacity[eid] = core_cap


def capacity_table(
    topology: Topology, constraints: Constraints
) -> CapacityTable:
    """The :class:`CapacityTable` of ``topology`` under ``constraints``
    (kept in the topology's ``derived("capacity")`` table)."""
    cache = topology.derived("capacity")
    key = (constraints.link_capacity_mb_s, constraints.core_link_capacity_mb_s)
    table = cache.get(key)
    if table is None:
        table = cache[key] = CapacityTable(topology, constraints)
    return table


def bandwidth_feasible(
    result: RoutingResult, topology: Topology, constraints: Constraints
) -> tuple[bool, float]:
    """Check link loads against capacities.

    Returns ``(feasible, max_constrained_load)``. Fabrics with parallel
    channels (custom topologies with repeated link pairs) are checked on
    the worst *per-channel* load: an edge with multiplicity ``m``
    carries ``m`` times the single-link capacity.
    """
    table = capacity_table(topology, constraints)
    load = result.loads.by_index(table.index)
    divisor = table.divisor
    limit = table.limit
    feasible = True
    max_load = 0.0
    for eids in (table.net, table.core):
        for eid in eids:
            value = load[eid] / divisor[eid]
            if value > limit[eid]:
                feasible = False
            if value > max_load:
                max_load = value
    return feasible, max_load


def qos_feasible(
    result: RoutingResult, constraints: Constraints
) -> tuple[bool, list]:
    """Check the per-flow hop bound (QoS guarantee).

    Returns ``(feasible, violations)`` where each violation is
    ``(src_slot, dst_slot, worst_hops)``.
    """
    bound = constraints.max_flow_hops
    if bound is None:
        return True, []
    violations = []
    for rc in result.routed:
        worst = rc.worst_hops()
        if worst > bound:
            violations.append((rc.src_slot, rc.dst_slot, worst))
    return not violations, violations


def bandwidth_overflow(
    result: RoutingResult, topology: Topology, constraints: Constraints
) -> float:
    """Total excess load over capacity, summed across constrained links.

    Zero iff the mapping is bandwidth-feasible. Smoother than the max
    link load, it gives the swap search a gradient across plateaus where
    several placements share the same bottleneck (e.g. an unsplittable
    600 MB/s flow) but differ elsewhere.
    """
    table = capacity_table(topology, constraints)
    load = result.loads.by_index(table.index)
    capacity = table.capacity
    overflow = 0.0
    for eid in table.net:
        overflow += max(0.0, load[eid] - capacity[eid])
    if table.core:
        core = 0.0
        for eid in table.core:
            core += max(0.0, load[eid] - capacity[eid])
        overflow += core
    return overflow


class RoutingWatch:
    """Abandons a routing run once its mapping provably loses.

    The swap search (:mod:`repro.core.mapper`) passes one as the
    ``stop`` hook of :meth:`~repro.routing.base.RoutingFunction.route_all`
    for a candidate that must strictly beat an evaluation with sort key
    ``key`` (:meth:`~repro.core.evaluate.MappingEvaluation.sort_key`).
    Link loads and QoS violations only grow as commodities are added,
    so the watch stops the run:

    * against a feasible key, as soon as any constrained link exceeds
      its :class:`CapacityTable` limit or any flow its hop bound — the
      candidate is infeasible, and every infeasible mapping loses;
    * against an infeasible key ``(1, violations, overflow, …)``, once
      the candidate is infeasible and its partial ``(QoS violations,
      overflow)`` already beats the key's lexicographically. The
      running overflow sums per-edge excesses in touch order, so a
      small relative margin absorbs its rounding: a near-tie is never
      abandoned.
    """

    __slots__ = (
        "table", "max_hops", "feasible_key", "key_violations",
        "threshold", "violations", "violated", "overflow", "excess",
    )

    def __init__(self, topology: Topology, constraints: Constraints, key):
        self.table = capacity_table(topology, constraints)
        self.max_hops = constraints.max_flow_hops
        self.feasible_key = key[0] == 0
        self.key_violations = key[1]
        #: ``beyond(overflow, key[2])`` is ``overflow > threshold``.
        self.threshold = key[2] + 1e-9 * max(1.0, abs(key[2]))
        self.violations = 0
        self.violated = False
        self.overflow = 0.0
        #: Per edge id, the excess already counted in ``overflow``.
        self.excess = None if self.feasible_key else (
            [0.0] * len(self.table.divisor)
        )

    def __call__(self, routes, loads) -> bool:
        # ``routes`` are one commodity's ``(path, bw, edge ids)``
        # triples; ``route_all``'s ledger is keyed by the topology's
        # edge ids.
        load = loads.by_edge_id
        table = self.table
        divisor = table.divisor
        limit = table.limit
        max_hops = self.max_hops
        if self.feasible_key:
            for _, _, eids in routes:
                for eid in eids:
                    if load[eid] / divisor[eid] > limit[eid]:
                        return True
            return max_hops is not None and worst_hops(routes) > max_hops
        violated = self.violated
        if max_hops is not None and worst_hops(routes) > max_hops:
            self.violations += 1
            violated = True
        capacity = table.capacity
        excess = self.excess
        overflow = self.overflow
        for _, _, eids in routes:
            for eid in eids:
                value = load[eid]
                if value / divisor[eid] > limit[eid]:
                    violated = True
                over = value - capacity[eid]
                if over > 0.0:
                    overflow += over - excess[eid]
                    excess[eid] = over
        self.overflow = overflow
        self.violated = violated
        if not violated:
            return False
        if self.violations != self.key_violations:
            return self.violations > self.key_violations
        return overflow > self.threshold


def beyond(value: float, reference: float) -> bool:
    """Whether ``value`` exceeds ``reference`` by more than a 1e-9
    relative margin (the swap search's guard against rounding)."""
    return value > reference + 1e-9 * max(1.0, abs(reference))


def area_feasible(
    floorplan: FloorplanResult | None,
    design_area_mm2: float | None,
    constraints: Constraints,
) -> bool:
    """Check design area and chip aspect ratio."""
    if floorplan is None:
        return True  # fast mode: area constraints deferred
    if floorplan.aspect_ratio > constraints.max_chip_aspect + 1e-6:
        return False
    if constraints.max_area_mm2 is not None:
        area = design_area_mm2 if design_area_mm2 is not None else floorplan.area_mm2
        if area > constraints.max_area_mm2 + 1e-9:
            return False
    return True
