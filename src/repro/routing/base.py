"""Routing-function interface and result containers.

A routing function turns one commodity (source slot, destination slot,
bandwidth) into one or more weighted paths through the topology graph,
updating the shared :class:`~repro.routing.loads.EdgeLoads` ledger as it
goes so later commodities (and later chunks of the same commodity) steer
around accumulated traffic — the mechanism of Figure 5, steps 3-6.

The four functions the paper supports (Section 1, Figure 9(a)):

* ``DO`` — dimension ordered: one deterministic dimension-by-dimension path.
* ``MP`` — minimum path: least-loaded minimum path (Dijkstra on the
  quadrant graph).
* ``SM`` — split traffic across minimum paths.
* ``SA`` — split traffic across all paths (may leave the quadrant).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from operator import mul

from repro.core.coregraph import Commodity
from repro.routing.loads import EdgeLoads, edge_index
from repro.topology.base import Topology


@dataclass
class RoutedCommodity:
    """Routing outcome for one commodity.

    ``paths`` holds ``(node_path, bandwidth)`` pairs whose bandwidths sum
    to the commodity value (a single pair for unsplit routing). Every
    path runs from the source terminal to the destination terminal
    through switches only.

    ``edge_ids`` runs parallel to ``paths``: each path's edge ids in the
    topology's :func:`~repro.routing.loads.edge_index`, as the routing
    function produced them. They are working data: pickling drops them
    (so a stored evaluation's bytes do not depend on them), an
    unpickled commodity reads ``None``, and so does one whose mapping
    evaluation has finished. They take no part in equality or ``repr``.
    """

    commodity: Commodity
    src_slot: int
    dst_slot: int
    paths: list[tuple[list, float]] = field(default_factory=list)
    edge_ids: list[list[int]] | None = field(
        default=None, compare=False, repr=False
    )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("edge_ids", None)
        return state

    @property
    def hops(self) -> float:
        """Bandwidth-weighted switch count over this commodity's paths
        (a path's switches are all its nodes but the two terminals),
        exact when the paths share one length, as under MP, SM and DO."""
        if self.commodity.value <= 0:
            return 0.0
        lengths = {len(path) for path, _ in self.paths}
        if len(lengths) == 1:
            return float(lengths.pop() - 2)
        total = 0
        for path, bw in self.paths:
            total = total + bw * (len(path) - 2)
        return total / self.commodity.value

    def worst_hops(self) -> int:
        """Switch count of this commodity's longest path."""
        return worst_hops(self.paths)

    def validate_conservation(self, tol: float = 1e-6) -> bool:
        routed = sum(bw for _, bw in self.paths)
        return abs(routed - self.commodity.value) <= tol * max(
            1.0, self.commodity.value
        )


def worst_hops(routes) -> int:
    """Switch count of the longest path among ``routes``, tuples that
    start with a node path (``RoutedCommodity.paths`` pairs or
    ``route_commodity`` triples)."""
    return max((len(route[0]) - 2 for route in routes), default=0)


def ledger_load_bound(
    topology: Topology, commodities: list[Commodity]
) -> float:
    """Upper bound on any single edge load over a whole routing run.

    Every edge's load is part of the final ledger total, which is at
    most the summed commodity bandwidth times the longest loop-free path
    (fewer edges than topology graph nodes). The bound is a pure
    function of (application, topology) — identical for every mapping
    of the same pair — which is what lets ``hop_scale`` stay constant
    across evaluations (see :mod:`repro.routing.shortest`).
    """
    total = 0.0
    for c in commodities:
        total += c.value
    return total * topology.graph.number_of_nodes()


def average_hops(hops: list, values: list) -> float:
    """The ``values``-weighted average of per-commodity ``hops``: the
    one expression routing's ``avg_hops`` and the swap search's replay
    of it share, so equal lists give equal bits on every Python."""
    total = sum(values)
    if total <= 0:
        return 0.0
    return sum(map(mul, hops, values)) / total


@dataclass
class RoutingResult:
    """All commodities of a mapping, routed."""

    routed: list[RoutedCommodity]
    loads: EdgeLoads

    def all_paths(self) -> list[list]:
        return [path for rc in self.routed for path, _ in rc.paths]

    def weighted_average_hops(self) -> float:
        """Average communication hop delay, weighted by bandwidth.

        This is the paper's "avg hops" performance metric (Figures 3(d),
        6(a), 7(b)).
        """
        return average_hops(
            [rc.hops for rc in self.routed],
            [rc.commodity.value for rc in self.routed],
        )

    def max_link_load(self, topology: Topology) -> float:
        """Heaviest constrained-link load — the minimum feasible link
        bandwidth of this routing (Figure 9(a) metric). Parallel
        channels divide their edge's load (per-channel semantics)."""
        edges = topology.net_edges()
        if topology.constrain_core_links:
            edges = edges + topology.core_edges()
        return self.loads.max_load(
            edges, divisors=topology.channel_multiplicities()
        )


class RoutingFunction(ABC):
    """Base class for the four routing functions."""

    #: Short code used in tables and the CLI ("DO", "MP", "SM", "SA").
    code: str = "?"
    #: Human-readable name.
    name: str = "?"

    @abstractmethod
    def route_commodity(
        self,
        topology: Topology,
        src_slot: int,
        dst_slot: int,
        value: float,
        loads: EdgeLoads,
    ) -> list[tuple[list, float, list[int]]]:
        """Route one commodity and **record its traffic in ``loads``**.

        Returns ``(path, bandwidth, edge ids)`` triples whose bandwidths
        sum to ``value``; the edge ids are the path's ids in
        ``edge_index(topology)``. The method must call
        ``loads.add_path`` itself so that multi-chunk routing sees its
        own earlier chunks. The paths and edge-id lists may be the
        topology's interned ones and are read-only: ``route_all``
        copies the paths into a finished run's result.
        """

    def route_all(
        self,
        topology: Topology,
        slot_of: dict[int, int],
        commodities: list[Commodity],
        stop=None,
    ) -> RoutingResult | None:
        """Route every commodity in the given (already sorted) order.

        Args:
            topology: target NoC.
            slot_of: core index -> terminal slot (the mapping function).
            commodities: commodities in decreasing value order (Figure 5,
                step 2).
            stop: optional ``stop(routes, loads) -> bool``, asked after
                each commodity with its :meth:`route_commodity` triples
                (read-only); ``True`` abandons the run and ``route_all``
                returns ``None`` (the swap search's early exit for a
                candidate that provably loses, see
                :class:`~repro.core.constraints.RoutingWatch`).

        The :class:`RoutedCommodity` records are built only once every
        commodity is routed, so an abandoned run builds none.
        """
        loads = EdgeLoads(edge_index(topology))
        loads.load_bound = ledger_load_bound(topology, commodities)
        route_commodity = self.route_commodity
        runs = []
        for c in commodities:
            src = slot_of[c.src]
            dst = slot_of[c.dst]
            routes = route_commodity(topology, src, dst, c.value, loads)
            if stop is not None and stop(routes, loads):
                return None
            runs.append((c, src, dst, routes))
        routed = [
            RoutedCommodity(
                commodity=c,
                src_slot=src,
                dst_slot=dst,
                paths=[(list(path), bw) for path, bw, _ in routes],
                edge_ids=[eids for _, _, eids in routes],
            )
            for c, src, dst, routes in runs
        ]
        return RoutingResult(routed=routed, loads=loads)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.code})"
