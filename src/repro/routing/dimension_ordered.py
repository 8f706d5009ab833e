"""Dimension-ordered (DO) routing.

Fully deterministic: each commodity follows the single path produced by
resolving topology dimensions in a fixed order (XY on mesh/torus, e-cube
on hypercube, destination-tag on a butterfly). No load awareness — which
is why DO needs the largest link bandwidth in Figure 9(a).

Topologies without a dimension order (e.g. Clos) raise
:class:`~repro.errors.UnsupportedRoutingError`; the selector reports the
combination as unsupported.
"""

from __future__ import annotations

from repro.routing.base import RoutingFunction
from repro.routing.loads import EdgeLoads, edge_index
from repro.topology.base import Topology


def dor_route(topology: Topology, src_slot: int, dst_slot: int):
    """``(path, edge ids)`` of a slot pair's dimension-ordered route.

    Kept in the topology's ``derived("dor")`` table like the interned
    search graphs: the route depends on the slot pair alone. The path
    and edge ids are read-only; ``route_all`` copies the path into a
    finished run's result.
    """
    cache = topology.derived("dor")
    key = (src_slot, dst_slot)
    route = cache.get(key)
    if route is None:
        path = topology.dor_path(src_slot, dst_slot)
        ids = edge_index(topology)[0]
        route = cache[key] = (
            path, [ids[edge] for edge in zip(path, path[1:])]
        )
    return route


class DimensionOrderedRouting(RoutingFunction):
    """Paper routing function "DO"."""

    code = "DO"
    name = "dimension-ordered"

    def route_commodity(
        self,
        topology: Topology,
        src_slot: int,
        dst_slot: int,
        value: float,
        loads: EdgeLoads,
    ) -> list[tuple[list, float, list[int]]]:
        path, eids = dor_route(topology, src_slot, dst_slot)
        loads.bind(edge_index(topology))
        loads.add_path(path, value, eids)
        return [(path, value, eids)]
