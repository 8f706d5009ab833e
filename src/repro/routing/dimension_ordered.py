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
from repro.routing.loads import EdgeLoads
from repro.topology.base import Topology


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
    ) -> list[tuple[list, float]]:
        path = topology.dor_path(src_slot, dst_slot)
        loads.add_path(path, value)
        return [(path, value)]
