"""Minimum-path (MP) routing — Figure 5, steps 3-6.

For each commodity, a quadrant graph between source and destination is
formed (the minimum paths all lie inside it, Section 4.3) and Dijkstra
finds the minimum-hop path with the least accumulated traffic. The
commodity's full bandwidth then loads that path, steering subsequent
commodities elsewhere.

Running Dijkstra on the quadrant instead of the whole NoC graph is the
paper's main computational saving (Section 4.1);
``tests/paper/test_substrate_claims.py`` checks it against the
whole-graph search, ``topology_search(..., quadrant=False)``.
"""

from __future__ import annotations

from repro.routing.base import RoutingFunction
from repro.routing.loads import EdgeLoads
from repro.routing.shortest import (
    _dijkstra_min_hop,
    hop_scale,
    topology_search,
)
from repro.topology.base import Topology


class MinimumPathRouting(RoutingFunction):
    """Paper routing function "MP"."""

    code = "MP"
    name = "minimum-path"

    def route_commodity(
        self,
        topology: Topology,
        src_slot: int,
        dst_slot: int,
        value: float,
        loads: EdgeLoads,
    ) -> list[tuple[list, float, list[int]]]:
        # One cached lookup resolves either the pair's forced minimum
        # path or the interned graph for the load-aware search.
        search = topology_search(topology, src_slot, dst_slot)
        loads.bind(search.index)
        if search.unique is not None:
            path, eids = search.unique, search.unique_eids
        else:
            scale = hop_scale(loads, value, search.num_nodes)
            path, eids = _dijkstra_min_hop(search, loads.by_edge_id, scale)
        loads.add_path(path, value, eids)
        return [(path, value, eids)]
