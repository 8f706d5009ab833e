"""Traffic-splitting routing functions (SM and SA).

A commodity is divided into equal chunks routed sequentially; each chunk's
traffic is recorded before the next chunk searches, so chunks naturally
fan out over parallel paths. Chunks that end up on the same path are
merged in the result.

* ``SM`` (split across minimum paths) searches the quadrant graph with
  hop-dominant weights: chunks spread over the *minimum* paths only.
* ``SA`` (split across all paths) searches the whole topology graph with
  load-dominant weights: chunks may take longer detours to flatten load.

With these two, MPEG4's 910 MB/s SDRAM flow fits under 500 MB/s links
(455 MB/s per half), which is why only split routing maps MPEG4 in
Section 6.1 / Figure 9(a).
"""

from __future__ import annotations

from repro.routing.base import RoutingFunction
from repro.routing.loads import EdgeLoads
from repro.routing.shortest import (
    _dijkstra_min_hop,
    hop_scale,
    load_then_hops,
    topology_search,
)
from repro.topology.base import Topology

#: Default number of chunks a commodity is split into.
DEFAULT_CHUNKS = 4


def _merge(
    paths: list[tuple[list, float, list[int]]]
) -> list[tuple[list, float, list[int]]]:
    """Merge duplicate ``(path, bw, edge ids)`` chunks, preserving
    first-seen order.

    A linear scan over a commodity's handful of chunks. Chunks share a
    source node, so two are the same path exactly when their edge-id
    lists are equal — an integer comparison, no node tuples involved.
    """
    merged: list[list] = []
    for path, bw, eids in paths:
        for entry in merged:
            if entry[2] == eids:
                break
        else:
            entry = [path, 0.0, eids]
            merged.append(entry)
        entry[1] += bw
    return [(path, bw, eids) for path, bw, eids in merged]


class _SplitRouting(RoutingFunction):
    """Chunk count shared by SM and SA."""

    def __init__(self, chunks: int = DEFAULT_CHUNKS):
        if chunks < 1:
            raise ValueError("chunks must be >= 1")
        self.chunks = chunks


class SplitMinPathRouting(_SplitRouting):
    """Paper routing function "SM": split across minimum paths."""

    code = "SM"
    name = "split-traffic-minimum-paths"

    def route_commodity(
        self,
        topology: Topology,
        src_slot: int,
        dst_slot: int,
        value: float,
        loads: EdgeLoads,
    ) -> list[tuple[list, float, list[int]]]:
        # Hop count dominates SM's weight, so a quadrant with a single
        # minimum-hop path forces every chunk onto it: record all the
        # chunks in one ledger pass (the ledger accumulates exactly as
        # in the per-chunk search) and return them merged, their
        # bandwidth summed as _merge sums it.
        search = topology_search(topology, src_slot, dst_slot)
        loads.bind(search.index)
        chunk_bw = value / self.chunks
        if search.unique is not None:
            loads.add_chunks(search.unique_eids, chunk_bw, self.chunks)
            merged = 0.0
            for _ in range(self.chunks):
                merged += chunk_bw
            return [(search.unique, merged, search.unique_eids)]
        load = loads.by_edge_id
        # With a load bound the scale is a constant of the slot pair.
        fixed = loads.load_bound is not None
        scale = hop_scale(loads, chunk_bw, search.num_nodes)
        paths = []
        for chunk in range(self.chunks):
            if chunk and not fixed:
                scale = hop_scale(loads, chunk_bw, search.num_nodes)
            path, eids = _dijkstra_min_hop(search, load, scale)
            loads.add_path(path, chunk_bw, eids)
            paths.append((path, chunk_bw, eids))
        return _merge(paths)


class SplitAllPathRouting(_SplitRouting):
    """Paper routing function "SA": split across all paths."""

    code = "SA"
    name = "split-traffic-all-paths"

    def __init__(self, chunks: int = 2 * DEFAULT_CHUNKS):
        super().__init__(chunks)

    def route_commodity(
        self,
        topology: Topology,
        src_slot: int,
        dst_slot: int,
        value: float,
        loads: EdgeLoads,
    ) -> list[tuple[list, float, list[int]]]:
        search = topology_search(topology, src_slot, dst_slot, quadrant=False)
        loads.bind(search.index)
        chunk_bw = value / self.chunks
        paths = []
        for _ in range(self.chunks):
            path, eids = load_then_hops(search, loads, chunk_bw)
            loads.add_path(path, chunk_bw, eids)
            paths.append((path, chunk_bw, eids))
        return _merge(paths)
