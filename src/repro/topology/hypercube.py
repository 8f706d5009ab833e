"""Hypercube topology — 2-ary n-cube (Figure 1(c) of the paper).

A node is identified by the n-tuple of bits of its index; two nodes are
adjacent iff their tuples differ in exactly one position. The quadrant
graph of a commodity is the subcube spanned by the dimensions on which the
source and destination disagree (Section 4.3): every node matching the
agreed bits lies on some minimum path.

For floorplanning, the cube is embedded in a 2-D grid by splitting the
address bits between x (low half) and y (high half).
"""

from __future__ import annotations

import math

from repro.errors import TopologyError
from repro.topology.base import Topology, switch, term
from repro.topology.graph import TopologyGraph


class HypercubeTopology(Topology):
    """2-ary ``n``-cube with ``2**n`` slots, one core slot per switch."""

    kind = "direct"

    def __init__(self, dimensions: int, name: str | None = None):
        if dimensions < 1:
            raise TopologyError("hypercube needs at least 1 dimension")
        self.dimensions = dimensions
        self._xbits = (dimensions + 1) // 2
        super().__init__(name or f"hypercube-{dimensions}d")

    @classmethod
    def for_cores(cls, n_cores: int, **kwargs) -> "HypercubeTopology":
        """Smallest cube with at least ``n_cores`` nodes."""
        if n_cores < 2:
            raise TopologyError("need at least 2 cores")
        return cls(max(1, math.ceil(math.log2(n_cores))), **kwargs)

    @property
    def num_slots(self) -> int:
        return 1 << self.dimensions

    # ------------------------------------------------------------------
    def _build(self) -> TopologyGraph:
        g = TopologyGraph()
        for i in range(self.num_slots):
            g.add_edge(term(i), switch(i), kind="core")
            g.add_edge(switch(i), term(i), kind="core")
        for i in range(self.num_slots):
            for bit in range(self.dimensions):
                j = i ^ (1 << bit)
                if j > i:
                    g.add_edge(switch(i), switch(j), kind="net")
                    g.add_edge(switch(j), switch(i), kind="net")
        return g

    def position(self, node) -> tuple[float, float]:
        i = node[1]
        x = i & ((1 << self._xbits) - 1)
        y = i >> self._xbits
        return (float(x), float(y))

    # ------------------------------------------------------------------
    def quadrant_nodes(self, src_slot: int, dst_slot: int) -> set:
        """Subcube fixing the bits on which source and destination agree.

        Example (paper, Section 4.3): source 0 = (0,0,0), destination
        3 = (0,1,1) → all nodes of the form (0,*,*), i.e. {0, 1, 2, 3}.
        """
        same_mask = ~(src_slot ^ dst_slot) & (self.num_slots - 1)
        anchor = src_slot & same_mask
        nodes = {
            switch(j)
            for j in range(self.num_slots)
            if (j & same_mask) == anchor
        }
        nodes.add(term(src_slot))
        nodes.add(term(dst_slot))
        return nodes

    def dor_path(self, src_slot: int, dst_slot: int) -> list:
        """E-cube routing: correct differing bits lowest-first."""
        path = [term(src_slot), switch(src_slot)]
        cur = src_slot
        for bit in range(self.dimensions):
            if (cur ^ dst_slot) & (1 << bit):
                cur ^= 1 << bit
                path.append(switch(cur))
        path.append(term(dst_slot))
        return path
