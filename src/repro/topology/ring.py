"""Bidirectional ring topology (extension; Proteo-style [9]).

Each switch connects to its two ring neighbours and one core. The quadrant
graph of a commodity is the shorter arc between source and destination.
"""

from __future__ import annotations

import math

from repro.errors import TopologyError
from repro.topology.base import Topology, switch, term
from repro.topology.graph import TopologyGraph
from repro.topology.torus import cyclic_arc


class RingTopology(Topology):
    """Bidirectional ring of ``size`` switches, one core slot each."""

    kind = "direct"

    def __init__(self, size: int, name: str | None = None):
        if size < 3:
            raise TopologyError("ring needs at least 3 nodes")
        self.size = size
        super().__init__(name or f"ring-{size}")

    @classmethod
    def for_cores(cls, n_cores: int, **kwargs) -> "RingTopology":
        if n_cores < 3:
            raise TopologyError("a ring needs at least 3 cores")
        return cls(n_cores, **kwargs)

    @property
    def num_slots(self) -> int:
        return self.size

    def _build(self) -> TopologyGraph:
        g = TopologyGraph()
        for i in range(self.size):
            g.add_edge(term(i), switch(i), kind="core")
            g.add_edge(switch(i), term(i), kind="core")
        for i in range(self.size):
            j = (i + 1) % self.size
            wrap = j == 0  # dateline for deadlock-free VC assignment
            g.add_edge(switch(i), switch(j), kind="net", wrap=wrap)
            g.add_edge(switch(j), switch(i), kind="net", wrap=wrap)
        return g

    def position(self, node) -> tuple[float, float]:
        # Serpentine two-row layout keeps ring neighbours physically close.
        i = node[1]
        half = math.ceil(self.size / 2)
        if i < half:
            return (float(i), 0.0)
        return (float(self.size - 1 - i), 1.0)

    def quadrant_nodes(self, src_slot: int, dst_slot: int) -> set:
        arc = cyclic_arc(src_slot, dst_slot, self.size, wraps=True)
        nodes = {switch(i) for i in arc}
        nodes.add(term(src_slot))
        nodes.add(term(dst_slot))
        return nodes
