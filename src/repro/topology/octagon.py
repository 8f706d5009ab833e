"""Octagon topology (extension; [6] F. Karim et al., DAC 2001).

Eight switches arranged in a ring with four cross links between opposite
nodes, giving a maximum of two network hops (three switches) between any
pair. The paper lists the octagon as an example of a topology that "can
be easily added to the topology library" — this module is that addition.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.topology.base import Topology, switch, term
from repro.topology.graph import TopologyGraph

#: Placement of the eight octagon nodes on a 3x3 grid perimeter.
_RING_POSITIONS = [
    (0.0, 0.0),
    (1.0, 0.0),
    (2.0, 0.0),
    (2.0, 1.0),
    (2.0, 2.0),
    (1.0, 2.0),
    (0.0, 2.0),
    (0.0, 1.0),
]


class OctagonTopology(Topology):
    """Single octagon: 8 slots, ring + cross links."""

    kind = "direct"

    NUM_NODES = 8

    def __init__(self, name: str | None = None):
        super().__init__(name or "octagon")

    @classmethod
    def for_cores(cls, n_cores: int, **kwargs) -> "OctagonTopology":
        if n_cores < 2:
            raise TopologyError("need at least 2 cores")
        if n_cores > cls.NUM_NODES:
            raise TopologyError(
                f"a single octagon hosts at most {cls.NUM_NODES} cores"
            )
        return cls(**kwargs)

    @property
    def num_slots(self) -> int:
        return self.NUM_NODES

    def _build(self) -> TopologyGraph:
        g = TopologyGraph()
        for i in range(self.NUM_NODES):
            g.add_edge(term(i), switch(i), kind="core")
            g.add_edge(switch(i), term(i), kind="core")
        pairs = [(i, (i + 1) % self.NUM_NODES) for i in range(self.NUM_NODES)]
        pairs += [(i, i + 4) for i in range(4)]  # cross links
        for i, j in pairs:
            g.add_edge(switch(i), switch(j), kind="net")
            g.add_edge(switch(j), switch(i), kind="net")
        return g

    def position(self, node) -> tuple[float, float]:
        return _RING_POSITIONS[node[1]]
