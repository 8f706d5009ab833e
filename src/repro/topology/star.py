"""Star topology (extension; [10] S.J. Lee et al., ISSCC 2003).

A single central switch connects every core directly: one switch hop for
all pairs, at the cost of an N x N crossbar whose area and power grow
quadratically — the selection engine therefore only ever prefers a star
for small designs or pure-latency objectives, which is the realistic
behaviour of the ISSCC'03 star-connected network.

Because a star has no switch-to-switch links, its terminal links *are* the
network channels, so (unlike the other topologies) bandwidth constraints
are applied to them (``constrain_core_links = True``).
"""

from __future__ import annotations

import math

from repro.errors import TopologyError
from repro.topology.base import Topology, switch, term
from repro.topology.graph import TopologyGraph


class StarTopology(Topology):
    """Single-hub star with ``num_leaves`` terminal slots."""

    kind = "direct"
    constrain_core_links = True

    def __init__(self, num_leaves: int, name: str | None = None):
        if num_leaves < 2:
            raise TopologyError("star needs at least 2 leaves")
        self.num_leaves = num_leaves
        super().__init__(name or f"star-{num_leaves}")

    @classmethod
    def for_cores(cls, n_cores: int, **kwargs) -> "StarTopology":
        if n_cores < 2:
            raise TopologyError("need at least 2 cores")
        return cls(n_cores, **kwargs)

    @property
    def num_slots(self) -> int:
        return self.num_leaves

    @property
    def hub(self):
        return switch("hub")

    def _build(self) -> TopologyGraph:
        g = TopologyGraph()
        for i in range(self.num_leaves):
            g.add_edge(term(i), self.hub, kind="core")
            g.add_edge(self.hub, term(i), kind="core")
        return g

    def dor_path(self, src_slot: int, dst_slot: int) -> list:
        """The only route: through the hub."""
        return [term(src_slot), self.hub, term(dst_slot)]

    def position(self, node) -> tuple[float, float]:
        side = max(1, math.ceil(math.sqrt(self.num_leaves + 1)))
        if node[0] == "sw":
            return (side / 2.0, side / 2.0)
        i = node[1]
        return (float(i % side), float(i // side))
