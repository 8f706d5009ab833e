"""3-stage Clos topology (Figure 2(a) of the paper).

``Clos(m, n, r)``: *r* ingress switches each concentrating *n* cores,
*m* middle switches, *r* egress switches. Every switch of a stage connects
to every switch of the next stage, so any of the *m* middle switches can
carry any commodity — the "maximum path diversity" that makes Clos the
winner for the network-processor application (Section 6.2).

Every route traverses exactly three switches (ingress -> middle -> egress),
including core pairs sharing an ingress switch, matching the paper's
"average hop delay is three".

Default sizing for *N* cores mirrors Figure 2(a) (four switches per stage
for 8 cores): ``n = ceil(N/4)``, ``r = ceil(N/n)``, ``m = min(r, 2n)``.
"""

from __future__ import annotations

import math

from repro.errors import TopologyError
from repro.topology.base import Topology, switch, term
from repro.topology.graph import TopologyGraph

#: x-coordinates (tile pitches) of the terminal / stage columns used for
#: the floorplan-free length estimates.
_STAGE_PITCH = 1.5


class ClosTopology(Topology):
    """Symmetric 3-stage Clos network ``Clos(m, n, r)``."""

    kind = "indirect"

    def __init__(self, m: int, n: int, r: int, name: str | None = None):
        if m < 1 or n < 1 or r < 1:
            raise TopologyError("Clos parameters must be positive")
        if n * r < 2:
            raise TopologyError("Clos must host at least 2 cores")
        self.m = m
        self.n = n
        self.r = r
        super().__init__(name or f"clos-m{m}n{n}r{r}")

    @classmethod
    def for_cores(cls, n_cores: int, **kwargs) -> "ClosTopology":
        """Paper-style sizing: about four edge switches per stage."""
        if n_cores < 2:
            raise TopologyError("need at least 2 cores")
        n = max(1, math.ceil(n_cores / 4))
        r = math.ceil(n_cores / n)
        m = max(2, min(r, 2 * n))
        return cls(m=m, n=n, r=r, **kwargs)

    @property
    def num_slots(self) -> int:
        return self.n * self.r

    # ------------------------------------------------------------------
    def ingress_of(self, slot: int):
        return switch(("in", slot // self.n))

    def egress_of(self, slot: int):
        return switch(("out", slot // self.n))

    def stages(self) -> list[list]:
        """Switch columns, left to right (used by the floorplanner)."""
        return [
            [switch(("in", i)) for i in range(self.r)],
            [switch(("mid", j)) for j in range(self.m)],
            [switch(("out", k)) for k in range(self.r)],
        ]

    def _build(self) -> TopologyGraph:
        g = TopologyGraph()
        for t in range(self.num_slots):
            g.add_edge(term(t), self.ingress_of(t), kind="core")
            g.add_edge(self.egress_of(t), term(t), kind="core")
        for i in range(self.r):
            for j in range(self.m):
                g.add_edge(
                    switch(("in", i)), switch(("mid", j)), kind="net"
                )
        for j in range(self.m):
            for k in range(self.r):
                g.add_edge(
                    switch(("mid", j)), switch(("out", k)), kind="net"
                )
        return g

    def position(self, node) -> tuple[float, float]:
        height = float(self.num_slots)
        if node[0] == "term":
            return (0.0, float(node[1]))
        stage, idx = node[1]
        col = {"in": 1, "mid": 2, "out": 3}[stage]
        count = self.m if stage == "mid" else self.r
        y = (idx + 0.5) * height / count
        return (col * _STAGE_PITCH, y)

    # ------------------------------------------------------------------
    def quadrant_nodes(self, src_slot: int, dst_slot: int) -> set:
        """Trivial quadrant: ingress of source, all middles, egress of dest.

        Full inter-stage connectivity means every middle switch lies on a
        minimum path (Section 4.3: "quadrant graph formation for these
        networks is trivial").
        """
        nodes = {self.ingress_of(src_slot), self.egress_of(dst_slot)}
        nodes.update(switch(("mid", j)) for j in range(self.m))
        nodes.add(term(src_slot))
        nodes.add(term(dst_slot))
        return nodes
