"""Butterfly topology — k-ary n-fly (Figure 2(b) of the paper).

A k-ary n-fly has ``k**n`` terminal slots served by *n* stages of
``k**(n-1)`` switches of radix *k*. Terminals inject on the left of stage
0 and eject on the right of stage n-1 (a unidirectional multistage
network), so every route traverses exactly *n* switches.

Wiring follows the classic distance-halving pattern: output port *p* of
switch *j* in stage *s* connects to the stage *s+1* switch whose base-k
label equals *j* with digit ``n-2-s`` replaced by *p*. Destination-tag
routing (choose digit ``n-1-s`` of the destination at stage *s*) then
yields the network's **unique** path between any terminal pair — the
absence of path diversity that disqualifies the butterfly for MPEG4
(Section 6.1).

Default sizing for *N* cores is a 2-stage fly with radix
``k = ceil(sqrt(N))``: the paper's 4-ary 2-fly for the 12-core VOPD and
the 3x3-switch network of the 6-core DSP filter (Figure 10(b)).
"""

from __future__ import annotations

import math

from repro.errors import TopologyError
from repro.topology.base import Topology, switch, term
from repro.topology.graph import TopologyGraph

_STAGE_PITCH = 1.5


class ButterflyTopology(Topology):
    """k-ary n-fly butterfly network."""

    kind = "indirect"

    def __init__(self, k: int, n: int, name: str | None = None):
        if k < 2:
            raise TopologyError("butterfly radix must be >= 2")
        if n < 1:
            raise TopologyError("butterfly needs at least one stage")
        self.k = k
        self.n = n
        super().__init__(name or f"butterfly-{k}ary{n}fly")

    @classmethod
    def for_cores(cls, n_cores: int, **kwargs) -> "ButterflyTopology":
        """Two-stage fly with the smallest radix covering ``n_cores``."""
        if n_cores < 2:
            raise TopologyError("need at least 2 cores")
        k = max(2, math.ceil(math.sqrt(n_cores)))
        return cls(k=k, n=2, **kwargs)

    @property
    def num_slots(self) -> int:
        return self.k**self.n

    @property
    def switches_per_stage(self) -> int:
        return self.k ** (self.n - 1)

    def stages(self) -> list[list]:
        """Switch columns, left to right (used by the floorplanner)."""
        return [
            [switch((s, j)) for j in range(self.switches_per_stage)]
            for s in range(self.n)
        ]

    # ------------------------------------------------------------------
    def _digit(self, x: int, i: int) -> int:
        return (x // self.k**i) % self.k

    def _replace_digit(self, x: int, i: int, p: int) -> int:
        return x + (p - self._digit(x, i)) * self.k**i

    def _next_switch(self, stage: int, label: int, port: int) -> int:
        """Stage ``stage+1`` switch reached from output ``port``."""
        return self._replace_digit(label, self.n - 2 - stage, port)

    def _build(self) -> TopologyGraph:
        g = TopologyGraph()
        for t in range(self.num_slots):
            g.add_edge(term(t), switch((0, t // self.k)), kind="core")
            g.add_edge(switch((self.n - 1, t // self.k)), term(t), kind="core")
        for s in range(self.n - 1):
            for j in range(self.switches_per_stage):
                for p in range(self.k):
                    g.add_edge(
                        switch((s, j)),
                        switch((s + 1, self._next_switch(s, j, p))),
                        kind="net",
                    )
        return g

    def position(self, node) -> tuple[float, float]:
        if node[0] == "term":
            t = node[1]
            group = t // self.k
            left = group < (self.switches_per_stage + 1) // 2
            x = 0.0 if left else (self.n + 1) * _STAGE_PITCH
            return (x, float(t))
        s, j = node[1]
        return ((s + 1) * _STAGE_PITCH, (j + 0.5) * self.k)

    # ------------------------------------------------------------------
    def unique_path(self, src_slot: int, dst_slot: int) -> list:
        """The single route between two terminals (destination-tag)."""
        path = [term(src_slot), switch((0, src_slot // self.k))]
        label = src_slot // self.k
        for s in range(self.n - 1):
            port = self._digit(dst_slot, self.n - 1 - s)
            label = self._next_switch(s, label, port)
            path.append(switch((s + 1, label)))
        path.append(term(dst_slot))
        return path

    def quadrant_nodes(self, src_slot: int, dst_slot: int) -> set:
        """The unique path — a butterfly offers no path diversity."""
        return set(self.unique_path(src_slot, dst_slot))

    def dor_path(self, src_slot: int, dst_slot: int) -> list:
        """Destination-tag routing *is* dimension-ordered on a fly."""
        return self.unique_path(src_slot, dst_slot)
