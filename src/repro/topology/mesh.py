"""2-D mesh topology (Figure 1(a) of the paper).

Every terminal slot has its own switch; switches connect to their north,
south, east and west neighbours. Port counts therefore vary with position:
a corner switch is 3x3 (two neighbours + the core), an edge switch 4x4 and
an interior switch 5x5 — this asymmetry is what makes the mesh cheaper than
the torus in area and power (Section 1, Figure 3(d) discussion).
"""

from __future__ import annotations

import math

from repro.errors import TopologyError
from repro.topology.base import Topology, switch, term
from repro.topology.graph import TopologyGraph


class MeshTopology(Topology):
    """``rows x cols`` 2-D mesh of switches, one core slot per switch."""

    kind = "direct"

    def __init__(self, rows: int, cols: int, name: str | None = None):
        if rows < 1 or cols < 1:
            raise TopologyError("mesh dimensions must be positive")
        if rows * cols < 2:
            raise TopologyError("mesh must have at least 2 nodes")
        self.rows = rows
        self.cols = cols
        super().__init__(name or f"mesh-{rows}x{cols}")

    # ------------------------------------------------------------------
    @classmethod
    def for_cores(cls, n_cores: int, **kwargs) -> "MeshTopology":
        """Smallest near-square mesh with at least ``n_cores`` slots."""
        if n_cores < 2:
            raise TopologyError("need at least 2 cores")
        rows = max(1, int(math.floor(math.sqrt(n_cores))))
        cols = int(math.ceil(n_cores / rows))
        return cls(rows, cols, **kwargs)

    @property
    def num_slots(self) -> int:
        return self.rows * self.cols

    def slot_cell(self, slot: int) -> tuple[int, int]:
        """(row, col) grid cell of a terminal slot."""
        if not 0 <= slot < self.num_slots:
            raise TopologyError(f"slot out of range: {slot}")
        return divmod(slot, self.cols)[0], slot % self.cols

    def cell_slot(self, row: int, col: int) -> int:
        return row * self.cols + col

    # ------------------------------------------------------------------
    def _build(self) -> TopologyGraph:
        g = TopologyGraph()
        for i in range(self.num_slots):
            g.add_edge(term(i), switch(i), kind="core")
            g.add_edge(switch(i), term(i), kind="core")
        for i in range(self.num_slots):
            r, c = self.slot_cell(i)
            for rr, cc in ((r, c + 1), (r + 1, c)):
                if rr < self.rows and cc < self.cols:
                    j = self.cell_slot(rr, cc)
                    g.add_edge(switch(i), switch(j), kind="net")
                    g.add_edge(switch(j), switch(i), kind="net")
        return g

    def position(self, node) -> tuple[float, float]:
        i = node[1]
        r, c = self.slot_cell(i)
        return (float(c), float(r))

    # ------------------------------------------------------------------
    def quadrant_nodes(self, src_slot: int, dst_slot: int) -> set:
        """Switches in the bounding box of source and destination.

        All monotone paths inside the box are minimum paths, so restricting
        Dijkstra to the box preserves optimality while shrinking the search
        (Section 4.3, Figure 3(b) shading).
        """
        r0, c0 = self.slot_cell(src_slot)
        r1, c1 = self.slot_cell(dst_slot)
        rows = range(min(r0, r1), max(r0, r1) + 1)
        cols = range(min(c0, c1), max(c0, c1) + 1)
        nodes = {switch(self.cell_slot(r, c)) for r in rows for c in cols}
        nodes.add(term(src_slot))
        nodes.add(term(dst_slot))
        return nodes

    def dor_path(self, src_slot: int, dst_slot: int) -> list:
        """XY dimension-ordered route: resolve columns first, then rows."""
        r0, c0 = self.slot_cell(src_slot)
        r1, c1 = self.slot_cell(dst_slot)
        path = [term(src_slot), switch(src_slot)]
        r, c = r0, c0
        while c != c1:
            c += 1 if c1 > c else -1
            path.append(switch(self.cell_slot(r, c)))
        while r != r1:
            r += 1 if r1 > r else -1
            path.append(switch(self.cell_slot(r, c)))
        path.append(term(dst_slot))
        return path
