"""2-D torus topology (Figure 1(b) of the paper).

A torus is a mesh with additional wrap-around channels between opposite
edge nodes, so *every* switch has four neighbours (5x5 with the core port).
The extra links buy shorter average distance at the price of larger
switches and long wrap wires — exactly the trade-off the paper's VOPD
example quantifies (torus: 10% lower delay, mesh: 20% lower power).

Wrap-around links are given a physical length of ``dimension - 1`` tile
pitches in the floorplan-free estimate (non-folded layout); when the LP
floorplanner runs, lengths are measured from actual block positions.
"""

from __future__ import annotations

from repro.topology.base import switch, term
from repro.topology.graph import TopologyGraph
from repro.topology.mesh import MeshTopology


def cyclic_arc(a: int, b: int, size: int, wraps: bool) -> list[int]:
    """Coordinates walking from ``a`` to ``b`` along the shorter arc.

    The returned list starts at ``a``, ends at ``b`` and is ordered in
    travel direction. When both arcs tie, or when ``wraps`` is False (the
    dimension has no wrap channel), the direct non-wrapping arc is used.
    """
    if a == b:
        return [a]
    if not wraps:
        step = 1 if b > a else -1
        return list(range(a, b + step, step))
    forward = (b - a) % size
    backward = (a - b) % size
    if forward < backward or (forward == backward and b > a):
        return [(a + s) % size for s in range(forward + 1)]
    return [(a - s) % size for s in range(backward + 1)]


class TorusTopology(MeshTopology):
    """``rows x cols`` 2-D torus (mesh plus wrap-around channels)."""

    def __init__(self, rows: int, cols: int, name: str | None = None):
        super().__init__(rows, cols, name=name or f"torus-{rows}x{cols}")

    @property
    def _row_wraps(self) -> bool:
        # A wrap channel on a dimension of size <= 2 would duplicate an
        # existing mesh link, so it is omitted.
        return self.rows > 2

    @property
    def _col_wraps(self) -> bool:
        return self.cols > 2

    def _build(self) -> TopologyGraph:
        g = super()._build()
        if self._row_wraps:
            for c in range(self.cols):
                i = self.cell_slot(0, c)
                j = self.cell_slot(self.rows - 1, c)
                length = float(self.rows - 1)
                g.add_edge(
                    switch(i), switch(j), kind="net", length=length, wrap=True
                )
                g.add_edge(
                    switch(j), switch(i), kind="net", length=length, wrap=True
                )
        if self._col_wraps:
            for r in range(self.rows):
                i = self.cell_slot(r, 0)
                j = self.cell_slot(r, self.cols - 1)
                length = float(self.cols - 1)
                g.add_edge(
                    switch(i), switch(j), kind="net", length=length, wrap=True
                )
                g.add_edge(
                    switch(j), switch(i), kind="net", length=length, wrap=True
                )
        return g

    # ------------------------------------------------------------------
    def quadrant_nodes(self, src_slot: int, dst_slot: int) -> set:
        """Smallest bounding box considering wrap-around channels.

        Per dimension the quadrant keeps the coordinates on the shorter
        cyclic arc between source and destination (Section 4.3's torus
        refinement of the mesh bounding box, Figure 3(c) shading).
        """
        r0, c0 = self.slot_cell(src_slot)
        r1, c1 = self.slot_cell(dst_slot)
        rows = cyclic_arc(r0, r1, self.rows, self._row_wraps)
        cols = cyclic_arc(c0, c1, self.cols, self._col_wraps)
        nodes = {switch(self.cell_slot(r, c)) for r in rows for c in cols}
        nodes.add(term(src_slot))
        nodes.add(term(dst_slot))
        return nodes

    def dor_path(self, src_slot: int, dst_slot: int) -> list:
        """XY routing taking the shorter cyclic direction per dimension."""
        r0, c0 = self.slot_cell(src_slot)
        r1, c1 = self.slot_cell(dst_slot)
        path = [term(src_slot), switch(src_slot)]
        r = r0
        for c in cyclic_arc(c0, c1, self.cols, self._col_wraps)[1:]:
            path.append(switch(self.cell_slot(r, c)))
        c = c1
        for r in cyclic_arc(r0, r1, self.rows, self._row_wraps)[1:]:
            path.append(switch(self.cell_slot(r, c)))
        path.append(term(dst_slot))
        return path
