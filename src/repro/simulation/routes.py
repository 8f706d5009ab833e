"""Routing tables for the simulator.

Deterministic, deadlock-safe next-hop tables per (node, destination slot):

* mesh / torus / hypercube / butterfly / star use their dimension-ordered
  (or unique) paths — the classic deadlock-free choices (torus and ring
  wrap links additionally switch packets to VC 1, the dateline scheme);
* Clos ingress switches hold *all* middle switches as candidates and the
  simulator picks one per packet (randomly, seeded) — the path diversity
  that Section 6.2's experiment rewards;
* anything else falls back to all shortest-path next hops.
"""

from __future__ import annotations

from repro.errors import UnsupportedRoutingError
from repro.routing.shortest import routing_view
from repro.topology.base import Topology, is_term, term
from repro.topology.graph import all_shortest_paths


class RouteTable:
    """Per-(node, destination) candidate next hops."""

    def __init__(self, topology: Topology, slots: list[int] | None = None):
        self.topology = topology
        self.slots = list(range(topology.num_slots)) if slots is None else slots
        self._table: dict[tuple, tuple] = {}
        self._build()

    def _build(self) -> None:
        candidates: dict[tuple, set] = {}
        for dst in self.slots:
            for src in self.slots:
                if src == dst:
                    continue
                # A pair the faults severed has no paths: it stays out of the
                # table (a packet for it raises UnsupportedRoutingError
                # at injection) instead of aborting the whole build.
                for path in self._paths(src, dst):
                    for a, b in zip(path, path[1:]):
                        if is_term(a):
                            continue  # injection handled by the terminal
                        candidates.setdefault((a, term(dst)), set()).add(b)
        self._table = {
            key: tuple(sorted(nexts, key=repr))
            for key, nexts in candidates.items()
        }

    def _paths(self, src: int, dst: int):
        try:
            yield self.topology.dor_path(src, dst)
            return
        except UnsupportedRoutingError:
            pass
        # Search the switch fabric plus the two endpoint terminals only:
        # routes must never pass *through* a third core's terminal, and
        # on a faulted fabric a terminal bounce can otherwise tie for
        # shortest (e.g. a butterfly terminal bridging the output stage
        # back to the input stage around a dead link).
        graph = self.topology.graph
        s, d = term(src), term(dst)
        yield from all_shortest_paths(graph, s, d, routing_view(graph, s, d))

    def candidates(self, node, dst_slot: int) -> tuple:
        """All legal next hops from ``node`` toward ``dst_slot``."""
        try:
            return self._table[(node, term(dst_slot))]
        except KeyError:
            raise UnsupportedRoutingError(
                f"no route from {node} to slot {dst_slot}"
            ) from None

    def next_hop(self, node, dst_slot: int, rng) -> tuple:
        """Pick one next hop; random among candidates when diverse."""
        options = self.candidates(node, dst_slot)
        if len(options) == 1:
            return options[0]
        return options[rng.randrange(len(options))]

    def switch_candidate_arrays(
        self, switch_order: list, num_slots: int
    ) -> list[list[tuple | None]]:
        """Dense per-switch next-hop arrays for the simulator kernel.

        ``arrays[si][dst]`` holds the candidate next-hop nodes (the same
        tuple, in the same repr-sorted order, that :meth:`candidates`
        returns) for the ``si``-th switch of ``switch_order`` toward
        destination slot ``dst``, or ``None`` when the switch lies on no
        route to that slot. The kernel indexes these arrays with
        integers instead of hashing ``(node, term(dst))`` tuples per
        head flit.
        """
        arrays: list[list[tuple | None]] = []
        table = self._table
        for sw in switch_order:
            row: list[tuple | None] = [None] * num_slots
            for dst in self.slots:
                row[dst] = table.get((sw, term(dst)))
            arrays.append(row)
        return arrays
