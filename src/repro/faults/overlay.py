"""Topology overlay applying a :class:`FaultSet` to any base topology.

:class:`FaultedTopology` wraps a library or custom topology and presents
the degraded fabric through the ordinary :class:`~repro.topology.base.
Topology` interface: the graph is the base graph minus dead elements,
with degradation annotations on the surviving channels. Everything
downstream — routing, mapping, simulation, fingerprints — works off
that graph unchanged, which is the whole point of the overlay design.

Routing re-convergence: quadrant shortcuts assume a pristine regular
structure, so a non-empty fault set disables them (searches fall back to
the full routing view, which only fails when endpoints are genuinely
partitioned — raising :class:`~repro.errors.UnroutableError`).
Dimension-ordered routing keeps the base route when it survives and
otherwise re-converges onto a deterministic surviving shortest path.
"""

from __future__ import annotations

from repro.errors import TopologyError, UnroutableError
from repro.faults.faultset import FaultSet, masked_graph
from repro.topology.base import Topology, term
from repro.topology.graph import TopologyGraph, shortest_path


class FaultedTopology(Topology):
    """A base topology with a :class:`FaultSet` applied.

    The overlay's name appends the fault set's content digest to the
    base name, so engine fingerprints (which hash the name *and* the
    surviving edge list with its degradation attributes) can never alias
    a faulted variant with the pristine fabric or with a different
    fault set.
    """

    def __init__(self, base: Topology, faults: FaultSet):
        if isinstance(base, FaultedTopology):
            raise TopologyError(
                "faulted topologies do not nest; combine the fault sets "
                "into one FaultSet and overlay the pristine base"
            )
        # An empty fault set is the pristine fabric: keeping the base
        # name (no "+pristine" suffix) lets caches alias the two, which
        # is correct — they evaluate identically.
        name = base.name if faults.is_empty else f"{base.name}+{faults.label}"
        super().__init__(name)
        self.base = base
        self.faults = faults
        self.kind = base.kind
        self.constrain_core_links = base.constrain_core_links
        self._validate_faults()

    def _validate_faults(self) -> None:
        """Every fault must reference an element the base actually has."""
        base_pairs = {
            tuple(sorted(e, key=repr)) for e in self.base.net_edges()
        }
        switches = set(self.base.switches)
        for pair in self.faults.dead_links:
            if pair not in base_pairs:
                raise TopologyError(
                    f"dead link {pair!r} is not an inter-switch link of "
                    f"{self.base.name}"
                )
        for sw in self.faults.dead_switches:
            if sw not in switches:
                raise TopologyError(
                    f"dead switch {sw!r} is not a switch of {self.base.name}"
                )
        for pair, _, _ in self.faults.degraded:
            if pair not in base_pairs:
                raise TopologyError(
                    f"degraded link {pair!r} is not an inter-switch link "
                    f"of {self.base.name}"
                )

    # ------------------------------------------------------------------
    # Topology interface
    # ------------------------------------------------------------------
    def _build(self) -> TopologyGraph:
        g = masked_graph(self.base, self.faults)
        for pair, cap_factor, extra_latency in self.faults.degraded:
            u, v = pair
            for edge in ((u, v), (v, u)):
                if g.has_edge(*edge):
                    g.attrs(*edge).update(
                        cap_factor=cap_factor, extra_latency=extra_latency
                    )
        return g

    @property
    def num_slots(self) -> int:
        return self.base.num_slots

    def position(self, node) -> tuple[float, float]:
        return self.base.position(node)

    def quadrant_nodes(self, src_slot: int, dst_slot: int) -> set | None:
        """Quadrant shortcuts are only sound on the pristine fabric.

        A dead element inside the base quadrant could leave a detour
        outside it, so restricting the search there would misreport a
        routable pair as unroutable; any non-empty fault set therefore
        searches the whole (masked) graph.
        """
        if self.faults.is_empty:
            return self.base.quadrant_nodes(src_slot, dst_slot)
        return None

    def dor_path(self, src_slot: int, dst_slot: int) -> list:
        """Base dimension-ordered route, re-converged around faults.

        When the base route survives the fault set it is kept verbatim
        (bit-identical to the pristine fabric). When a dead element
        breaks it, the route re-converges onto the deterministic
        bidirectional-BFS shortest path
        (:func:`~repro.topology.graph.shortest_path`) over the masked
        routing view (all switches, endpoint terminals only); a severed
        pair raises :class:`~repro.errors.UnroutableError`.
        """
        from repro.routing.shortest import routing_view

        path = self.base.dor_path(src_slot, dst_slot)
        g = self.graph
        if all(g.has_edge(u, v) for u, v in zip(path, path[1:])):
            return path
        src, dst = term(src_slot), term(dst_slot)
        path = shortest_path(g, src, dst, routing_view(g, src, dst))
        if path is None:
            raise UnroutableError(
                f"slots {src_slot} and {dst_slot} are partitioned "
                f"by faults on {self.name}"
            )
        return path

    # ------------------------------------------------------------------
    # degradation
    # ------------------------------------------------------------------
    def channel_degradations(self) -> dict | None:
        """``{directed net edge: (cap_factor, extra_latency)}`` or ``None``.

        ``None`` — no degraded entries — keeps the simulator on its
        pristine fast path; dead elements are already absent from the
        graph and need no entry here.
        """
        structure = self.derived("structure")
        try:
            return structure["channel_degradations"]
        except KeyError:
            pass
        g = self.graph
        degr = {}
        for pair, cap_factor, extra_latency in self.faults.degraded:
            u, v = pair
            for edge in ((u, v), (v, u)):
                if g.has_edge(*edge):
                    degr[edge] = (cap_factor, extra_latency)
        degr = structure["channel_degradations"] = degr or None
        return degr
