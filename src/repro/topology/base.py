"""NoC topology graphs (Definition 2 of the paper).

A topology is modeled as a directed
:class:`~repro.topology.graph.TopologyGraph` with two node kinds:

* ``("term", i)`` — *terminal slot* ``i``; cores are mapped onto terminal
  slots (the vertices ``U`` of the paper's topology graph ``P(U, F)``).
* ``("sw", key)`` — a switch; ``key`` is topology-specific (an integer for
  direct topologies, a ``(stage, index)`` pair for multistage ones).

Edges carry two attributes:

* ``kind`` — ``"core"`` for terminal<->switch links, ``"net"`` for
  switch<->switch links;
* ``length`` — nominal physical length in units of one tile pitch, used by
  the floorplan-free estimators (the LP floorplanner supersedes it when
  exact positions are available).

Hop-delay convention (matches the paper): the delay of a route is the
**number of switches it traverses**. Two adjacent mesh cores communicate in
2 hops (their two switches); every pair on a k-ary 2-fly butterfly is 2
hops; every pair on a 3-stage Clos is 3 hops.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice

from repro.errors import TopologyError, UnsupportedRoutingError
from repro.topology.graph import (
    TopologyGraph,
    all_shortest_paths,
    bfs_lengths,
    descendants,
)

TERM = "term"
SW = "sw"

#: Nominal length (tile pitches) of a core-to-switch link.
CORE_LINK_LENGTH = 0.5

#: Cap used when counting distinct shortest paths (path diversity).
MAX_DIVERSITY = 64


_TERM_CACHE: dict[int, tuple[str, int]] = {}


def term(i: int) -> tuple[str, int]:
    """Graph node id for terminal slot ``i``.

    Memoized so the hot routing loops always see the *same* tuple
    object per slot — tuple allocation disappears and dict lookups hit
    the cached string hash.
    """
    node = _TERM_CACHE.get(i)
    if node is None:
        node = _TERM_CACHE[i] = (TERM, i)
    return node


def switch(key) -> tuple[str, object]:
    """Graph node id for a switch identified by ``key``."""
    return (SW, key)


def is_term(node) -> bool:
    return node[0] == TERM


def is_switch(node) -> bool:
    return node[0] == SW


@dataclass(frozen=True)
class ResourceSummary:
    """Switch/link counts for a topology instance (Figure 6(b) metric).

    Link counting convention: a link of a direct topology is a
    bidirectional channel pair and counts once; the inherently
    unidirectional channels of multistage topologies count individually.
    Core (terminal) links are included.
    """

    num_switches: int
    num_links: int
    switch_ports: dict


class Topology(ABC):
    """Abstract NoC topology.

    Subclasses implement :meth:`_build` (the graph), :attr:`num_slots`, and
    override :meth:`quadrant_nodes` / :meth:`dor_path` where the paper
    defines topology-specific behaviour (Sections 4.2 and 4.3).
    """

    #: "direct" (one core per switch) or "indirect" (multistage).
    kind = "direct"

    #: Whether bandwidth constraints also apply to terminal<->switch links.
    #: Off by default: MPEG4's 910 MB/s flow alone exceeds the 500 MB/s
    #: channel capacity, and no routing can split traffic across a core's
    #: single NI link, so constrained NI links would make every MPEG4
    #: mapping infeasible where the paper reports feasible split-routed
    #: ones. Topologies whose core links *are* the network (e.g. star)
    #: turn it on.
    constrain_core_links = False

    def __init__(self, name: str):
        self.name = name
        self._graph: TopologyGraph | None = None
        self._derived: defaultdict[str, dict] = defaultdict(dict)

    def __getstate__(self) -> dict:
        """Pickle the topology without its derived tables (engine jobs
        and persistent stores ship topologies): every table rebuilds
        deterministically on the other side."""
        state = self.__dict__.copy()
        state["_derived"] = defaultdict(dict)
        return state

    def derived(self, name: str) -> dict:
        """The table ``name`` derived from this topology, created empty
        on first use.

        The graph is built once and never mutated afterwards, so every
        table computed from it — hop distances, quadrant masks, search
        graphs, capacity and physical tables, LP solutions, simulator
        layouts, the content fingerprint — is kept here, one dict per
        name, and rebuilt rather than pickled (:meth:`__getstate__`).
        A table belongs to the module that names it; its values are
        read-only once stored.
        """
        return self._derived[name]

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def graph(self) -> TopologyGraph:
        """The (lazily built) topology graph."""
        if self._graph is None:
            self._graph = self._build()
            self._annotate_lengths(self._graph)
        return self._graph

    @abstractmethod
    def _build(self) -> TopologyGraph:
        """Construct the topology graph."""

    @property
    @abstractmethod
    def num_slots(self) -> int:
        """Number of terminal slots (``|U|``)."""

    def fits(self, n_cores: int) -> bool:
        """Whether a core graph with ``n_cores`` cores is mappable."""
        return n_cores <= self.num_slots

    @property
    def terminals(self) -> list:
        return [term(i) for i in range(self.num_slots)]

    def _structure(self) -> dict:
        """Fill the ``structure`` table in one pass over the graph: the
        switch list, the net and core edge lists and the fat-link
        multiplicities."""
        g = self.graph
        net, core, mults = [], [], {}
        for u, v, d in g.edges(data=True):
            if d["kind"] == "net":
                net.append((u, v))
            elif d["kind"] == "core":
                core.append((u, v))
            if d.get("mult", 1) != 1:
                mults[(u, v)] = int(d["mult"])
        structure = self._derived["structure"]
        structure.update(
            switches=[n for n in g.nodes if is_switch(n)],
            net_edges=net,
            core_edges=core,
            channel_multiplicities=mults or None,
        )
        return structure

    @property
    def switches(self) -> list:
        """All switch nodes in graph order (cached; do not mutate)."""
        try:
            return self._derived["structure"]["switches"]
        except KeyError:
            return self._structure()["switches"]

    def net_edges(self) -> list:
        """All switch-to-switch directed edges (cached; do not mutate)."""
        try:
            return self._derived["structure"]["net_edges"]
        except KeyError:
            return self._structure()["net_edges"]

    def core_edges(self) -> list:
        """All terminal<->switch directed edges (cached; do not mutate)."""
        try:
            return self._derived["structure"]["core_edges"]
        except KeyError:
            return self._structure()["core_edges"]

    def switch_ports(self, sw) -> tuple[int, int]:
        """(input ports, output ports) of a switch, core ports included.

        Parallel physical channels (the ``mult`` edge attribute of
        custom fabrics) each occupy a port, so a double link contributes
        two ports on each side; ordinary topologies carry no ``mult``
        attribute and count one port per edge as before.
        """
        ports = self._derived["switch_ports"]
        if not ports:
            g = self.graph
            ports.update({
                node: (
                    sum(int(g.attrs(u, node).get("mult", 1))
                        for u in g.predecessors(node)),
                    sum(int(g.attrs(node, v).get("mult", 1))
                        for v in g.successors(node)),
                )
                for node in g.nodes
                if is_switch(node)
            })
        return ports[sw]

    def channel_multiplicity(self, u, v) -> int:
        """Parallel physical channels on edge ``u -> v`` (default 1)."""
        return int(self.graph.attrs(u, v).get("mult", 1))

    def channel_multiplicities(self) -> dict | None:
        """``{directed net edge: channels}`` for fat links, else ``None``.

        ``None`` — the common case, every channel single — lets the
        bandwidth checks keep their original fast path; custom fabrics
        with parallel links get a dict restricted to the edges whose
        multiplicity exceeds one (cached; do not mutate).
        """
        try:
            return self._derived["structure"]["channel_multiplicities"]
        except KeyError:
            return self._structure()["channel_multiplicities"]

    def channel_degradations(self) -> dict | None:
        """``{directed net edge: (cap_factor, extra_latency)}`` or ``None``.

        ``None`` — the pristine default — keeps the simulator on its
        exact fast path; fault overlays
        (:class:`repro.faults.FaultedTopology`) override this with the
        surviving channels their fault set degrades.
        """
        return None

    def switch_of(self, slot: int):
        """The switch a terminal injects into (first hop)."""
        cache = self._derived["switch_of"]
        try:
            return cache[slot]
        except KeyError:
            pass
        for v in self.graph.successors(term(slot)):
            if is_switch(v):
                cache[slot] = v
                return v
        raise TopologyError(f"terminal {slot} has no attached switch")

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @abstractmethod
    def position(self, node) -> tuple[float, float]:
        """Abstract (x, y) placement of a node in tile-pitch units."""

    def _annotate_lengths(self, g: TopologyGraph) -> None:
        """Set the ``length`` attribute of every edge from node positions."""
        for u, v, d in g.edges(data=True):
            if "length" in d:
                continue
            if d["kind"] == "core":
                d["length"] = CORE_LINK_LENGTH
            else:
                xu, yu = self.position(u)
                xv, yv = self.position(v)
                d["length"] = max(abs(xu - xv) + abs(yu - yv), CORE_LINK_LENGTH)

    # ------------------------------------------------------------------
    # distances and paths
    # ------------------------------------------------------------------
    def hop_distance(self, src_slot: int, dst_slot: int) -> int:
        """Minimum number of switches between two terminal slots."""
        if src_slot == dst_slot:
            return 0
        dist = self._derived["hops"]
        if not dist:
            rows = {}
            for i in range(self.num_slots):
                lengths = bfs_lengths(self.graph, term(i))
                # Edges on a term->term path exceed switch count by one.
                rows[i] = {
                    j: lengths[term(j)] - 1
                    for j in range(self.num_slots)
                    if j != i and term(j) in lengths
                }
            dist.update(rows)  # whole, so other threads never see a part
        try:
            return dist[src_slot][dst_slot]
        except KeyError:
            raise TopologyError(
                f"no path between slots {src_slot} and {dst_slot}"
            ) from None

    def quadrant_nodes(self, src_slot: int, dst_slot: int) -> set | None:
        """Nodes of the quadrant graph for a commodity (Section 4.3).

        Returns a set of graph nodes guaranteed to contain at least one
        minimum path from ``term(src_slot)`` to ``term(dst_slot)``, or
        ``None`` to mean "the entire topology graph" (the trivial case,
        e.g. Clos networks).
        """
        return None

    def quadrant_mask(self, src_slot: int, dst_slot: int) -> frozenset | None:
        """The quadrant graph as a node mask over :attr:`graph` (its
        nodes plus the two endpoint terminals), or ``None`` when the
        quadrant is the whole graph.

        Masks are cached per (src, dst): the quadrant depends only on
        the slot pair, never on the mapping.
        """
        masks = self._derived["quadrants"]
        key = (src_slot, dst_slot)
        try:
            return masks[key]
        except KeyError:
            pass
        nodes = self.quadrant_nodes(src_slot, dst_slot)
        if nodes is not None:
            nodes = frozenset(nodes) | {term(src_slot), term(dst_slot)}
        masks[key] = nodes
        return nodes

    def dor_path(self, src_slot: int, dst_slot: int) -> list:
        """Dimension-ordered route between two slots, as a node list.

        Only defined for topologies with dimensions (mesh, torus,
        hypercube); multistage and irregular topologies raise
        :class:`UnsupportedRoutingError`.
        """
        raise UnsupportedRoutingError(
            f"dimension-ordered routing is undefined for {self.name}"
        )

    def path_diversity(self, src_slot: int, dst_slot: int) -> int:
        """Number of distinct minimum paths (capped at MAX_DIVERSITY)."""
        if src_slot == dst_slot:
            return 0
        paths = all_shortest_paths(self.graph, term(src_slot), term(dst_slot))
        return sum(1 for _ in islice(paths, MAX_DIVERSITY))

    # ------------------------------------------------------------------
    # resource accounting
    # ------------------------------------------------------------------
    def resource_summary(
        self, routes: list | None = None, mapped_slots: list | None = None
    ) -> ResourceSummary:
        """Count switches and links (Figure 6(b) resource metric).

        Args:
            routes: optional list of node paths in use; multistage
                topologies prune switches that appear on no route (the
                paper's DSP butterfly keeps 4 of 6 switches, Fig. 10(b)).
            mapped_slots: terminal slots actually occupied by cores; used
                to count core links. Defaults to all slots.
        """
        if mapped_slots is None:
            mapped_slots = list(range(self.num_slots))
        mapped = set(mapped_slots)

        if self.kind == "direct":
            # Everything except the core-link count is mapping-
            # independent for direct topologies; compute it once.
            structure = self._derived["structure"]
            if "direct_resources" not in structure:
                used_switches = set(self.switches)
                seen = set()
                net_links = 0
                attrs = self.graph.attrs
                for u, v in self.net_edges():
                    if (v, u) in seen:
                        continue
                    seen.add((u, v))
                    net_links += int(attrs(u, v).get("mult", 1))
                ports = {
                    sw: self.switch_ports(sw)
                    for sw in sorted(used_switches)
                }
                structure["direct_resources"] = (
                    len(used_switches), net_links, ports
                )
            num_switches, net_links, ports = structure["direct_resources"]
            return ResourceSummary(
                num_switches=num_switches,
                num_links=net_links + len(mapped),
                switch_ports=ports,
            )
        else:
            if routes:
                used_switches = {
                    n for path in routes for n in path if is_switch(n)
                }
                # Keep switches feeding/draining mapped terminals even if a
                # degenerate route list missed them.
                for s in mapped:
                    used_switches.add(self.switch_of(s))
            else:
                used_switches = set(self.switches)
            net_links = sum(
                1
                for u, v in self.net_edges()
                if u in used_switches and v in used_switches
            )
            core_links = 2 * len(mapped)  # one injection + one ejection link

        ports = {sw: self.switch_ports(sw) for sw in sorted(used_switches)}
        return ResourceSummary(
            num_switches=len(used_switches),
            num_links=net_links + core_links,
            switch_ports=ports,
        )

    def validate(self) -> None:
        """Structural sanity checks; raises :class:`TopologyError`."""
        g = self.graph
        for i in range(self.num_slots):
            if term(i) not in g:
                raise TopologyError(f"{self.name}: missing terminal {i}")
        for u, v, d in g.edges(data=True):
            if d.get("kind") not in ("core", "net"):
                raise TopologyError(f"{self.name}: edge {u}->{v} lacks kind")
            if is_term(u) and is_term(v):
                raise TopologyError(
                    f"{self.name}: terminals {u}->{v} directly connected"
                )
        # Every terminal must reach every other terminal.
        for i in range(min(self.num_slots, 4)):
            reach = descendants(g, term(i))
            for j in range(self.num_slots):
                if j != i and term(j) not in reach:
                    raise TopologyError(
                        f"{self.name}: slot {j} unreachable from slot {i}"
                    )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, slots={self.num_slots})"
