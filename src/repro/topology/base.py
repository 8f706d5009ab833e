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
        self._dist_cache: dict | None = None
        # Structure caches: the graph is built once and never mutated
        # afterwards, so edge lists, port counts, quadrant masks and the
        # direct-topology resource summary are all computed lazily and
        # reused (they sit on the mapping search's per-evaluation path).
        self._net_edges_cache: list | None = None
        self._core_edges_cache: list | None = None
        self._switch_ports_cache: dict | None = None
        self._quadrant_cache: dict = {}
        self._direct_resource_cache: tuple | None = None
        self._switches_cache: list | None = None
        self._switch_of_cache: dict | None = None
        self._channel_mult_cache: dict | None | str = "unset"

    def __getstate__(self) -> dict:
        """Drop derived caches when pickling (engine jobs ship
        topologies to worker processes): every cache rebuilds
        deterministically on the other side."""
        state = self.__dict__.copy()
        state["_net_edges_cache"] = None
        state["_core_edges_cache"] = None
        state["_switch_ports_cache"] = None
        state["_quadrant_cache"] = {}
        state["_direct_resource_cache"] = None
        state["_switches_cache"] = None
        state["_switch_of_cache"] = None
        state["_channel_mult_cache"] = "unset"
        # Caches attached by the simulator / estimator / routing layers.
        state.pop("_sim_layout_cache", None)
        state.pop("_batch_layout_cache", None)
        state.pop("_phys_tables_cache", None)
        state.pop("_static_power_cache", None)
        state.pop("_csr_cache", None)
        state.pop("_search_cache", None)
        state.pop("_dor_cache", None)
        state.pop("_capacity_cache", None)
        state.pop("_floor_cache", None)
        state.pop("_lp_cache", None)
        return state

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

    @property
    def switches(self) -> list:
        if self._switches_cache is None:
            self._switches_cache = [
                n for n in self.graph.nodes if is_switch(n)
            ]
        return self._switches_cache

    def net_edges(self) -> list:
        """All switch-to-switch directed edges (cached; do not mutate)."""
        if self._net_edges_cache is None:
            self._net_edges_cache = [
                (u, v)
                for u, v, d in self.graph.edges(data=True)
                if d["kind"] == "net"
            ]
        return self._net_edges_cache

    def core_edges(self) -> list:
        """All terminal<->switch directed edges (cached; do not mutate)."""
        if self._core_edges_cache is None:
            self._core_edges_cache = [
                (u, v)
                for u, v, d in self.graph.edges(data=True)
                if d["kind"] == "core"
            ]
        return self._core_edges_cache

    def switch_ports(self, sw) -> tuple[int, int]:
        """(input ports, output ports) of a switch, core ports included.

        Parallel physical channels (the ``mult`` edge attribute of
        custom fabrics) each occupy a port, so a double link contributes
        two ports on each side; ordinary topologies carry no ``mult``
        attribute and count one port per edge as before.
        """
        cache = self._switch_ports_cache
        if cache is None:
            g = self.graph
            cache = self._switch_ports_cache = {
                node: (
                    sum(int(g.attrs(u, node).get("mult", 1))
                        for u in g.predecessors(node)),
                    sum(int(g.attrs(node, v).get("mult", 1))
                        for v in g.successors(node)),
                )
                for node in g.nodes
                if is_switch(node)
            }
        return cache[sw]

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
        if self._channel_mult_cache == "unset":
            mults = {
                (u, v): int(d["mult"])
                for u, v, d in self.graph.edges(data=True)
                if d.get("mult", 1) != 1
            }
            self._channel_mult_cache = mults or None
        return self._channel_mult_cache

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
        cache = self._switch_of_cache
        if cache is None:
            cache = self._switch_of_cache = {}
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
        dist = self._slot_distances()
        try:
            return dist[src_slot][dst_slot]
        except KeyError:
            raise TopologyError(
                f"no path between slots {src_slot} and {dst_slot}"
            ) from None

    def _slot_distances(self) -> dict[int, dict[int, int]]:
        if self._dist_cache is None:
            self._dist_cache = {}
            for i in range(self.num_slots):
                lengths = bfs_lengths(self.graph, term(i))
                # Edges on a term->term path exceed switch count by one.
                self._dist_cache[i] = {
                    j: lengths[term(j)] - 1
                    for j in range(self.num_slots)
                    if j != i and term(j) in lengths
                }
        return self._dist_cache

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
        key = (src_slot, dst_slot)
        try:
            return self._quadrant_cache[key]
        except KeyError:
            pass
        nodes = self.quadrant_nodes(src_slot, dst_slot)
        if nodes is not None:
            nodes = frozenset(nodes) | {term(src_slot), term(dst_slot)}
        self._quadrant_cache[key] = nodes
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
            if self._direct_resource_cache is None:
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
                self._direct_resource_cache = (
                    len(used_switches), net_links, ports
                )
            num_switches, net_links, ports = self._direct_resource_cache
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
