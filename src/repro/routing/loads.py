"""Per-link traffic accounting.

The mapping algorithm (Figure 5) routes commodities one at a time and
"increases edge weights in Path by vl(dk)"; :class:`EdgeLoads` is that
running ledger. Loads are in MB/s, keyed by directed graph edge.

The ledger is interned: every edge has an integer id and the loads live
in one flat list indexed by it. A ledger built for a topology
(:func:`edge_index`) shares the topology's ids — the ids the interned
Dijkstra (:mod:`repro.routing.shortest`) reads loads by — so routing
updates and reads the ledger without hashing node tuples. A ledger
built without one interns edges on first use.
"""

from __future__ import annotations


def edge_index(topology) -> tuple[dict, list]:
    """Per-topology integer edge ids: ``({(u, v): id}, [edge by id])``.

    The topology graph's native ids
    (:meth:`~repro.topology.graph.TopologyGraph.edge_index`), in
    ``graph.edges()`` order. A fault overlay builds its own surviving
    graph, so a dead link never receives an id.
    """
    return topology.graph.edge_index()


class EdgeLoads:
    """Accumulated bandwidth per directed edge of a topology graph.

    Args:
        index: an :func:`edge_index` to share (never mutated: an edge
            outside it makes this ledger copy the index first); ``None``
            starts a private, growing index.

    Only *touched* edges — those :meth:`add`/:meth:`add_path` reached,
    even with a zero value — count as entries: :meth:`items` yields
    them in first-touch order (the order of the dict ledger this
    replaced, which ``BandwidthObjective`` sums its RMS over) and
    ``len`` counts them.
    """

    __slots__ = (
        "_ids", "_edges", "_owned", "_load", "_seen", "_order", "_total",
        "load_bound",
    )

    def __init__(self, index: tuple[dict, list] | None = None):
        if index is None:
            self._ids: dict = {}
            self._edges: list = []
            self._owned = True
        else:
            self._ids, self._edges = index
            self._owned = False
        n = len(self._edges)
        self._load = [0.0] * n
        self._seen = bytearray(n)
        self._order: list[int] = []
        self._total = 0.0
        #: Optional precomputed upper bound on any single edge load over
        #: the whole routing run (set by ``route_all`` from the commodity
        #: list). When present, the hop-dominant Dijkstra scale is
        #: derived from it instead of the running ledger total, so the
        #: scale is a constant of the application. ``None`` keeps the
        #: running-total formula.
        self.load_bound: float | None = None

    def bind(self, index: tuple[dict, list]) -> None:
        """Re-key this ledger onto ``index`` (an :func:`edge_index`),
        keeping its loads, first-touch order and total; a no-op when it
        already uses that index. The interned searches read loads by
        the topology's edge ids, so routing binds the ledger it is
        given."""
        if self._ids is not index[0]:
            state = self.__getstate__()
            self.__init__(index)
            self._refill(*state)

    def edge_id(self, edge: tuple) -> int:
        """The id of directed edge ``(u, v)``, interning it if new."""
        eid = self._ids.get(edge)
        if eid is None:
            if not self._owned:  # never grow a shared topology index
                self._ids = dict(self._ids)
                self._edges = list(self._edges)
                self._owned = True
            eid = len(self._edges)
            self._ids[edge] = eid
            self._edges.append(edge)
            self._load.append(0.0)
            self._seen.append(0)
        return eid

    def add(self, u, v, value: float) -> None:
        """Add ``value`` MB/s of traffic to edge ``u -> v``."""
        self.add_path((u, v), value)

    def add_path(self, path: list, value: float, edge_ids=None) -> None:
        """Add ``value`` MB/s along every edge of a node path.

        ``edge_ids`` — the path's edge ids, as the interned searches
        return them — skips the per-edge id lookup.
        """
        if edge_ids is None:
            edge_id = self.edge_id
            edge_ids = [edge_id(edge) for edge in zip(path, path[1:])]
        load = self._load
        seen = self._seen
        total = self._total
        for eid in edge_ids:
            if not seen[eid]:
                seen[eid] = 1
                self._order.append(eid)
            load[eid] += value
            total += value
        self._total = total

    def add_chunks(
        self, edge_ids: list[int], value: float, chunks: int
    ) -> None:
        """Add ``chunks`` chunks of ``value`` MB/s along a path's edge
        ids in one pass.

        Bit-identical to ``chunks`` :meth:`add_path` calls: every edge
        and :attr:`total` receive the same value the same number of
        times, and the edges are first touched in path order. A path's
        edges are distinct, so no sum depends on how the chunks
        interleave.
        """
        load = self._load
        seen = self._seen
        total = self._total
        for eid in edge_ids:
            if not seen[eid]:
                seen[eid] = 1
                self._order.append(eid)
            edge_load = load[eid]
            for _ in range(chunks):
                edge_load += value
                total += value
            load[eid] = edge_load
        self._total = total

    def get(self, u, v) -> float:
        eid = self._ids.get((u, v))
        return 0.0 if eid is None else self._load[eid]

    def items(self) -> list[tuple[tuple, float]]:
        """``[((u, v), MB/s), ...]`` over touched edges, first touch first."""
        edges = self._edges
        load = self._load
        return [(edges[eid], load[eid]) for eid in self._order]

    @property
    def by_edge_id(self) -> list[float]:
        """The live per-edge-id load list (read-only by convention): the
        interned searches index it directly."""
        return self._load

    def by_index(self, index: tuple[dict, list]) -> list[float]:
        """Loads in ``index``'s edge-id order (an :func:`edge_index`):
        the live list when this ledger shares that index, else a copy
        built edge by edge."""
        if self._ids is index[0]:
            return self._load
        get = self.get
        return [get(u, v) for u, v in index[1]]

    @property
    def total(self) -> float:
        """Sum of load over all edges (an upper bound on any single load)."""
        return self._total

    def max_load(self, edges=None, divisors: dict | None = None) -> float:
        """Largest per-edge load, optionally restricted to ``edges``.

        ``divisors`` — ``{edge: channel count}`` from
        :meth:`~repro.topology.base.Topology.channel_multiplicities` —
        divides each listed edge's load by its parallel-channel count,
        so the result is the worst *per-channel* load of a fabric with
        fat links. ``None`` (every channel single) skips the division.
        """
        load = self._load
        if edges is None:
            return max((load[eid] for eid in self._order), default=0.0)
        ids_get = self._ids.get
        divisors_get = divisors.get if divisors else None
        best = 0.0
        for e in edges:
            edge = tuple(e)
            eid = ids_get(edge)
            value = 0.0 if eid is None else load[eid]
            if divisors_get is not None:
                value = value / divisors_get(edge, 1)
            if value > best:
                best = value
        return best

    def copy(self) -> "EdgeLoads":
        clone = EdgeLoads.__new__(EdgeLoads)
        clone._owned = self._owned
        clone._ids = dict(self._ids) if self._owned else self._ids
        clone._edges = list(self._edges) if self._owned else self._edges
        clone._load = list(self._load)
        clone._seen = bytearray(self._seen)
        clone._order = list(self._order)
        clone._total = self._total
        clone.load_bound = self.load_bound
        return clone

    def __getstate__(self) -> tuple:
        """Pickle only the touched edges, not the topology's whole index:
        the ledger rebuilt from them matches in every observable
        (:meth:`items` order, :meth:`get`, :attr:`total`)."""
        return self.items(), self._total, self.load_bound

    def __setstate__(self, state: tuple) -> None:
        self.__init__()
        self._refill(*state)

    def _refill(self, touched: list, total: float, load_bound) -> None:
        for edge, value in touched:
            eid = self.edge_id(edge)
            self._seen[eid] = 1
            self._order.append(eid)
            self._load[eid] = value
        self._total = total
        self.load_bound = load_bound

    def __len__(self) -> int:
        return len(self._order)

    def __repr__(self) -> str:
        return f"EdgeLoads(edges={len(self)}, max={self.max_load():.1f})"
