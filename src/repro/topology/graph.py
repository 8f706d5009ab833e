"""The topology graph: an insertion-ordered directed adjacency.

Every topology is one :class:`TopologyGraph`. Routing, simulation,
faults, generation and the engine fingerprint all read it, and the
routines below answer the graph questions they ask.

**Order.** Nodes iterate in first-insertion order, each node's
successors and predecessors in edge-insertion order, and edges
node-major (each node's out-edges in successor order). That is the
order a networkx ``DiGraph`` gives the same insertions, and it decides
Dijkstra's tie-breaks, the simulator's channel numbering and
:func:`shortest_path`'s choice among equal paths. The native edge ids
(:meth:`TopologyGraph.edge_index`) number the edges in that order.

**Node masks.** A quadrant or a routing view is not a graph of its own:
the routines take ``nodes``, a container of the nodes a search may
enter (``None``: all of them), and keep the parent's order.

The routines are checked against networkx, which the test suite keeps
as an oracle (``tests/routing/test_graph_oracle.py``).
"""

from __future__ import annotations


class TopologyGraph:
    """Directed graph with per-edge attribute dicts.

    Edge attributes used by the package: ``kind``, ``length``,
    ``mult``, ``wrap``, ``cap_factor`` and ``extra_latency`` (see
    :mod:`repro.topology.base`). A graph is built once and then only
    read; its edge ids are numbered on first use.
    """

    __slots__ = ("_succ", "_pred", "_index")

    def __init__(self):
        self._succ: dict = {}  # node -> {successor: attrs}
        self._pred: dict = {}  # node -> {predecessor: the same attrs}
        self._index: tuple | None = None

    def __getstate__(self) -> tuple:
        return self._succ, self._pred

    def __setstate__(self, state: tuple) -> None:
        self._succ, self._pred = state
        self._index = None

    def add_node(self, node) -> None:
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def add_edge(self, u, v, **attrs) -> None:
        """Add edge ``u -> v``, or update its attributes if present."""
        succ = self._succ
        if u not in succ:
            self.add_node(u)
        if v not in succ:
            self.add_node(v)
        data = succ[u].get(v)
        if data is None:
            data = succ[u][v] = self._pred[v][u] = {}
            self._index = None
        data.update(attrs)

    def without(self, nodes=(), edges=()) -> "TopologyGraph":
        """A copy minus ``nodes`` (with their edges) and ``edges``.

        Attribute dicts are copied. As in a networkx copy, each node's
        predecessors come back in node-major order.
        """
        dead_nodes = set(nodes)
        dead_edges = set(edges)
        g = TopologyGraph()
        for node in self._succ:
            if node not in dead_nodes:
                g.add_node(node)
        for u, succ in self._succ.items():
            if u in dead_nodes:
                continue
            for v, data in succ.items():
                if v not in dead_nodes and (u, v) not in dead_edges:
                    g.add_edge(u, v, **data)
        return g

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def __contains__(self, node) -> bool:
        return node in self._succ

    @property
    def nodes(self):
        return self._succ.keys()

    def number_of_nodes(self) -> int:
        return len(self._succ)

    def successors(self, node):
        return self._succ[node].keys()

    def predecessors(self, node):
        return self._pred[node].keys()

    def has_edge(self, u, v) -> bool:
        succ = self._succ.get(u)
        return succ is not None and v in succ

    def attrs(self, u, v) -> dict:
        """The attribute dict of edge ``u -> v``."""
        return self._succ[u][v]

    def edges(self, data: bool = False) -> list:
        """``[(u, v), ...]``, or ``[(u, v, attrs), ...]``, in id order."""
        if data:
            return [
                (u, v, d) for u, succ in self._succ.items()
                for v, d in succ.items()
            ]
        return [(u, v) for u, succ in self._succ.items() for v in succ]

    def edge_index(self) -> tuple[dict, list]:
        """The native edge ids: ``({(u, v): id}, [edge by id])``.

        Built once and shared by every reader (the routing ledgers
        compare it by identity); do not mutate.
        """
        index = self._index
        if index is None:
            edges = self.edges()
            index = self._index = (
                {edge: i for i, edge in enumerate(edges)}, edges
            )
        return index


# ----------------------------------------------------------------------
# routines
# ----------------------------------------------------------------------
def descendants(graph: TopologyGraph, source, nodes=None) -> set:
    """Nodes reachable from ``source`` (itself excluded), entering only
    ``nodes`` when given."""
    succ = graph._succ
    seen = {source}
    stack = [source]
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen and (nodes is None or w in nodes):
                seen.add(w)
                stack.append(w)
    seen.discard(source)
    return seen


def bfs_lengths(graph: TopologyGraph, source) -> dict:
    """``{node: edge count}`` of the shortest path from ``source``."""
    succ = graph._succ
    dist = {source: 0}
    level = [source]
    depth = 0
    while level:
        depth += 1
        following = []
        for v in level:
            for w in succ[v]:
                if w not in dist:
                    dist[w] = depth
                    following.append(w)
        level = following
    return dist


def all_shortest_paths(graph: TopologyGraph, source, target, nodes=None):
    """Yield every shortest ``source -> target`` path (none if the pair
    is disconnected), searching only ``nodes`` when given.

    The paths come in no promised order; callers count them or take
    their union.
    """
    succ = graph._succ
    pred = {source: ()}
    level = [source]
    while level and target not in pred:
        found: dict = {}
        for v in level:
            for w in succ[v]:
                if w in pred or (nodes is not None and w not in nodes):
                    continue
                found.setdefault(w, []).append(v)
        pred.update(found)
        level = list(found)
    if target not in pred:
        return
    path = [target]

    def walk(node):
        if node == source:
            yield path[::-1]
            return
        for p in pred[node]:
            path.append(p)
            yield from walk(p)
            path.pop()

    yield from walk(target)


def shortest_path(
    graph: TopologyGraph, source, target, nodes=None
) -> list | None:
    """One shortest ``source -> target`` path, or ``None`` if none.

    Bidirectional BFS that expands the smaller fringe and stops at the
    first meeting node: the same path ``nx.shortest_path`` returns for
    the same graph (fault re-convergence returns it verbatim).
    """
    pred = {source: None}  # forward tree: node -> its parent
    succ = {target: None}  # reverse tree: node -> its child
    forward, reverse = [source], [target]
    meet = source if source == target else None
    while forward and reverse and meet is None:
        if len(forward) <= len(reverse):
            forward, meet = _grow(forward, graph._succ, pred, succ, nodes)
        else:
            reverse, meet = _grow(reverse, graph._pred, succ, pred, nodes)
    if meet is None:
        return None
    path = []
    node = meet
    while node is not None:
        path.append(node)
        node = pred[node]
    path.reverse()
    node = succ[meet]
    while node is not None:
        path.append(node)
        node = succ[node]
    return path


def _grow(level: list, adj: dict, tree: dict, other: dict, nodes):
    """Grow BFS ``tree`` one level from ``level`` through ``adj``.

    Returns the next fringe and the first node the ``other`` tree holds
    (``None`` if none).
    """
    fringe = []
    for v in level:
        for w in adj[v]:
            if nodes is not None and w not in nodes:
                continue
            if w not in tree:
                tree[w] = v
                fringe.append(w)
            if w in other:
                return fringe, w
    return fringe, None


def edge_connectivity(nodes, pairs) -> int:
    """Edge connectivity of the undirected graph ``(nodes, pairs)``.

    The fewest edges whose removal disconnects it (0 if it already is
    disconnected); needs at least two nodes. The minimum cut separates
    the first node from some other one, so this is the least unit-
    capacity max-flow from the first node, each capped at the best so
    far.
    """
    adj: dict = {n: {} for n in nodes}
    for u, v in pairs:
        adj[u][v] = None
        adj[v][u] = None
    first, *others = adj
    best = min(len(nbrs) for nbrs in adj.values())
    for sink in others:
        if best == 0:
            break
        best = _max_flow(adj, first, sink, best)
    return best


def _max_flow(adj: dict, source, sink, cap: int) -> int:
    """Unit-capacity undirected ``source -> sink`` max-flow, stopping
    at ``cap`` (BFS augmenting paths)."""
    flow: dict = {}  # (u, v) -> net flow u -> v
    value = 0
    while value < cap:
        parent = {source: None}
        queue = [source]
        for u in queue:
            for w in adj[u]:
                if w not in parent and flow.get((u, w), 0) < 1:
                    parent[w] = u
                    queue.append(w)
            if sink in parent:
                break
        if sink not in parent:
            break
        w = sink
        while parent[w] is not None:
            u = parent[w]
            flow[u, w] = flow.get((u, w), 0) + 1
            flow[w, u] = flow.get((w, u), 0) - 1
            w = u
        value += 1
    return value
