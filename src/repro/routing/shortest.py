"""Load-aware shortest-path search used by MP/SM/SA routing.

Two weightings, one Dijkstra kernel (:func:`_dijkstra_min_hop`, edge
weight ``hop + load / scale``):

* :func:`min_hop_then_load` — hop count dominates (``hop = 1.0``);
  accumulated load only breaks ties. The load term of a whole path is
  scaled to stay below 1 (:func:`hop_scale`), so a path can never trade
  an extra hop for less load. This implements Figure 5's
  Dijkstra-on-quadrant with "edge weights increased by vl(dk)".
* :func:`load_then_hops` — load dominates (``scale = 1.0``); a tiny
  per-hop epsilon keeps zero-load searches minimal. Used by
  split-across-all-paths routing, which may leave the quadrant to avoid
  congestion.

**Interned search.** Routing runs on integers, not node tuples. The
topology's edges carry ids (:func:`~repro.routing.loads.edge_index`, in
``graph.edges()`` order) and the ledger is one flat load list by edge
id. Each slot pair's search graph — its quadrant, or its routing view
(all switches, the two endpoint terminals only) — is interned once per
topology as a :class:`SearchGraph`: local node ids in ``graph._adj``
order, CSR rows of ``(successor local id, edge id)`` in that same
order, and the pair's unique minimum-hop path when it has one. The
kernel keeps its ``dist``/``seen``/``pred`` state in lists and returns
the path together with its edge ids, which the ledger adds by id and
the routed commodity keeps.

**Bit-identity.** The kernel is a faithful port of networkx's
``_dijkstra_multisource``: ``seen[source] = 0`` (an int), each edge
cost computed before it is added to the node distance
(``dist_v + (hop + load / scale)``, the same float rounding), a
monotonically increasing push counter as the heap tie-break,
predecessors overwritten only on strict improvement, and successors
relaxed in ``_adj`` order — so it returns exactly the path
``nx.dijkstra_path`` returns under the equivalent weight function. The
two weightings share the kernel without changing a bit: ``load / 1.0``
is exact and float addition commutes, so ``eps + load / 1.0`` equals
the ``load + eps`` of a dedicated least-load search.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import islice

import networkx as nx

from repro.errors import UnroutableError
from repro.routing.loads import EdgeLoads, edge_index
from repro.topology.base import is_switch, term

_INF = float("inf")


def _intern(graph: nx.DiGraph, edge_id) -> tuple[list, dict, list]:
    """``(nodes, local ids, CSR rows)`` of ``graph``'s adjacency.

    Node and successor order match ``graph._adj`` iteration exactly —
    that order decides Dijkstra's heap tie-breaking, so it must be
    preserved. For induced-subgraph views (``G.subgraph(nodes)``, the
    quadrants) the rows are built from the parent's adjacency filtered
    by the node set — the same order the view's FilterAdjacency yields,
    minus its per-item wrapper overhead.
    """
    keep = getattr(getattr(graph, "_NODE_OK", None), "nodes", None)
    parent = getattr(graph, "_graph", None)
    if keep is not None and parent is not None:
        adj = parent._adj
        nodes = [v for v in adj if v in keep]
        succ = [[u for u in adj[v] if u in keep] for v in nodes]
    else:
        adj = graph._adj
        nodes = list(adj)
        succ = [list(adj[v]) for v in nodes]
    local = {v: i for i, v in enumerate(nodes)}
    rows = [
        [(local[u], edge_id((v, u))) for u in successors]
        for v, successors in zip(nodes, succ)
    ]
    return nodes, local, rows


def _unique_min_hop_path(graph: nx.DiGraph, src, dst) -> list | None:
    """The single minimum-hop ``src -> dst`` path, or ``None`` if the
    pair has path diversity.

    Justification for the shortcut: :func:`min_hop_then_load` weights
    every edge ``1.0 + load/scale`` with the load terms of any whole
    path summing strictly below 1, so an ``h``-hop path always
    outweighs an ``(h+1)``-hop one — Dijkstra's result is provably a
    minimum-hop path, and when only one exists the loads cannot change
    the answer.
    """
    try:
        first_two = list(islice(nx.all_shortest_paths(graph, src, dst), 2))
    except nx.NetworkXNoPath:
        raise UnroutableError(
            f"no route from {src} to {dst}: endpoints are partitioned"
        ) from None
    return first_two[0] if len(first_two) == 1 else None


class SearchGraph:
    """One ``src -> dst`` search graph, interned for the kernel.

    Attributes:
        nodes: local id -> graph node.
        rows: local id -> ``[(successor local id, edge id), ...]``.
        blocked: per local id, ``True`` for nodes the search must not
            enter (third-core terminals when the rows are the whole
            topology's); the kernel starts its searched set from it.
        src, dst: the endpoints' local ids.
        num_nodes: nodes the search can visit (the :func:`hop_scale`
            path-length bound).
        unique, unique_eids: the single minimum-hop path and its edge
            ids when the graph has exactly one (a hop-dominant search is
            forced onto it whatever the loads), else ``None``.
        index: the :func:`~repro.routing.loads.edge_index` the edge ids
            come from (``None`` when interned into a ledger's own ids).
    """

    __slots__ = (
        "nodes", "rows", "blocked", "src", "dst", "num_nodes", "unique",
        "unique_eids", "index",
    )

    def __init__(
        self, graph, src, dst, interned, edge_id, blocked=(), index=None
    ):
        self.unique = _unique_min_hop_path(graph, src, dst)
        self.unique_eids = None if self.unique is None else [
            edge_id(edge) for edge in zip(self.unique, self.unique[1:])
        ]
        nodes, local, rows = interned
        self.nodes = nodes
        self.rows = rows
        self.index = index
        self.blocked = [False] * len(nodes)
        for node in blocked:
            self.blocked[local[node]] = True
        self.num_nodes = len(nodes) - len(blocked)
        self.src = local[src]
        self.dst = local[dst]


def routing_view(graph: nx.DiGraph, src, dst) -> nx.DiGraph:
    """Subgraph containing all switches but only the endpoint terminals.

    Routes must never pass *through* a third core's terminal; restricting
    the search graph enforces that structurally.
    """

    def keep(node, _src=src, _dst=dst):
        return is_switch(node) or node == _src or node == _dst

    return nx.subgraph_view(graph, filter_node=keep)


def topology_search(
    topology, src_slot: int, dst_slot: int, quadrant: bool = True
) -> SearchGraph:
    """The interned search graph of a slot pair (cached on the topology).

    ``quadrant=True`` interns the pair's quadrant (Section 4.3; the
    whole graph when the quadrant is trivial), ``False`` its routing
    view. Quadrant views each get their own rows; the whole graph and
    every routing view share the topology's rows, the routing views
    blocking third-core terminals instead — skipping a node the view
    would not list leaves every other push, and so every tie-break,
    unchanged. The cache dies with the topology and is dropped by
    ``Topology.__getstate__``.
    """
    cache = topology.__dict__.get("_search_cache")
    if cache is None:
        cache = topology.__dict__["_search_cache"] = {}
    key = (quadrant, src_slot, dst_slot)
    search = cache.get(key)
    if search is not None:
        return search
    index = edge_index(topology)
    edge_id = index[0].__getitem__
    src, dst = term(src_slot), term(dst_slot)
    graph = (
        topology.quadrant_subgraph(src_slot, dst_slot) if quadrant
        else routing_view(topology.graph, src, dst)
    )
    blocked = ()
    if quadrant and graph is not topology.graph:
        interned = _intern(graph, edge_id)
    else:
        interned = topology.__dict__.get("_csr_cache")
        if interned is None:
            interned = _intern(topology.graph, edge_id)
            topology.__dict__["_csr_cache"] = interned
        if not quadrant:
            blocked = [
                n for n in interned[0]
                if not is_switch(n) and n != src and n != dst
            ]
    search = cache[key] = SearchGraph(
        graph, src, dst, interned, edge_id, blocked, index=index
    )
    return search


def _dijkstra_min_hop(
    search: SearchGraph, load: list, scale: float, hop: float = 1.0
) -> tuple[list, list]:
    """Dijkstra over ``search`` with edge weight ``hop + load / scale``.

    ``load`` is the ledger's per-edge-id list
    (:attr:`~repro.routing.loads.EdgeLoads.by_edge_id`). Returns the
    ``src -> dst`` node path and its edge ids. See the module docstring
    for why this is bit-identical to ``nx.dijkstra_path``.
    """
    rows = search.rows
    source = search.src
    target = search.dst
    n = len(rows)
    done = search.blocked[:]  # searched nodes, plus the blocked ones
    seen = [_INF] * n
    seen[source] = 0
    pred = [-1] * n
    pred_edge = pred[:]
    fringe = [(0, 0, source)]
    counter = 1
    pop = heappop
    push = heappush
    while fringe:
        dist_v, _, v = pop(fringe)
        if done[v]:
            continue  # already searched this node
        done[v] = True
        if v == target:
            break
        for u, e in rows[v]:
            if done[u]:
                continue
            vu_dist = dist_v + (hop + load[e] / scale)
            if vu_dist < seen[u]:
                seen[u] = vu_dist
                push(fringe, (vu_dist, counter, u))
                counter += 1
                pred[u] = v
                pred_edge[u] = e
    else:
        raise UnroutableError(
            f"no route to {search.nodes[target]}: endpoints are partitioned"
        )
    nodes = search.nodes
    path = [nodes[target]]
    eids = []
    v = target
    while v != source:
        eids.append(pred_edge[v])
        v = pred[v]
        path.append(nodes[v])
    path.reverse()
    eids.reverse()
    return path, eids


def hop_scale(loads: EdgeLoads, value: float, num_nodes: int) -> float:
    """Scale keeping a whole path's load terms strictly below one hop.

    With a precomputed :attr:`~repro.routing.loads.EdgeLoads.load_bound`
    (set by ``route_all`` from the commodity list) the scale is a
    constant of the (application, topology, slot pair) — every single
    edge load is bounded by the final ledger total, which the bound
    dominates, so hop dominance holds throughout the run. Without a
    bound, fall back to the running-total formula (direct callers
    outside ``route_all``).
    """
    bound = loads.load_bound
    if bound is not None:
        return max(1.0, bound * (num_nodes + 1))
    return max(1.0, (loads.total + value) * (num_nodes + 1))


def _search_of(graph, src, dst, loads: EdgeLoads) -> SearchGraph:
    if isinstance(graph, SearchGraph):
        return graph
    return SearchGraph(
        graph, src, dst, _intern(graph, loads.edge_id), loads.edge_id
    )


def min_hop_then_load(
    graph, src, dst, loads: EdgeLoads, value: float
) -> list:
    """Minimum-hop path, breaking ties by least accumulated traffic.

    ``graph`` is a :class:`SearchGraph` for ``src -> dst``, or any
    networkx graph (interned on the spot, its edges into ``loads``).
    """
    search = _search_of(graph, src, dst, loads)
    if search.unique is not None:
        return list(search.unique)
    # Scale so a full path's load terms sum < 1 (see hop_scale).
    scale = hop_scale(loads, value, search.num_nodes)
    return _dijkstra_min_hop(search, loads.by_edge_id, scale)[0]


def load_then_hops(
    graph, src, dst, loads: EdgeLoads, value: float
) -> tuple[list, list]:
    """Least-loaded path; hops only matter between equally loaded paths.

    ``graph`` is as for :func:`min_hop_then_load`. Returns the path and
    its edge ids, which split-across-all-paths routing adds to the
    ledger and keeps.
    """
    search = _search_of(graph, src, dst, loads)
    eps = max(1e-9, (loads.total + value) * 1e-6)
    return _dijkstra_min_hop(search, loads.by_edge_id, 1.0, eps)
