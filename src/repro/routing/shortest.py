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
topology graph numbers its edges (:func:`~repro.routing.loads.edge_index`,
in ``graph.edges()`` order) and the ledger is one flat load list by edge
id. Each slot pair's search graph — its quadrant, or its routing view
(all switches, the two endpoint terminals only), both node masks over
the topology graph — is interned once per topology as a
:class:`SearchGraph`: local node ids in graph order, CSR rows of
``(successor local id, edge id)`` in successor order (both built on a
search's first read), and the pair's unique minimum-hop path when it
has one. The kernel keeps its
``dist``/``seen``/``pred`` state in lists and returns the path together
with its edge ids, which the ledger adds by id and the routed commodity
keeps.

**Bit-identity.** The kernel is a faithful port of networkx's
``_dijkstra_multisource``: ``seen[source] = 0`` (an int), each edge
cost computed before it is added to the node distance
(``dist_v + (hop + load / scale)``, the same float rounding), a
monotonically increasing push counter as the heap tie-break,
predecessors overwritten only on strict improvement, and successors
relaxed in adjacency order — so it returns exactly the path
``nx.dijkstra_path`` returns under the equivalent weight function
(networkx is a test-only oracle; ``tests/routing/test_interned_routing.py``
checks this). The two weightings share the kernel without changing a
bit: ``load / 1.0`` is exact and float addition commutes, so
``eps + load / 1.0`` equals the ``load + eps`` of a dedicated
least-load search.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import islice

from repro.errors import UnroutableError
from repro.routing.loads import EdgeLoads
from repro.topology.base import is_switch, term
from repro.topology.graph import TopologyGraph, all_shortest_paths

_INF = float("inf")


def _intern(graph: TopologyGraph, nodes=None) -> tuple[list, dict, list]:
    """``(nodes, local ids, CSR rows)`` of ``graph`` masked to ``nodes``
    (``None``: the whole graph).

    Node and successor order follow the graph's adjacency order — that
    order decides Dijkstra's heap tie-breaking, so it must be preserved.
    """
    ids = graph.edge_index()[0]
    if nodes is None:
        order = list(graph.nodes)
        succ = [list(graph.successors(v)) for v in order]
    else:
        order = [v for v in graph.nodes if v in nodes]
        succ = [[u for u in graph.successors(v) if u in nodes] for v in order]
    local = {v: i for i, v in enumerate(order)}
    rows = [
        [(local[u], ids[v, u]) for u in successors]
        for v, successors in zip(order, succ)
    ]
    return order, local, rows


def _unique_min_hop_path(graph, src, dst, nodes) -> list | None:
    """The single minimum-hop ``src -> dst`` path within ``nodes``, or
    ``None`` if the pair has path diversity.

    Justification for the shortcut: :func:`min_hop_then_load` weights
    every edge ``1.0 + load/scale`` with the load terms of any whole
    path summing strictly below 1, so an ``h``-hop path always
    outweighs an ``(h+1)``-hop one — Dijkstra's result is provably a
    minimum-hop path, and when only one exists the loads cannot change
    the answer.
    """
    first_two = list(islice(all_shortest_paths(graph, src, dst, nodes), 2))
    if not first_two:
        raise UnroutableError(
            f"no route from {src} to {dst}: endpoints are partitioned"
        )
    return first_two[0] if len(first_two) == 1 else None


class SearchGraph:
    """One ``src -> dst`` search graph, interned for the kernel.

    Args:
        graph: the topology graph.
        src, dst: the endpoint nodes.
        nodes: the node mask searched (``None``: the whole graph).
        interned: ``graph``'s :func:`_intern` rows to reuse (default:
            interned here from ``nodes``).
        blocked: nodes the search must not enter, for rows interned
            wider than ``nodes``.

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
        index: the graph's :func:`~repro.routing.loads.edge_index`, the
            ids the rows and the ledger share.

    ``nodes``, ``rows``, ``blocked``, ``src``, ``dst`` and
    ``num_nodes`` are interned on first read: MP and SM route a pair
    with a unique minimum-hop path onto it without reading them.
    """

    __slots__ = (
        "nodes", "rows", "blocked", "src", "dst", "num_nodes", "unique",
        "unique_eids", "index", "_pending",
    )

    def __init__(
        self, graph: TopologyGraph, src, dst, nodes=None, interned=None,
        blocked=(),
    ):
        self.index = graph.edge_index()
        ids = self.index[0]
        self.unique = _unique_min_hop_path(graph, src, dst, nodes)
        self.unique_eids = None if self.unique is None else [
            ids[edge] for edge in zip(self.unique, self.unique[1:])
        ]
        self._pending = (graph, src, dst, nodes, interned, blocked)

    def __getattr__(self, name):
        # Reached only for a slot not set yet: intern the rows, once.
        if name not in _INTERNED or self._pending is None:
            raise AttributeError(name)
        graph, src, dst, nodes, interned, blocked = self._pending
        self._pending = None
        order, local, rows = interned or _intern(graph, nodes)
        self.nodes = order
        self.rows = rows
        self.blocked = [False] * len(order)
        for node in blocked:
            self.blocked[local[node]] = True
        self.num_nodes = len(order) - len(blocked)
        self.src = local[src]
        self.dst = local[dst]
        return getattr(self, name)


#: The :class:`SearchGraph` slots interned on first read.
_INTERNED = frozenset(("nodes", "rows", "blocked", "src", "dst", "num_nodes"))


def routing_view(graph: TopologyGraph, src, dst) -> set:
    """Node mask of all switches but only the endpoint terminals.

    Routes must never pass *through* a third core's terminal; searching
    within this mask enforces that structurally.
    """
    view = {node for node in graph.nodes if is_switch(node)}
    view.update((src, dst))
    return view


def topology_search(
    topology, src_slot: int, dst_slot: int, quadrant: bool = True
) -> SearchGraph:
    """The interned search graph of a slot pair (cached on the topology).

    ``quadrant=True`` interns the pair's quadrant (Section 4.3; the
    whole graph when the quadrant is trivial), ``False`` its routing
    view. Quadrants each get their own rows; the whole graph and every
    routing view share the topology's rows, the routing views blocking
    third-core terminals instead — skipping a node the view would not
    list leaves every other push, and so every tie-break, unchanged.
    The graphs live in the topology's ``derived("search")`` table, the
    shared rows under its ``"csr"`` key.
    """
    cache = topology.derived("search")
    key = (quadrant, src_slot, dst_slot)
    search = cache.get(key)
    if search is not None:
        return search
    graph = topology.graph
    src, dst = term(src_slot), term(dst_slot)
    if quadrant:
        mask = topology.quadrant_mask(src_slot, dst_slot)
    else:
        mask = routing_view(graph, src, dst)
    if quadrant and mask is not None:
        search = SearchGraph(graph, src, dst, mask)
    else:
        interned = cache.get("csr")
        if interned is None:
            interned = cache["csr"] = _intern(graph)
        blocked = () if quadrant else [
            n for n in interned[0]
            if not is_switch(n) and n != src and n != dst
        ]
        search = SearchGraph(graph, src, dst, mask, interned, blocked)
    cache[key] = search
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


def min_hop_then_load(
    search: SearchGraph, loads: EdgeLoads, value: float
) -> list:
    """Minimum-hop path, breaking ties by least accumulated traffic.

    ``loads`` must share ``search``'s edge ids (see
    :meth:`~repro.routing.loads.EdgeLoads.bind`).
    """
    if search.unique is not None:
        return list(search.unique)
    # Scale so a full path's load terms sum < 1 (see hop_scale).
    scale = hop_scale(loads, value, search.num_nodes)
    return _dijkstra_min_hop(search, loads.by_edge_id, scale)[0]


def load_then_hops(
    search: SearchGraph, loads: EdgeLoads, value: float
) -> tuple[list, list]:
    """Least-loaded path; hops only matter between equally loaded paths.

    ``loads`` is as for :func:`min_hop_then_load`. Returns the path and
    its edge ids, which split-across-all-paths routing adds to the
    ledger and keeps.
    """
    eps = max(1e-9, (loads.total + value) * 1e-6)
    return _dijkstra_min_hop(search, loads.by_edge_id, 1.0, eps)
