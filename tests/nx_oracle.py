"""networkx as a test oracle for the in-house topology graph.

The runtime never imports networkx; tests convert a
:class:`~repro.topology.graph.TopologyGraph` with :func:`to_networkx`
and check the in-house routines against networkx's.
"""

from __future__ import annotations

import networkx as nx


def to_networkx(graph, nodes=None) -> nx.DiGraph:
    """``graph`` masked to ``nodes`` (``None``: all), as a networkx
    ``DiGraph`` with the same node, successor and predecessor order and
    the same edge attributes.

    networkx orders each node's successors and predecessors by edge
    insertion, so edges go in in an order that respects both: a
    topological order of "comes before in some node's successor or
    predecessor list" (acyclic, since the graph was itself built by
    one sequence of insertions).
    """
    keep = list(graph.nodes) if nodes is None else [
        n for n in graph.nodes if n in nodes
    ]
    kept = set(keep)
    out = {u: [v for v in graph.successors(u) if v in kept] for u in keep}
    into = {v: [u for u in graph.predecessors(v) if u in kept] for v in keep}
    # The next edge each node's successor / predecessor list may emit.
    out_at = dict.fromkeys(keep, 0)
    into_at = dict.fromkeys(keep, 0)
    g = nx.DiGraph()
    g.add_nodes_from(keep)
    ready = [(u, out[u][0]) for u in keep if out[u]]
    while ready:
        pending = []
        for u, v in ready:
            if into[v][into_at[v]] != u:
                pending.append((u, v))  # v's earlier predecessors first
                continue
            g.add_edge(u, v, **graph.attrs(u, v))
            out_at[u] += 1
            into_at[v] += 1
            if out_at[u] < len(out[u]):
                pending.append((u, out[u][out_at[u]]))
        assert pending != ready, "successor and predecessor orders clash"
        ready = pending
    return g
