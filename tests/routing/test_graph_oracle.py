"""The in-house graph routines against networkx, their test oracle.

:mod:`repro.topology.graph` replaces six networkx calls at run time.
Each routine is checked here against the call it replaced:

* BFS hop lengths and ``descendants`` (whole graph and switch-masked);
* the set of shortest paths, its count (path diversity) and the
  unique-path shortcut of the interned searches, on quadrant and routing
  view masks;
* ``shortest_path`` bit for bit — its tie-break is what fault
  re-convergence returns — on routing views and whole graphs;
* edge connectivity, on the fabrics below, on random graphs, and on
  every synthesized ``-ftK`` fabric.

The fabrics are the library, fat-link custom and faulted set of
``test_interned_routing.py``, plus random directed graphs.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import islice

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from nx_oracle import to_networkx
from test_interned_routing import FABRICS, _pair, fabric

from repro.apps import load_application
from repro.errors import TopologyError
from repro.faults import link_resilience
from repro.routing.shortest import routing_view, topology_search
from repro.synthesis import SynthesisConfig, build_candidate
from repro.synthesis.generate import _sweep_specs
from repro.topology.base import MAX_DIVERSITY, is_switch, term
from repro.topology.graph import (
    TopologyGraph,
    all_shortest_paths,
    bfs_lengths,
    descendants,
    edge_connectivity,
    shortest_path,
)

SLOW = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@lru_cache(maxsize=None)
def oracle(name: str) -> nx.DiGraph:
    return to_networkx(fabric(name).graph)


def _node(topology, pick: int):
    nodes = list(topology.graph.nodes)
    return nodes[pick % len(nodes)]


def _mask(topology, src_slot, dst_slot, quadrant: bool):
    if quadrant:
        return topology.quadrant_mask(src_slot, dst_slot)
    return routing_view(topology.graph, term(src_slot), term(dst_slot))


# ----------------------------------------------------------------------
# library, fat-link and faulted fabrics
# ----------------------------------------------------------------------
def test_conversion_keeps_adjacency_order():
    for name in FABRICS:
        g = fabric(name).graph
        ref = oracle(name)
        assert list(ref.nodes) == list(g.nodes)
        for node in g.nodes:
            assert list(ref.successors(node)) == list(g.successors(node))
            assert list(ref.predecessors(node)) == list(g.predecessors(node))
        assert list(ref.edges(data=True)) == g.edges(data=True)


@SLOW
@given(st.sampled_from(FABRICS), st.integers(0, 10**4))
def test_reachability_matches_networkx(name, pick):
    topology = fabric(name)
    g, ref = topology.graph, oracle(name)
    source = _node(topology, pick)
    assert bfs_lengths(g, source) == nx.single_source_shortest_path_length(
        ref, source
    )
    assert descendants(g, source) == nx.descendants(ref, source)
    switches = {n for n in g.nodes if is_switch(n)}
    fabric_only = ref.subgraph(switches | {source})
    assert descendants(g, source, switches) == nx.descendants(
        fabric_only, source
    )


@SLOW
@given(st.sampled_from(FABRICS), st.integers(0, 10**4), st.booleans())
def test_shortest_paths_match_networkx(name, pick, quadrant):
    topology = fabric(name)
    pair = _pair(topology, pick)
    if pair is None:
        return
    src_slot, dst_slot = pair
    src, dst = term(src_slot), term(dst_slot)
    g = topology.graph
    mask = _mask(topology, src_slot, dst_slot, quadrant)
    ref = to_networkx(g, mask)
    try:
        expected = {tuple(p) for p in nx.all_shortest_paths(ref, src, dst)}
    except nx.NetworkXNoPath:
        expected = set()
    paths = [tuple(p) for p in all_shortest_paths(g, src, dst, mask)]
    assert len(paths) == len(set(paths))
    assert set(paths) == expected
    if expected:
        search = topology_search(topology, src_slot, dst_slot, quadrant)
        unique = list(next(iter(expected))) if len(expected) == 1 else None
        assert search.unique == unique
    whole = islice(nx.all_shortest_paths(oracle(name), src, dst), MAX_DIVERSITY)
    assert topology.path_diversity(src_slot, dst_slot) == sum(1 for _ in whole)


@SLOW
@given(st.sampled_from(FABRICS), st.integers(0, 10**4), st.booleans())
def test_shortest_path_bit_for_bit(name, pick, masked):
    topology = fabric(name)
    pair = _pair(topology, pick)
    if pair is None:
        return
    src, dst = term(pair[0]), term(pair[1])
    g = topology.graph
    mask = routing_view(g, src, dst) if masked else None
    try:
        expected = nx.shortest_path(to_networkx(g, mask), src, dst)
    except nx.NetworkXNoPath:
        expected = None
    assert shortest_path(g, src, dst, mask) == expected


def _undirected_switch_graph(topology) -> nx.Graph:
    ref = nx.Graph()
    ref.add_nodes_from(topology.switches)
    ref.add_edges_from(topology.net_edges())
    return ref


@pytest.mark.parametrize("name", FABRICS)
def test_link_resilience_matches_networkx(name):
    topology = fabric(name)
    ref = _undirected_switch_graph(topology)
    assert link_resilience(topology) == nx.edge_connectivity(ref)


@pytest.mark.parametrize("tolerance", (1, 2))
def test_synthesized_ft_fabrics_match_networkx(tolerance):
    built = 0
    for app_name in ("vopd", "mpeg4", "dsp", "netproc"):
        app = load_application(app_name)
        config = SynthesisConfig(fault_tolerance=tolerance)
        for spec in _sweep_specs(app, config, 500.0):
            try:
                topology = build_candidate(app, spec)
            except TopologyError:
                continue  # protection infeasible for this shape
            assert spec.label.endswith(f"-ft{tolerance}")
            built += 1
            resilience = link_resilience(topology)
            if math.isinf(resilience):
                assert len(topology.switches) < 2
                continue
            ref = _undirected_switch_graph(topology)
            assert resilience == nx.edge_connectivity(ref)
    assert built > 0


# ----------------------------------------------------------------------
# random graphs
# ----------------------------------------------------------------------
random_edges = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
        lambda e: e[0] != e[1]
    ),
    max_size=24,
)


@settings(max_examples=200, deadline=None)
@given(random_edges, st.integers(0, 7), st.integers(0, 7))
def test_random_digraph_routines_match_networkx(edges, src, dst):
    g, ref = TopologyGraph(), nx.DiGraph()
    for node in (src, dst):
        g.add_node(node)
        ref.add_node(node)
    for u, v in edges:
        g.add_edge(u, v)
        ref.add_edge(u, v)
    assert bfs_lengths(g, src) == nx.single_source_shortest_path_length(
        ref, src
    )
    assert descendants(g, src) == nx.descendants(ref, src)
    try:
        expected = nx.shortest_path(ref, src, dst)
        paths = {tuple(p) for p in nx.all_shortest_paths(ref, src, dst)}
    except nx.NetworkXNoPath:
        expected, paths = None, set()
    assert shortest_path(g, src, dst) == expected
    assert {tuple(p) for p in all_shortest_paths(g, src, dst)} == paths


@settings(max_examples=200, deadline=None)
@given(random_edges, st.integers(2, 8))
def test_random_edge_connectivity_matches_networkx(edges, n):
    nodes = list(range(n))
    pairs = [(u, v) for u, v in edges if u < n and v < n]
    ref = nx.Graph()
    ref.add_nodes_from(nodes)
    ref.add_edges_from(pairs)
    assert edge_connectivity(nodes, pairs) == nx.edge_connectivity(ref)
