"""Fault-set value type and deterministic fault samplers.

A :class:`FaultSet` names what is broken in a fabric: dead inter-switch
links, dead switches, and per-channel degradation (reduced capacity
and/or added latency). It is a frozen, canonically-ordered value type so
two fault sets with the same content compare, hash, and digest
identically — the digest feeds topology names and, through them, engine
fingerprints, which is what keeps the evaluation cache correct across
faulted variants.

Samplers (:func:`sample_faults`, :func:`sample_switch_faults`,
:func:`sample_degradations`) are deterministic functions of
``(topology.name, kind, k, seed)``: the same call always yields the same
fault set, in any process, which the engine's jobs=1 ≡ jobs=N
bit-identity contract requires.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from random import Random

from repro.errors import TopologyError
from repro.topology.base import is_switch, is_term, term
from repro.topology.graph import TopologyGraph, descendants, edge_connectivity


def _canon_pair(pair) -> tuple:
    """Normalize an undirected node pair to a canonical (repr-sorted) tuple."""
    u, v = pair
    a, b = sorted((u, v), key=repr)
    return (a, b)


@dataclass(frozen=True)
class FaultSet:
    """What is broken: dead links, dead switches, degraded channels.

    * ``dead_links`` — undirected switch-to-switch node pairs; both
      directed channels of the pair are removed from the fabric.
    * ``dead_switches`` — switch nodes removed outright (with every
      incident channel).
    * ``degraded`` — ``(pair, cap_factor, extra_latency)`` entries:
      the pair's surviving channels forward at most one flit every
      ``round(1 / cap_factor)`` cycles and each hop takes
      ``extra_latency`` additional cycles.

    Entries are normalized (pairs repr-sorted, lists deduplicated and
    ordered) on construction, so equal content means equal value.
    """

    dead_links: tuple = ()
    dead_switches: tuple = ()
    degraded: tuple = field(default=())

    def __post_init__(self):
        links = sorted({_canon_pair(p) for p in self.dead_links}, key=repr)
        switches = sorted(set(self.dead_switches), key=repr)
        dead = set(links)
        degraded = []
        seen = set()
        for pair, cap_factor, extra_latency in self.degraded:
            pair = _canon_pair(pair)
            cap = float(cap_factor)
            extra = int(extra_latency)
            if not 0.0 < cap <= 1.0:
                raise TopologyError(
                    f"degraded cap_factor must be in (0, 1], got {cap!r}"
                )
            if extra < 0:
                raise TopologyError(
                    f"degraded extra_latency must be >= 0, got {extra!r}"
                )
            if pair in dead:
                raise TopologyError(
                    f"link {pair!r} is both dead and degraded"
                )
            if pair in seen:
                raise TopologyError(f"duplicate degradation for {pair!r}")
            seen.add(pair)
            degraded.append((pair, cap, extra))
        degraded.sort(key=repr)
        object.__setattr__(self, "dead_links", tuple(links))
        object.__setattr__(self, "dead_switches", tuple(switches))
        object.__setattr__(self, "degraded", tuple(degraded))

    @property
    def is_empty(self) -> bool:
        """Whether this fault set changes nothing (pristine fabric)."""
        return not (self.dead_links or self.dead_switches or self.degraded)

    @property
    def digest(self) -> str:
        """Short content hash; equal fault sets share it, others don't."""
        payload = repr((self.dead_links, self.dead_switches, self.degraded))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:10]

    @property
    def label(self) -> str:
        """Compact human-readable tag, stable across processes."""
        if self.is_empty:
            return "pristine"
        parts = []
        if self.dead_links:
            parts.append(f"L{len(self.dead_links)}")
        if self.dead_switches:
            parts.append(f"S{len(self.dead_switches)}")
        if self.degraded:
            parts.append(f"D{len(self.degraded)}")
        return f"faults-{''.join(parts)}-{self.digest}"


def _rng(topology, kind: str, k: int, seed: int) -> Random:
    """Deterministic, process-independent RNG for one sampling call."""
    payload = repr((topology.name, kind, k, seed)).encode("utf-8")
    return Random(int.from_bytes(hashlib.sha256(payload).digest()[:8], "big"))


def _net_pairs(topology) -> list:
    """Canonically ordered undirected switch-to-switch pairs."""
    return sorted({_canon_pair(e) for e in topology.net_edges()}, key=repr)


def masked_graph(topology, faults: FaultSet) -> TopologyGraph:
    """The base graph with the fault set's dead elements removed."""
    dead_edges = [
        edge for u, v in faults.dead_links for edge in ((u, v), (v, u))
    ]
    return topology.graph.without(faults.dead_switches, dead_edges)


def _severed_pairs(
    g: TopologyGraph, num_slots: int, first_only: bool = False
):
    """``(src, dst)`` slot pairs with no switch-fabric route in ``g``.

    One descendant BFS per source, entering switches only: routes never
    pass *through* a third core's terminal (the routing view enforces
    that structurally), and a terminal bridging two switches would
    otherwise make a severed pair look routable. A pivot-transitivity
    shortcut would be unsound on unidirectional multistage fabrics
    (butterfly), where ``src -> 0`` and ``0 -> dst`` only compose by
    bouncing through terminal 0.
    """
    fabric = {n for n in g.nodes if is_switch(n)}
    severed = []
    for src in range(num_slots):
        s = term(src)
        down = descendants(g, s, fabric) if s in g else set()
        for dst in range(num_slots):
            if dst == src:
                continue
            t = term(dst)
            if t not in g or not any(
                p in down for p in g.predecessors(t)
            ):
                severed.append((src, dst))
                if first_only:
                    return severed
    return severed


def _partitions(topology, faults: FaultSet) -> bool:
    """Whether the fault set severs any terminal pair."""
    g = masked_graph(topology, faults)
    return bool(_severed_pairs(g, topology.num_slots, first_only=True))


def partitioned_pairs(topology) -> list:
    """Exact ``(src_slot, dst_slot)`` pairs with no route in ``topology``.

    Works on any topology (typically a
    :class:`~repro.faults.overlay.FaultedTopology`); an empty list means
    every commodity is routable. Routability means a path through the
    switch fabric — paths bouncing through a third core's terminal do
    not count, matching what the routing layer will actually build.
    """
    return _severed_pairs(topology.graph, topology.num_slots)


def sample_faults(
    topology,
    k: int,
    seed: int = 1,
    *,
    avoid_partition: bool = True,
    max_attempts: int = 200,
) -> FaultSet:
    """Sample ``k`` dead inter-switch links, deterministically.

    With ``avoid_partition`` (the default, matching the campaign's
    "latency-throughput under k random link failures" scenario) the
    sampler rejects fault sets that sever any terminal pair and redraws,
    raising :class:`~repro.errors.TopologyError` when ``max_attempts``
    deterministic draws all partition the fabric.
    """
    if k < 0:
        raise TopologyError(f"fault count must be >= 0, got {k}")
    if k == 0:
        return FaultSet()
    pairs = _net_pairs(topology)
    if k > len(pairs):
        raise TopologyError(
            f"cannot kill {k} links: {topology.name} has only "
            f"{len(pairs)} inter-switch links"
        )
    rng = _rng(topology, "links", k, seed)
    for _ in range(max_attempts):
        faults = FaultSet(dead_links=tuple(rng.sample(pairs, k)))
        if not avoid_partition or not _partitions(topology, faults):
            return faults
    raise TopologyError(
        f"no non-partitioning set of {k} dead links found on "
        f"{topology.name} after {max_attempts} draws (seed {seed})"
    )


def sample_switch_faults(
    topology,
    k: int,
    seed: int = 1,
    *,
    avoid_partition: bool = True,
    max_attempts: int = 200,
) -> FaultSet:
    """Sample ``k`` dead switches among those with no attached terminal.

    Killing a terminal's own switch always severs that terminal, so the
    pool is restricted to pure transit switches (multistage fabrics like
    Clos/butterfly have them; single-stage direct topologies do not and
    raise :class:`~repro.errors.TopologyError`).
    """
    if k < 0:
        raise TopologyError(f"fault count must be >= 0, got {k}")
    if k == 0:
        return FaultSet()
    g = topology.graph
    attached = {
        v for u, v in g.edges() if is_term(u) and is_switch(v)
    } | {u for u, v in g.edges() if is_switch(u) and is_term(v)}
    pool = sorted(
        (n for n in g.nodes if is_switch(n) and n not in attached), key=repr
    )
    if k > len(pool):
        raise TopologyError(
            f"cannot kill {k} switches: {topology.name} has only "
            f"{len(pool)} transit switches without terminals"
        )
    rng = _rng(topology, "switches", k, seed)
    for _ in range(max_attempts):
        faults = FaultSet(dead_switches=tuple(rng.sample(pool, k)))
        if not avoid_partition or not _partitions(topology, faults):
            return faults
    raise TopologyError(
        f"no non-partitioning set of {k} dead switches found on "
        f"{topology.name} after {max_attempts} draws (seed {seed})"
    )


def sample_degradations(
    topology,
    k: int,
    seed: int = 1,
    *,
    cap_factor: float = 0.5,
    extra_latency: int = 1,
) -> FaultSet:
    """Sample ``k`` degraded inter-switch links, deterministically.

    Degradation never disconnects anything, so there is no partition
    rejection loop; each sampled pair forwards at ``cap_factor`` of its
    capacity with ``extra_latency`` extra cycles per hop.
    """
    if k < 0:
        raise TopologyError(f"fault count must be >= 0, got {k}")
    if k == 0:
        return FaultSet()
    pairs = _net_pairs(topology)
    if k > len(pairs):
        raise TopologyError(
            f"cannot degrade {k} links: {topology.name} has only "
            f"{len(pairs)} inter-switch links"
        )
    rng = _rng(topology, "degraded", k, seed)
    chosen = rng.sample(pairs, k)
    return FaultSet(
        degraded=tuple((p, cap_factor, extra_latency) for p in chosen)
    )


def link_resilience(topology) -> float:
    """Edge connectivity of the undirected switch-level network.

    A fabric survives any ``k`` link failures iff this exceeds ``k``
    (Chen et al.'s k-connectivity objective). Fabrics with fewer than
    two switches have no inter-switch links to kill and count as
    infinitely resilient.
    """
    switches = topology.switches
    if len(switches) < 2:
        return math.inf
    return float(edge_connectivity(switches, _net_pairs(topology)))


def survives_link_faults(topology, k: int) -> bool:
    """Whether every set of ``k`` dead links leaves all pairs routable."""
    return link_resilience(topology) > k
