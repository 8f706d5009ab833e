"""Build a :class:`~repro.topology.custom.CustomTopology` from a partition.

The fabric construction rule is switch-per-cluster: every cluster of the
partition becomes one switch carrying its cores as terminal slots
(concentration), and clusters that exchange traffic are wired together
with channels sized from their aggregate commodity bandwidth — a pair
whose directional demand exceeds one link capacity gets a *fat link*
(parallel channels, the ``mult`` machinery of
:class:`~repro.topology.custom.CustomTopology`).

Link placement is degree-bounded and deterministic:

1. a degree-constrained maximum spanning tree over the cluster
   communication graph guarantees connectivity while spending as few
   channels as possible on it (heaviest pairs first, Kruskal with a
   per-switch channel budget);
2. remaining channel budget is spent upgrading the heaviest
   communicating pairs toward their demanded multiplicity
   ``ceil(demand / capacity)`` — direct links first for hop locality,
   extra channels for bandwidth.

The result is an explicit, connected, degree-bounded switch fabric that
drops into the existing mapping/selection/generation pipeline unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.coregraph import CoreGraph
from repro.errors import TopologyError
from repro.synthesis.partition import make_partition
from repro.topology.custom import CustomTopology


@dataclass(frozen=True)
class CandidateSpec:
    """Everything needed to rebuild one synthesized fabric.

    A spec is a pure value: ``build_candidate(core_graph, spec)`` is a
    deterministic function, so the fabric a spec names can be rebuilt
    bit-identically anywhere.

    Attributes:
        strategy: partition strategy name
            (:data:`~repro.synthesis.partition.PARTITION_STRATEGIES`).
        num_switches: target cluster count handed to the partitioner
            (strategies may return more when bounds force it).
        max_cluster_size: concentration bound — cores per switch.
        max_switch_degree: maximum network channels per switch
            (core ports excluded; parallel channels each count).
        link_capacity_mb_s: per-channel capacity used to size fat links.
        fault_tolerance: surviving-link guarantee — the fabric stays
            connected under any ``fault_tolerance`` dead inter-switch
            links (Chen et al.'s k-connectivity objective; 0 = the
            plain spanning-tree fabric).
    """

    strategy: str
    num_switches: int
    max_cluster_size: int
    max_switch_degree: int
    link_capacity_mb_s: float
    fault_tolerance: int = 0

    @property
    def label(self) -> str:
        """Unique topology/table name for this candidate.

        The fault-tolerance suffix appears only when the guarantee is
        non-trivial, keeping every pre-existing label (and so the cache
        keys of the fabrics it names) unchanged.
        """
        base = (
            f"syn-{self.strategy}-s{self.num_switches}"
            f"c{self.max_cluster_size}d{self.max_switch_degree}"
        )
        if self.fault_tolerance:
            base += f"-ft{self.fault_tolerance}"
        return base


def intended_assignment(clusters: list[list[int]]) -> dict[int, int]:
    """The placement the fabric was shaped for: cores in cluster order.

    Slot ``j`` of the fabric belongs to the ``j``-th core of the
    flattened cluster list, so this is the identity the partitioner had
    in mind. The mapper is free to find a better one; structural pruning
    uses this to estimate hop locality without running a search.
    """
    flat = [core for cluster in clusters for core in cluster]
    return {core: slot for slot, core in enumerate(flat)}


def fabric_from_partition(
    core_graph: CoreGraph,
    clusters: list[list[int]],
    name: str,
    max_switch_degree: int,
    link_capacity_mb_s: float,
    fault_tolerance: int = 0,
) -> CustomTopology:
    """Wire one switch per cluster into a connected, degree-bounded fabric.

    With ``fault_tolerance=k > 0`` the fabric additionally embeds a
    Harary circulant ring ``C(1..ceil((k+1)/2))`` over the switches
    before any demand-driven links, making the switch network at least
    ``k+1``-edge-connected — every communicating cluster pair stays
    routable under any ``k`` dead inter-switch links (Chen et al.'s
    generalized fault-tolerance objective).

    Raises:
        TopologyError: when the degree bound cannot even hold a
            connected fabric (``max_switch_degree < 2`` with three or
            more clusters, ``< 1`` with two), or when the
            fault-tolerance guarantee is infeasible (fewer than
            ``fault_tolerance + 2`` switches, or a degree budget too
            small for the protection ring).
    """
    k = len(clusters)
    if k == 0:
        raise TopologyError("fabric needs at least one cluster")
    if k == 2 and max_switch_degree < 1:
        raise TopologyError("two clusters need at least degree 1")
    if k > 2 and max_switch_degree < 2:
        raise TopologyError(
            f"{k} clusters cannot form a connected fabric with "
            f"max_switch_degree={max_switch_degree}"
        )

    slot_switch = [
        ci for ci, cluster in enumerate(clusters) for _ in cluster
    ]

    # Aggregate directional bandwidth between cluster pairs.
    cluster_of: dict[int, int] = {}
    for ci, cluster in enumerate(clusters):
        for core in cluster:
            cluster_of[core] = ci
    directional: dict[tuple[int, int], float] = {}
    for (src, dst), value in core_graph.flows().items():
        a, b = cluster_of[src], cluster_of[dst]
        if a != b:
            directional[(a, b)] = directional.get((a, b), 0.0) + value

    def demand(a: int, b: int) -> float:
        """Worst directional demand across the (a, b) channel pair."""
        return max(
            directional.get((a, b), 0.0), directional.get((b, a), 0.0)
        )

    def weight(a: int, b: int) -> float:
        return directional.get((a, b), 0.0) + directional.get((b, a), 0.0)

    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    # Heaviest-communication pairs first; zero-weight pairs follow in
    # index order, so the spanning phase prefers useful links but can
    # always fall back to them for connectivity.
    pairs.sort(key=lambda p: (-weight(*p), p))

    degree_left = {ci: max_switch_degree for ci in range(k)}
    mult: dict[tuple[int, int], int] = {}

    root = list(range(k))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    joined = 1

    # Phase 0 — fault-tolerance ring. A Harary circulant C_k(1..j) is
    # 2j-edge-connected for k > 2j (and collapses to the complete graph
    # K_k, (k-1)-edge-connected, for small k), so j = ceil((ft+1)/2)
    # chords per direction guarantee ft+1 edge connectivity whenever
    # k >= ft+2. Spent before demand links: protection is the contract,
    # bandwidth upgrades get whatever budget remains.
    if fault_tolerance > 0 and k >= 2:
        if k < fault_tolerance + 2:
            raise TopologyError(
                f"{name}: {k} switches cannot stay connected under "
                f"{fault_tolerance} dead links (needs at least "
                f"{fault_tolerance + 2} switches)"
            )
        span = (fault_tolerance + 2) // 2
        for j in range(1, span + 1):
            for i in range(k):
                a, b = sorted((i, (i + j) % k))
                if a == b or (a, b) in mult:
                    continue
                if degree_left[a] < 1 or degree_left[b] < 1:
                    raise TopologyError(
                        f"{name}: degree budget {max_switch_degree} "
                        f"cannot hold the fault-tolerance ring "
                        f"(fault_tolerance={fault_tolerance} needs up "
                        f"to {min(2 * span, k - 1)} channels per switch)"
                    )
                mult[(a, b)] = 1
                degree_left[a] -= 1
                degree_left[b] -= 1
                ra, rb = find(a), find(b)
                if ra != rb:
                    root[ra] = rb
                    joined += 1

    # Phase 1 — degree-constrained maximum spanning tree (connectivity).
    # With a budget of >= 2 per switch this always connects: a forest on
    # m nodes spends fewer than 2m channel-ends, so every component
    # keeps a node with spare budget, and the complete pair list
    # eventually offers a pair of spare nodes across any two components.
    # (A no-op when the fault-tolerance ring already joined everything.)
    for a, b in pairs:
        if joined == k:
            break
        ra, rb = find(a), find(b)
        if ra == rb or degree_left[a] < 1 or degree_left[b] < 1:
            continue
        root[ra] = rb
        mult[(a, b)] = 1
        degree_left[a] -= 1
        degree_left[b] -= 1
        joined += 1
    if k > 1 and len({find(x) for x in range(k)}) != 1:
        raise TopologyError(
            f"{name}: degree budget {max_switch_degree} cannot connect "
            f"{k} switches"
        )

    # Phase 2 — spend remaining budget on demanded capacity: heaviest
    # pairs first, each toward ceil(demand / capacity) channels.
    for a, b in pairs:
        d = demand(a, b)
        if d <= 0.0:
            continue
        if math.isfinite(link_capacity_mb_s) and link_capacity_mb_s > 0:
            desired = max(1, math.ceil(d / link_capacity_mb_s - 1e-9))
        else:
            desired = 1
        have = mult.get((a, b), 0)
        while (
            have < desired and degree_left[a] > 0 and degree_left[b] > 0
        ):
            have += 1
            degree_left[a] -= 1
            degree_left[b] -= 1
        if have:
            mult[(a, b)] = have

    links = [
        pair for pair, count in sorted(mult.items()) for _ in range(count)
    ]
    return CustomTopology(name=name, slot_switch=slot_switch, links=links)


def build_candidate(
    core_graph: CoreGraph, spec: CandidateSpec
) -> CustomTopology:
    """Deterministically rebuild the fabric a spec describes.

    Pure function of ``(core_graph, spec)``: the same fabric the
    synthesis sweep builds for the spec, bit-identical on every call.
    """
    return fabric_from_partition(
        core_graph,
        candidate_clusters(core_graph, spec),
        name=spec.label,
        max_switch_degree=spec.max_switch_degree,
        link_capacity_mb_s=spec.link_capacity_mb_s,
        fault_tolerance=spec.fault_tolerance,
    )


def candidate_clusters(
    core_graph: CoreGraph, spec: CandidateSpec
) -> list[list[int]]:
    """The partition behind a spec (for proxies and diagnostics)."""
    return make_partition(
        spec.strategy,
        core_graph,
        spec.num_switches,
        spec.max_cluster_size,
        bw_budget=spec.max_switch_degree * spec.link_capacity_mb_s
        if math.isfinite(spec.link_capacity_mb_s)
        else None,
    )
