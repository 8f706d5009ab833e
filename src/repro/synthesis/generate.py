"""Candidate generation, pruning and engine fan-out for synthesis.

``synthesize_topologies`` is the subsystem's front door: sweep the
partition strategies over switch counts, concentration factors and
degree bounds (:class:`SynthesisConfig`), build each candidate fabric
locally, drop structural duplicates and Pareto-dominated shapes, then
submit each surviving fabric to the
:class:`~repro.engine.ExplorationEngine` as a plain
:class:`~repro.engine.jobs.EvaluationJob` — the same one mapping
search per candidate as a library topology, parallel with ``jobs=N``,
memoized by content, bit-identical regardless of worker count.

Structural pruning reuses the existing
:func:`~repro.core.exploration.pareto_front` machinery on two cheap
axes computed without any mapping search:

* a **hop proxy** — bandwidth-weighted hop distance of the partition's
  intended placement (cluster-local traffic is 1 hop, direct-linked
  clusters 2, and so on);
* a **resource proxy** — analytic switch silicon plus channel wiring
  area of the fabric.

A candidate dominated on both axes by another candidate cannot win any
selection objective that trades performance against cost, so it never
reaches the (much more expensive) mapping search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.constraints import Constraints
from repro.core.coregraph import CoreGraph
from repro.core.evaluate import MappingEvaluation, nominal_pitch_mm
from repro.core.exploration import ParetoPoint, pareto_front
from repro.core.mapper import MapperConfig
from repro.engine.engine import ExplorationEngine, resolve_engine
from repro.errors import TopologyError
from repro.physical.estimate import NetworkEstimator
from repro.synthesis.fabric import (
    CandidateSpec,
    candidate_clusters,
    fabric_from_partition,
    intended_assignment,
)
from repro.topology.custom import CustomTopology

#: Candidates kept for evaluation even when the Pareto front is smaller:
#: proxies are estimates, and a front-only sweep could lose everything
#: to one infeasible mapping, so near-misses are backfilled in proxy
#: rank order (never beyond ``max_candidates``).
MIN_CANDIDATES = 4


@dataclass(frozen=True)
class SynthesisConfig:
    """Sweep definition for automatic topology synthesis.

    Attributes:
        strategies: partition strategies to sweep
            (:data:`~repro.synthesis.partition.PARTITION_STRATEGIES`).
        concentrations: cores-per-switch bounds; each value ``c``
            targets ``ceil(n_cores / c)`` switches.
        max_switch_degrees: network-channel bounds per switch.
        max_candidates: cap on candidates submitted for evaluation
            after dedup/pruning (proxy-ranked; the cap is logged in the
            result's ``pruned`` field, never silent).
        fault_tolerance: surviving-link guarantee for every candidate —
            fabrics embed a protection ring keeping all communicating
            clusters connected under any ``fault_tolerance`` dead
            inter-switch links (Chen et al.; 0 = unprotected). Sweep
            points whose switch count or degree budget cannot honor the
            guarantee are pruned as unbuildable, never silently
            weakened.
    """

    strategies: tuple[str, ...] = ("greedy", "bisect", "bounded")
    concentrations: tuple[int, ...] = (2, 3, 4)
    max_switch_degrees: tuple[int, ...] = (4, 6, 8)
    max_candidates: int = 12
    fault_tolerance: int = 0


@dataclass
class SynthesizedCandidate:
    """One synthesized fabric and its evaluation outcome."""

    spec: CandidateSpec
    topology: CustomTopology
    evaluation: MappingEvaluation | None = None
    error: str | None = None

    @property
    def name(self) -> str:
        return self.spec.label

    @property
    def feasible(self) -> bool:
        return self.evaluation is not None and self.evaluation.feasible

    @property
    def cost(self) -> float:
        if self.evaluation is None:
            return math.inf
        return self.evaluation.cost


@dataclass
class SynthesisResult:
    """Ranked outcome of one synthesis sweep."""

    application: str
    objective_name: str
    routing_code: str
    candidates: list[SynthesizedCandidate] = field(default_factory=list)
    #: Candidate labels dropped by dedup/pruning/capping (with reason).
    pruned: dict[str, str] = field(default_factory=dict)

    @property
    def ranked(self) -> list[SynthesizedCandidate]:
        """Feasible candidates by increasing cost, then the rest."""
        return sorted(
            self.candidates,
            key=lambda c: (not c.feasible, c.cost, c.name),
        )

    @property
    def best(self) -> SynthesizedCandidate | None:
        ranked = self.ranked
        if ranked and ranked[0].feasible:
            return ranked[0]
        return None

    def table(self) -> list[dict]:
        rows = []
        best = self.best
        for cand in self.ranked:
            if cand.evaluation is not None:
                row = cand.evaluation.summary_row()
            else:
                row = {
                    "topology": cand.name,
                    "routing": self.routing_code,
                    "feasible": False,
                }
            row["selected"] = best is not None and cand.name == best.name
            if cand.error is not None:
                row["note"] = cand.error
            rows.append(row)
        return rows

    def to_dict(self) -> dict:
        """JSON-able form (used by reports and bit-identity checks)."""
        best = self.best
        return {
            "application": self.application,
            "objective": self.objective_name,
            "routing": self.routing_code,
            "best": None if best is None else best.name,
            "rows": self.table(),
            "pruned": dict(sorted(self.pruned.items())),
        }

    def format_table(self) -> str:
        """Human-readable ranking (CLI / examples)."""
        header = (
            f"{'candidate':<26}{'ok':<4}{'cost':>10}{'avg hops':>9}"
            f"{'area mm2':>10}{'power mW':>10}  note"
        )
        lines = [header, "-" * len(header)]
        for cand in self.ranked:
            ev = cand.evaluation
            mark = "*" if self.best is cand else ""
            lines.append(
                f"{cand.name + mark:<26}"
                f"{'y' if cand.feasible else 'n':<4}"
                f"{cand.cost if math.isfinite(cand.cost) else math.inf:>10.3f}"
                f"{ev.avg_hops if ev else float('nan'):>9.3f}"
                f"{(ev.area_mm2 if ev and ev.area_mm2 is not None else float('nan')):>10.2f}"
                f"{(ev.power_mw if ev and ev.power_mw is not None else float('nan')):>10.1f}"
                f"  {cand.error or ''}"
            )
        return "\n".join(lines)


def _sweep_specs(
    core_graph: CoreGraph, config: SynthesisConfig, capacity: float
) -> list[CandidateSpec]:
    """The raw spec grid, before building/dedup/pruning."""
    n = core_graph.num_cores
    specs: list[CandidateSpec] = []
    seen: set[tuple] = set()
    for strategy in config.strategies:
        for concentration in config.concentrations:
            if concentration < 1 or concentration > n:
                continue
            num_switches = max(1, math.ceil(n / concentration))
            for degree in config.max_switch_degrees:
                key = (strategy, num_switches, concentration, degree)
                if key in seen:
                    continue
                seen.add(key)
                specs.append(
                    CandidateSpec(
                        strategy=strategy,
                        num_switches=num_switches,
                        max_cluster_size=concentration,
                        max_switch_degree=degree,
                        link_capacity_mb_s=capacity,
                        fault_tolerance=config.fault_tolerance,
                    )
                )
    return specs


def _proxies(
    core_graph: CoreGraph,
    clusters: list[list[int]],
    topology: CustomTopology,
    estimator: NetworkEstimator,
) -> tuple[float, float]:
    """(hop proxy, resource proxy) for structural pruning.

    The hop proxy evaluates the *intended* placement (cores laid out
    cluster by cluster); the mapper can only do better. The resource
    proxy is the analytic switch + channel area at nominal lengths —
    mapping-independent for these direct fabrics.
    """
    slot_of = intended_assignment(clusters)
    total = 0.0
    weighted = 0.0
    for (src, dst), value in core_graph.flows().items():
        total += value
        weighted += value * topology.hop_distance(slot_of[src], slot_of[dst])
    hop_proxy = weighted / total if total > 0 else 0.0
    pitch = nominal_pitch_mm(core_graph)
    resource = estimator.switches_area_mm2(topology) + (
        estimator.channels_area_mm2(topology, pitch_mm=pitch)
    )
    return hop_proxy, resource


def enumerate_candidates(
    core_graph: CoreGraph,
    config: SynthesisConfig | None = None,
    constraints: Constraints | None = None,
    estimator: NetworkEstimator | None = None,
) -> tuple[list[tuple[CandidateSpec, CustomTopology]], dict[str, str]]:
    """Build, dedupe and prune the candidate sweep.

    Returns ``(survivors, pruned)``: the (spec, fabric) pairs worth a
    mapping search, in deterministic proxy-ranked order, and a
    ``{label: reason}`` record of everything dropped — unbuildable
    specs, structural duplicates, Pareto-dominated shapes and the
    ``max_candidates`` cap (coverage is never truncated silently).
    Fat links are sized to the constraints' link capacity.
    """
    config = config or SynthesisConfig()
    constraints = constraints or Constraints()
    estimator = estimator or NetworkEstimator()

    pruned: dict[str, str] = {}
    built: list[tuple[CandidateSpec, CustomTopology, list[list[int]]]] = []
    fingerprints: dict[tuple, str] = {}
    for spec in _sweep_specs(
        core_graph, config, constraints.link_capacity_mb_s
    ):
        try:
            # Partition once per spec; the fabric build and the proxy
            # scoring below share the clusters.
            clusters = candidate_clusters(core_graph, spec)
            topology = fabric_from_partition(
                core_graph,
                clusters,
                name=spec.label,
                max_switch_degree=spec.max_switch_degree,
                link_capacity_mb_s=spec.link_capacity_mb_s,
                fault_tolerance=spec.fault_tolerance,
            )
        except TopologyError as exc:
            pruned[spec.label] = f"unbuildable: {exc}"
            continue
        # Structural key (name excluded): different sweep points often
        # build the same fabric — e.g. a degree bound that never binds.
        fp = (
            tuple(topology.slot_switch),
            tuple(sorted(topology.link_multiplicity().items())),
            tuple(sorted(topology.switch_positions().items())),
        )
        twin = fingerprints.get(fp)
        if twin is not None:
            pruned[spec.label] = f"duplicate of {twin}"
            continue
        fingerprints[fp] = spec.label
        built.append((spec, topology, clusters))

    scored = [
        (spec, topology, *_proxies(core_graph, clusters, topology, estimator))
        for spec, topology, clusters in built
    ]
    if len(scored) > 1:
        points = {
            spec.label: ParetoPoint(
                area_mm2=resource,
                power_mw=hops,
                avg_hops=hops,
                assignment=(spec.label,),
            )
            for spec, _, hops, resource in scored
        }
        front = {
            p.assignment[0] for p in pareto_front(list(points.values()))
        }
        kept = []
        dropped = []
        for entry in scored:
            if entry[0].label in front:
                kept.append(entry)
            else:
                dropped.append(entry)
        # Backfill near-misses up to the floor: proxies are estimates,
        # so a front-only sweep must not stake everything on one shape.
        floor = min(MIN_CANDIDATES, config.max_candidates)
        if len(kept) < floor and dropped:
            dropped.sort(key=lambda e: (e[2], e[3], e[0].label))
            refill = dropped[: floor - len(kept)]
            kept.extend(refill)
            dropped = dropped[len(refill):]
        for entry in dropped:
            pruned[entry[0].label] = "pareto-dominated (proxy axes)"
        scored = kept

    # Deterministic proxy ranking; cap the number of mapping searches.
    scored.sort(key=lambda e: (e[2], e[3], e[0].label))
    if len(scored) > config.max_candidates:
        for spec, _, _, _ in scored[config.max_candidates:]:
            pruned[spec.label] = (
                f"over max_candidates={config.max_candidates}"
            )
        scored = scored[: config.max_candidates]
    return [(spec, topology) for spec, topology, _, _ in scored], pruned


def synthesize_topologies(
    core_graph: CoreGraph,
    config: SynthesisConfig | None = None,
    routing: str = "MP",
    objective="hops",
    constraints: Constraints | None = None,
    mapper_config: MapperConfig | None = None,
    estimator: NetworkEstimator | None = None,
    jobs: int = 1,
    engine: ExplorationEngine | None = None,
    cache_backend=None,
) -> SynthesisResult:
    """Generate and evaluate custom fabrics for an application.

    The full subsystem flow: sweep → build → prune → submit every
    surviving fabric to the exploration engine as one evaluation job,
    exactly as a library topology is submitted → rank by objective
    cost. Results are bit-identical for any ``jobs`` count (the mapping
    search draws no random numbers; the engine reduces in submission
    order).

    ``cache_backend`` gives the auto-built engine persistent storage
    (a :func:`~repro.engine.backends.make_backend` spec such as
    ``"sqlite:evals.db"``); pass
    ``engine=`` instead to share a cache across calls (passing both is
    a :class:`ValueError`).
    """
    objective_name = (
        objective if isinstance(objective, str) else objective.name
    )
    engine = resolve_engine(engine, jobs, cache_backend)
    candidates, pruned = enumerate_candidates(
        core_graph,
        config=config,
        constraints=constraints,
        estimator=estimator,
    )
    job_list = engine.selection_jobs(
        core_graph,
        topologies=[topology for _, topology in candidates],
        routing=routing,
        objective=objective,
        constraints=constraints,
        config=mapper_config,
        estimator=estimator,
    )
    result = SynthesisResult(
        application=core_graph.name,
        objective_name=objective_name,
        routing_code=routing,
        pruned=pruned,
    )
    for (spec, topology), job_result in zip(
        candidates, engine.run(job_list)
    ):
        if job_result.ok:
            result.candidates.append(
                SynthesizedCandidate(
                    spec=spec,
                    # The evaluated instance (a process pool or a cache
                    # hit hands back an equal copy of the local build;
                    # the evaluation's topology is the one its
                    # assignment, floorplan and netlist refer to).
                    topology=job_result.evaluation.topology,
                    evaluation=job_result.evaluation,
                )
            )
        else:
            result.candidates.append(
                SynthesizedCandidate(
                    spec=spec, topology=topology, error=job_result.error
                )
            )
    return result
