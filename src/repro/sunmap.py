"""The three-phase SUNMAP flow (Figure 4).

``run_sunmap`` drives the whole tool exactly as the paper describes:

1. **Mapping**: for a chosen routing function and objective, map the
   application onto every topology in the library, checking bandwidth
   and area constraints with floorplan-backed estimates;
2. **Selection**: compare the feasible mappings and choose the best
   topology. If no topology is feasible under the requested routing
   (MPEG4 under minimum-path, Section 6.1), the flow falls back to the
   next routing function in ``routing_fallbacks`` — "So we apply
   multi-path routing, splitting the traffic across many paths";
3. **Generation**: build the xpipes netlist of the winner and emit its
   SystemC description.

An optional fourth phase closes the loop the way the paper's Section 6
experiments do: pass ``simulate=`` a
:class:`~repro.simulation.campaign.CampaignConfig` (or ``True`` for the
defaults) and the winner is validated by a flit-level simulation
campaign — injection-rate sweeps across traffic patterns, with latency–
throughput curves and saturation points attached to the report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constraints import Constraints
from repro.core.coregraph import CoreGraph
from repro.core.evaluate import MappingEvaluation
from repro.core.mapper import MapperConfig
from repro.core.selector import SelectionResult, select_topology
from repro.engine.engine import ExplorationEngine, resolve_engine
from repro.errors import MappingInfeasibleError
from repro.obs import recorder as obs_recorder
from repro.physical.estimate import NetworkEstimator
from repro.simulation.campaign import (
    CampaignConfig,
    CampaignResult,
    run_campaign,
)
from repro.topology.base import Topology
from repro.xpipes.generator import generate_systemc
from repro.xpipes.netlist import Netlist, build_netlist

#: Routing escalation order: deterministic first, then splitting.
DEFAULT_ROUTING_FALLBACKS = ("SM", "SA")


@dataclass
class SunmapReport:
    """Everything the flow produced."""

    application: str
    selection: SelectionResult
    attempted_routings: list[str]
    netlist: Netlist | None = None
    systemc: str | None = None
    campaign: CampaignResult | None = None
    #: Flight-recorder report (spans + metric deltas) when the flow ran
    #: with ``observability=True``; never part of result fingerprints.
    observability: dict | None = None

    @property
    def best(self) -> MappingEvaluation | None:
        return self.selection.best

    @property
    def best_topology_name(self) -> str | None:
        return self.selection.best_name

    def summary(self) -> str:
        lines = [
            f"application: {self.application}",
            f"objective:   {self.selection.objective_name}",
            f"routing:     {self.selection.routing_code} "
            f"(attempted: {', '.join(self.attempted_routings)})",
            self.selection.format_table(),
        ]
        best = self.best
        if best is None:
            lines.append("result: NO FEASIBLE TOPOLOGY")
        else:
            lines.append(
                f"result: {self.best_topology_name} selected "
                f"(cost {best.cost:.3f})"
            )
            if self.netlist is not None:
                lines.append(
                    f"generated: {len(self.netlist.switches)} switches, "
                    f"{len(self.netlist.nis)} NIs, "
                    f"{len(self.netlist.links)} links"
                )
        if self.campaign is not None:
            lines.append(self.campaign.summary())
        return "\n".join(lines)


def run_sunmap(
    core_graph: CoreGraph,
    routing: str = "MP",
    objective: str = "hops",
    constraints: Constraints | None = None,
    topologies: list[Topology] | None = None,
    config: MapperConfig | None = None,
    estimator: NetworkEstimator | None = None,
    generate: bool = True,
    simulate: CampaignConfig | bool = False,
    routing_fallbacks: tuple[str, ...] = DEFAULT_ROUTING_FALLBACKS,
    jobs: int = 1,
    engine: ExplorationEngine | None = None,
    synthesize=None,
    cache_backend=None,
    observability: bool = False,
) -> SunmapReport:
    """Run the full SUNMAP flow on an application.

    Args:
        routing: first routing function to try (paper code DO/MP/SM/SA).
        routing_fallbacks: escalation sequence when nothing is feasible.
        generate: emit the winner's netlist and SystemC (phase 3).
        synthesize: race automatically synthesized custom fabrics
            against the library (a
            :class:`~repro.synthesis.SynthesisConfig` or ``True`` for
            the defaults). Synthesized winners flow through generation
            and simulation exactly like library ones; each routing
            escalation step re-evaluates the candidates under its code.
        simulate: validate the winner with a flit-level simulation
            campaign (phase 4): pass a
            :class:`~repro.simulation.campaign.CampaignConfig`, or
            ``True`` for the default sweep. The campaign runs on the
            winner's topology and mapping under the application trace
            plus synthetic patterns, and lands in ``report.campaign``.
            Pass a config with ``sim_engine="batch"`` to route the
            sweep through the vectorized batch kernel (statistically
            equivalent curves, much faster).
        jobs: parallel worker processes for the selection and simulation
            phases; 1 means one process, whose floorplan LPs overlap its
            swap search in one LP solver process. The report is identical
            regardless of ``jobs``.
        cache_backend: persistent evaluation-cache storage (a
            :func:`~repro.engine.backends.make_backend` spec such as
            ``"sqlite:evals.db"``) for the engine built when ``engine``
            is not given; warm results skip evaluation, bit-identically,
            so rerunning a killed flow on the same store resumes it.
            Passing it together with ``engine`` is a
            :class:`ValueError`.
        engine: explicit exploration engine (overrides ``jobs``); its
            evaluation cache is reused by any further calls made with
            the same engine (each fallback attempt uses a different
            routing code, so escalation itself never hits the cache).
        observability: record the flow with a
            :class:`~repro.obs.recorder.FlightRecorder` and attach the
            resulting report dict (spans, metric deltas, environment)
            as ``report.observability``. Purely passive: the selection,
            netlist, and campaign payloads are bit-identical either
            way.

    Raises:
        ValueError: when ``topologies`` is an empty list — an empty
            library can never produce a selection.
        MappingInfeasibleError: when no topology is feasible under any
            attempted routing function.
    """
    if observability:
        with obs_recorder.FlightRecorder(
            label=f"sunmap:{core_graph.name}"
        ) as recorder:
            report = _run_flow(
                core_graph, routing, objective, constraints, topologies,
                config, estimator, generate, simulate, routing_fallbacks,
                jobs, engine, synthesize, cache_backend,
            )
        report.observability = recorder.report.to_dict()
        return report
    return _run_flow(
        core_graph, routing, objective, constraints, topologies, config,
        estimator, generate, simulate, routing_fallbacks, jobs, engine,
        synthesize, cache_backend,
    )


def _run_flow(
    core_graph: CoreGraph,
    routing: str,
    objective: str,
    constraints: Constraints | None,
    topologies: list[Topology] | None,
    config: MapperConfig | None,
    estimator: NetworkEstimator | None,
    generate: bool,
    simulate: CampaignConfig | bool,
    routing_fallbacks: tuple[str, ...],
    jobs: int,
    engine: ExplorationEngine | None,
    synthesize,
    cache_backend,
) -> SunmapReport:
    """Body of :func:`run_sunmap`, optionally under a flight recorder."""
    if topologies is not None:
        topologies = list(topologies)
        if not topologies:
            raise ValueError(
                "run_sunmap received an empty topologies list; pass None "
                "for the standard library or at least one topology "
                "instance"
            )
    estimator = estimator or NetworkEstimator()
    engine = resolve_engine(engine, jobs, cache_backend)
    attempted: list[str] = []
    selection: SelectionResult | None = None
    for code in (routing, *[c for c in routing_fallbacks if c != routing]):
        attempted.append(code)
        selection = select_topology(
            core_graph,
            topologies=topologies,
            routing=code,
            objective=objective,
            constraints=constraints,
            estimator=estimator,
            config=config,
            engine=engine,
            synthesize=synthesize,
        )
        if selection.best is not None:
            break

    report = SunmapReport(
        application=core_graph.name,
        selection=selection,
        attempted_routings=attempted,
    )
    best = selection.best
    if best is None:
        if generate:
            raise MappingInfeasibleError(
                f"{core_graph.name}: no feasible topology under any of "
                f"{attempted}"
            )
        return report

    if generate:
        lengths = (
            best.floorplan.link_lengths(best.topology, best.assignment)
            if best.floorplan is not None
            else None
        )
        used = estimator.used_switches(best.topology, best.routing_result)
        report.netlist = build_netlist(
            core_graph,
            best.topology,
            best.assignment,
            lengths_mm=lengths,
            used_switches=used,
            tech=estimator.tech,
        )
        report.systemc = generate_systemc(report.netlist, best.topology)

    if simulate:
        campaign_config = (
            simulate if isinstance(simulate, CampaignConfig) else None
        )
        report.campaign = run_campaign(
            best.topology,
            core_graph=core_graph,
            assignment=best.assignment,
            config=campaign_config,
            engine=engine,
        )
    return report
