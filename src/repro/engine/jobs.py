"""Job and result records for the exploration engine.

Three job kinds share the engine's memoize-dedupe-execute pipeline:

* :class:`EvaluationJob` — one candidate of the design space: a
  (core graph, topology, routing function, objective) tuple plus the
  mapper knobs. Executing it runs the full Figure-5 mapping search.
  Library topologies and synthesized fabrics alike are submitted as
  evaluation jobs.
* :class:`SimulationJob` — one point of a simulation campaign: a
  (topology, traffic pattern, injection rate, seed) tuple plus the
  simulator protocol. Executing it runs one warmup/measure/drain
  flit-level measurement.
* :class:`BatchSimulationJob` — a topology-group of campaign points
  run by the vectorized batch lane.

The engine keys each job by its ``cache_key()`` and labels its result
with the job's ``tag``; the retry backoff is keyed on the tag too.

Jobs carry everything a worker process needs, so they must stay
picklable end to end; :func:`run_job` is the executor-side dispatcher
that routes each kind to its executor function.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.core.constraints import Constraints
from repro.core.coregraph import CoreGraph
from repro.core.evaluate import MappingEvaluation
from repro.core.mapper import MapperConfig, map_onto
from repro.core.objectives import Objective
from repro.engine.fingerprint import (
    config_fingerprint,
    constraints_fingerprint,
    core_graph_fingerprint,
    estimator_fingerprint,
    objective_fingerprint,
    sim_config_fingerprint,
    topology_fingerprint,
)
from repro.errors import (
    MappingInfeasibleError,
    ReproError,
    SimulationError,
    UnsupportedRoutingError,
)
from repro.physical.estimate import NetworkEstimator
from repro.topology.base import Topology

#: Exceptions the serial flow treats as "this candidate is out", not as a
#: crash; workers capture them into :attr:`JobResult.error`.
CAPTURED_ERRORS = (
    MappingInfeasibleError,
    UnsupportedRoutingError,
    SimulationError,
)


@dataclass(frozen=True)
class EvaluationJob:
    """One topology × routing × objective candidate to evaluate.

    Attributes:
        tag: caller-chosen label used to route the result back (the
            selector tags by topology name, the routing sweep by code).
        collect: also return every mapping the swap search evaluated
            (the Pareto exploration of Figure 9(b) needs the full cloud).
    """

    core_graph: CoreGraph
    topology: Topology
    routing: str = "MP"
    objective: Objective | str = "hops"
    constraints: Constraints | None = None
    config: MapperConfig | None = None
    estimator: NetworkEstimator | None = None
    tag: str = ""
    collect: bool = False

    def cache_key(self) -> tuple:
        """Content key identifying the work (independent of ``tag``)."""
        return (
            core_graph_fingerprint(self.core_graph),
            topology_fingerprint(self.topology),
            self.routing,
            objective_fingerprint(self.objective),
            constraints_fingerprint(self.constraints),
            config_fingerprint(self.config),
            estimator_fingerprint(self.estimator),
            self.collect,
        )


def _error_class_by_name(name: str) -> type:
    """Resolve a captured exception class name back to the class."""
    for base in CAPTURED_ERRORS:
        stack = [base]
        while stack:
            cls = stack.pop()
            if cls.__name__ == name:
                return cls
            stack.extend(cls.__subclasses__())
    return ReproError


def hash_seed(key: tuple) -> int:
    """Derive a 32-bit seed from a content key.

    Uses SHA-256 rather than Python's randomized ``hash`` (seeds must
    match across worker processes).
    """
    digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
    return int(digest[:8], 16)


@dataclass
class JobResult:
    """Outcome of one executed (or cache-served) job.

    Exactly one payload (``evaluation`` for mapping jobs, ``value`` for
    simulation jobs) or ``error`` is set: ``error`` holds the message of
    a captured :data:`CAPTURED_ERRORS` exception (the paper's "skip this
    combination" outcomes); any other exception propagates.
    """

    tag: str
    evaluation: MappingEvaluation | None = None
    #: Payload of non-mapping jobs (a :class:`~repro.simulation.stats.
    #: SimReport` for :class:`SimulationJob`); treat as read-only, it is
    #: shared with the cache entry.
    value: object | None = None
    error: str | None = None
    error_type: str | None = None
    collected: list[MappingEvaluation] = field(default_factory=list)
    cached: bool = False

    @property
    def ok(self) -> bool:
        """Whether the job produced a result (no captured error)."""
        return self.error is None

    @property
    def error_class(self) -> type | None:
        """The captured exception's class (``None`` when the job ran ok).

        Resolved by name against :data:`CAPTURED_ERRORS` and their
        subclasses, so a routing implementation raising a subclass is
        still recognized; unknown names resolve to :class:`ReproError`.
        """
        if self.error is None:
            return None
        return _error_class_by_name(self.error_type or "")

    def is_unsupported_routing(self) -> bool:
        """Whether the captured error means "routing undefined here"."""
        cls = self.error_class
        return cls is not None and issubclass(cls, UnsupportedRoutingError)

    def raise_if_error(self) -> None:
        """Re-raise the captured exception with its original type."""
        if self.error is None:
            return
        raise self.error_class(self.error)

    def retagged(self, tag: str, cached: bool) -> "JobResult":
        """Copy with a caller-facing tag/cached flag.

        The ``collected`` list is copied so callers that sort or append
        cannot poison the cached entry; the evaluations themselves are
        shared (treat them as read-only).
        """
        return replace(
            self, tag=tag, cached=cached, collected=list(self.collected)
        )


@dataclass(frozen=True)
class SimulationJob:
    """One (pattern, rate, seed) point of a simulation campaign.

    Executing the job runs one warmup/measure/drain flit-level
    measurement (:func:`repro.simulation.stats.run_measurement`) and
    returns its :class:`~repro.simulation.stats.SimReport` in
    :attr:`JobResult.value`. All randomness is derived from the job's
    *content* (``sim.seed`` and ``traffic_seed``), so results are
    bit-identical across executors, worker counts and completion orders.

    Attributes:
        pattern: synthetic pattern name from
            :data:`~repro.simulation.patterns.PATTERNS`, or ``"app"``
            for trace-driven traffic (requires ``core_graph`` and
            ``assignment``).
        rate: offered load in flits/cycle/node (see
            :func:`~repro.simulation.traffic.build_traffic` for the
            trace-traffic rescaling semantics).
        traffic_seed: seed of the traffic generator's RNG; campaign
            points that differ only in rate share it, so rate sweeps run
            under common random numbers.
        assignment: core index -> terminal slot as a sorted tuple of
            pairs (tuples keep the job hashable and picklable).
        sim: simulator parameters; its ``seed`` is mixed with
            ``traffic_seed`` to seed the network RNG.
    """

    topology: Topology
    pattern: str
    rate: float
    traffic_seed: int = 1
    sim: "object | None" = None  # SimConfig; None = defaults
    warmup: int = 500
    measure: int = 2000
    drain: int = 1500
    active_slots: tuple[int, ...] | None = None
    core_graph: CoreGraph | None = None
    assignment: tuple[tuple[int, int], ...] | None = None
    flit_width_bits: int = 32
    clock_mhz: float = 500.0
    tag: str = ""

    def cache_key(self) -> tuple:
        """Content key identifying the work (independent of ``tag``)."""
        return (
            "sim",
            topology_fingerprint(self.topology),
            self.pattern,
            self.rate,
            self.traffic_seed,
            sim_config_fingerprint(self.sim),
            self.warmup,
            self.measure,
            self.drain,
            self.active_slots,
            (
                None
                if self.core_graph is None
                else core_graph_fingerprint(self.core_graph)
            ),
            self.assignment,
            self.flit_width_bits,
            self.clock_mhz,
        )


def execute_simulation_job(job: SimulationJob) -> JobResult:
    """Run one campaign point's measurement; the executor-side entry.

    Module-level so :class:`ProcessExecutor` can pickle it. The network
    RNG seed is derived from ``(sim.seed, traffic_seed)`` content, never
    from executor or ordering state.
    """
    from repro.simulation.network import SimConfig
    from repro.simulation.stats import run_measurement
    from repro.simulation.traffic import build_traffic

    sim = job.sim or SimConfig()
    try:
        traffic = build_traffic(
            job.pattern,
            job.rate,
            seed=job.traffic_seed,
            core_graph=job.core_graph,
            assignment=(
                None if job.assignment is None else dict(job.assignment)
            ),
            flit_width_bits=job.flit_width_bits,
            clock_mhz=job.clock_mhz,
        )
        report = run_measurement(
            job.topology,
            traffic,
            config=replace(
                sim, seed=hash_seed(("net", sim.seed, job.traffic_seed))
            ),
            warmup=job.warmup,
            measure=job.measure,
            drain=job.drain,
            active_slots=(
                None if job.active_slots is None else list(job.active_slots)
            ),
            offered_rate=job.rate,
        )
    except CAPTURED_ERRORS as exc:
        return JobResult(
            tag=job.tag, error=str(exc), error_type=type(exc).__name__
        )
    return JobResult(tag=job.tag, value=report)


@dataclass(frozen=True)
class BatchSimulationJob:
    """A topology-group of campaign points run as one vectorized batch.

    The batch fast lane (:mod:`repro.simulation.batch`) advances every
    point that shares a fabric in lockstep, so a campaign submits one
    of these per fault variant instead of one :class:`SimulationJob`
    per point. The engine treats the group as *content-keyed per
    point*: each point caches (and so resumes) under its own
    ``("bsim", …)`` key — the exact kernel's ``("sim", …)`` entries are
    never served for batch points (the payloads are statistically, not
    bit-wise, equivalent) and vice versa. Batch results are independent
    of group composition (see the batch module's determinism
    contract), which is what makes per-point keys sound.

    Attributes:
        points: the grouped :class:`SimulationJob` records, all sharing
            one topology object, simulator config and active-slot set.
        tag: caller-chosen group label (per-point results keep their
            own point tags).
    """

    points: tuple[SimulationJob, ...]
    tag: str = ""

    def point_keys(self) -> list[tuple]:
        """Per-point content keys (the unit of caching and resume)."""
        return [("bsim",) + p.cache_key()[1:] for p in self.points]

    def cache_key(self) -> tuple:
        """Group key — the ordered tuple of per-point keys."""
        return ("bsim-group",) + tuple(self.point_keys())

    def subset(self, indices) -> "BatchSimulationJob":
        """The sub-batch holding only the given point indices."""
        return BatchSimulationJob(
            points=tuple(self.points[i] for i in indices), tag=self.tag
        )


def execute_batch_simulation_job(job: BatchSimulationJob) -> JobResult:
    """Run one topology-group of campaign points as an array batch.

    Module-level so :class:`ProcessExecutor` can pickle it; the batch
    simulator is imported lazily so the engine keeps no hard numpy
    dependency at import time. Returns a group :class:`JobResult`
    whose ``value`` is the ordered tuple of per-point results — a lane
    that failed on a captured error (unvectorizable pattern, no route)
    becomes an error entry while the rest of the group completes; a
    batch-level captured error fails every point.
    """
    from repro.simulation.batch import simulate_batch

    try:
        payloads = simulate_batch(job.points)
    except CAPTURED_ERRORS as exc:
        point_results = tuple(
            JobResult(
                tag=p.tag,
                error=str(exc),
                error_type=type(exc).__name__,
            )
            for p in job.points
        )
        return JobResult(tag=job.tag, value=point_results)
    point_results = tuple(
        JobResult(
            tag=p.tag,
            error=str(payload),
            error_type=type(payload).__name__,
        )
        if isinstance(payload, Exception)
        else JobResult(tag=p.tag, value=payload)
        for p, payload in zip(job.points, payloads)
    )
    return JobResult(tag=job.tag, value=point_results)


#: Metric/trace label for each job class (``repro_engine_jobs_total{kind=…}``).
_KIND_NAMES = {
    "EvaluationJob": "evaluation",
    "SimulationJob": "simulation",
    "BatchSimulationJob": "batch_sim",
}


def job_kind(job) -> str:
    """Short observability label for ``job``'s kind.

    Foreign job types (tests plug plain callables and stub classes into
    the executors) fall back to their lowercased class name.
    """
    return _KIND_NAMES.get(type(job).__name__, type(job).__name__.lower())


def run_job(job) -> JobResult:
    """Executor-side dispatcher across job kinds (must stay picklable)."""
    if isinstance(job, SimulationJob):
        return execute_simulation_job(job)
    if isinstance(job, BatchSimulationJob):
        return execute_batch_simulation_job(job)
    return execute_job(job)


def execute_job(job: EvaluationJob) -> JobResult:
    """Run one candidate's mapping search; the executor-side entry point.

    Must be a module-level function so :class:`ProcessExecutor` can pickle
    it. The mapping search is deterministic and draws no random numbers,
    so the result does not depend on the executor.
    """
    collector: list[MappingEvaluation] | None = [] if job.collect else None
    try:
        evaluation = map_onto(
            job.core_graph,
            job.topology,
            routing=job.routing,
            objective=job.objective,
            constraints=job.constraints,
            estimator=job.estimator,
            config=job.config,
            collector=collector,
        )
    except CAPTURED_ERRORS as exc:
        return JobResult(
            tag=job.tag, error=str(exc), error_type=type(exc).__name__
        )
    return JobResult(
        tag=job.tag, evaluation=evaluation, collected=collector or []
    )
