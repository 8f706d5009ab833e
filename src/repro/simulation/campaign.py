"""Closed-loop simulation campaigns over a selected topology.

SUNMAP's flow does not end at selection: the paper validates the chosen
topology by *simulating* the generated network under the application's
traffic (Sections 6.2 and 6.4). A :func:`run_campaign` sweep closes that
loop — it takes the selected topology and mapping, sweeps injection
rates and traffic patterns (application trace, uniform, hotspot,
transpose, …) across seeds, and produces latency–throughput curves with
detected saturation points and per-switch load histograms.

Every (pattern, rate, seed) point is submitted to the
:class:`~repro.engine.engine.ExplorationEngine` as a
:class:`~repro.engine.jobs.SimulationJob`, so campaigns parallelize over
worker processes and memoize through the engine's content-keyed cache
exactly like selection does; ``jobs=1`` and ``jobs=N`` produce
bit-identical :class:`CampaignResult`\\ s.

Typical use::

    from repro import run_sunmap, vopd
    from repro.simulation.campaign import CampaignConfig

    report = run_sunmap(vopd(), simulate=CampaignConfig(), jobs=4)
    print(report.campaign.summary())
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

from repro.core.coregraph import CoreGraph
from repro.engine.engine import ExplorationEngine, resolve_engine
from repro.engine.jobs import BatchSimulationJob, SimulationJob
from repro.errors import SimulationError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.simulation.network import SimConfig
from repro.simulation.patterns import APP_PATTERN, PATTERNS
from repro.simulation.stats import SimReport
from repro.topology.base import Topology

#: Default injection-rate sweep in flits/cycle/node: dense at low load
#: where curves are flat, reaching past the saturation knee of every
#: library topology at 12-16 nodes.
DEFAULT_RATES = (0.05, 0.1, 0.2, 0.35, 0.5, 0.7)

#: Default pattern mix: the application trace plus the three synthetic
#: scenarios the related Pareto-exploration work sweeps.
DEFAULT_PATTERNS = (APP_PATTERN, "uniform", "hotspot", "transpose")

_POINTS_PER_SEC = obs_metrics.REGISTRY.gauge(
    "repro_campaign_points_per_sec",
    "Throughput of the most recent campaign sweep (points per second)",
)


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one campaign sweep.

    Attributes:
        rates: offered loads in flits/cycle/node, strictly increasing.
        patterns: traffic patterns to sweep — names from
            :data:`~repro.simulation.patterns.PATTERNS` plus ``"app"``
            for trace-driven traffic.
        seeds: traffic seeds; curve statistics average across them.
        sim: simulator parameters (``None`` = :class:`SimConfig`
            defaults).
        warmup/measure/drain: the per-point measurement protocol (see
            :func:`~repro.simulation.stats.run_measurement`).
        faults: dead random inter-switch links per fault variant
            (0 = pristine fabric only). Each fault seed samples its own
            non-partitioning fault set via
            :func:`repro.faults.sample_faults` and the whole
            rates × patterns × seeds sweep repeats on that degraded
            fabric; curves average across fault seeds like they do
            across traffic seeds.
        fault_seeds: sampling seeds for the fault variants (ignored and
            normalized to ``()`` when ``faults`` is 0, so pristine
            configs compare equal however they were spelled).
        saturation_threshold: a point saturates when fewer than this
            fraction of measured packets is delivered…
        latency_blowup: …or when its average latency exceeds this
            multiple of the curve's zero-load (first-rate) latency.
        sim_engine: which simulator lane measures the points —
            ``"exact"`` (default) runs the bit-identical reference
            kernel one point at a time; ``"batch"`` advances every
            point of a fault variant in lockstep through the
            vectorized :mod:`~repro.simulation.batch` kernel
            (statistically equivalent, much faster — see
            ARCHITECTURE.md's determinism table).
    """

    rates: tuple[float, ...] = DEFAULT_RATES
    patterns: tuple[str, ...] = DEFAULT_PATTERNS
    seeds: tuple[int, ...] = (1,)
    sim: SimConfig | None = None
    warmup: int = 500
    measure: int = 2000
    drain: int = 1500
    flit_width_bits: int = 32
    clock_mhz: float = 500.0
    faults: int = 0
    fault_seeds: tuple[int, ...] = (1,)
    saturation_threshold: float = 0.9
    latency_blowup: float = 4.0
    sim_engine: str = "exact"

    def __post_init__(self):
        if self.sim_engine not in ("exact", "batch"):
            raise SimulationError(
                "campaign sim_engine must be 'exact' or 'batch', "
                f"got {self.sim_engine!r}"
            )
        if not self.rates:
            raise SimulationError("campaign needs at least one rate")
        if any(r <= 0 for r in self.rates):
            raise SimulationError("campaign rates must be positive")
        if list(self.rates) != sorted(set(self.rates)):
            raise SimulationError(
                "campaign rates must be strictly increasing"
            )
        if not self.patterns:
            raise SimulationError("campaign needs at least one pattern")
        if len(set(self.patterns)) != len(self.patterns):
            # Repeats would silently double-count curves and histograms.
            raise SimulationError("campaign patterns must be unique")
        for pattern in self.patterns:
            if pattern != APP_PATTERN and pattern not in PATTERNS:
                raise SimulationError(
                    f"unknown campaign pattern {pattern!r}; choose from "
                    f"{sorted(PATTERNS) + [APP_PATTERN]}"
                )
        if not self.seeds:
            raise SimulationError("campaign needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise SimulationError("campaign seeds must be unique")
        if self.faults < 0:
            raise SimulationError("campaign fault count must be >= 0")
        if self.faults == 0:
            object.__setattr__(self, "fault_seeds", ())
        else:
            object.__setattr__(
                self, "fault_seeds", tuple(self.fault_seeds)
            )
            if not self.fault_seeds:
                raise SimulationError(
                    "campaign sweeps faults but has no fault seeds"
                )
            if len(set(self.fault_seeds)) != len(self.fault_seeds):
                raise SimulationError("campaign fault seeds must be unique")
        if not 0 < self.saturation_threshold <= 1:
            raise SimulationError(
                "saturation threshold must be in (0, 1]"
            )
        if self.latency_blowup <= 1:
            raise SimulationError("latency blowup must exceed 1")

    @property
    def num_points(self) -> int:
        return (
            len(self.rates)
            * len(self.patterns)
            * len(self.seeds)
            * (len(self.fault_seeds) or 1)
        )


@dataclass(frozen=True)
class CampaignPoint:
    """One measured (pattern, rate, seed[, fault seed]) sample.

    ``fault_seed`` names the fault variant the point ran on, or
    ``None`` for the pristine fabric. ``sim_engine`` records which
    simulator lane produced the report (``"exact"`` or ``"batch"``),
    so mixed-provenance result sets stay attributable.
    """

    pattern: str
    rate: float
    seed: int
    report: SimReport
    fault_seed: int | None = None
    sim_engine: str = "exact"


@dataclass(frozen=True)
class CampaignCurve:
    """Latency–throughput curve of one pattern (seed-averaged).

    ``saturation_rate`` is the first swept rate at which the pattern
    saturates (delivery collapse or latency blowup — see
    :func:`detect_saturation`), or ``None`` if the sweep never reaches
    saturation.
    """

    pattern: str
    rates: tuple[float, ...]
    avg_latency: tuple[float, ...]
    p95_latency: tuple[float, ...]
    throughput: tuple[float, ...]
    delivered: tuple[float, ...]
    saturation_rate: float | None

    def pre_saturation(self) -> tuple[tuple[float, float], ...]:
        """The (rate, avg latency) points strictly below saturation."""
        stop = (
            len(self.rates)
            if self.saturation_rate is None
            else self.rates.index(self.saturation_rate)
        )
        return tuple(zip(self.rates[:stop], self.avg_latency[:stop]))


def detect_saturation(
    rates,
    latencies,
    delivered,
    threshold: float = 0.9,
    blowup: float = 4.0,
) -> float | None:
    """First rate at which a latency curve saturates, else ``None``.

    A point saturates when its delivered fraction drops below
    ``threshold``, its latency is unbounded (no measured packet made it
    out), or its average latency exceeds ``blowup`` times the curve's
    zero-load baseline — the first finite, *non-saturated* point (a
    finite latency measured while delivery had already collapsed is a
    congestion artifact, not a baseline).

    Raises:
        ValueError: the three sequences differ in length (a silent
            ``zip`` truncation here would drop sweep points from the
            saturation scan).
    """
    if not len(rates) == len(latencies) == len(delivered):
        raise ValueError(
            "detect_saturation needs equal-length rates/latencies/"
            f"delivered, got {len(rates)}/{len(latencies)}/"
            f"{len(delivered)}"
        )
    base = next(
        (
            lat
            for lat, frac in zip(latencies, delivered)
            if math.isfinite(lat) and frac >= threshold
        ),
        None,
    )
    for rate, latency, frac in zip(rates, latencies, delivered):
        if frac < threshold or not math.isfinite(latency):
            return rate
        if base is not None and latency > blowup * base:
            return rate
    return None


@dataclass
class CampaignResult:
    """Everything one campaign produced.

    Attributes:
        points: every measured sample, in sweep order (fault-variant
            major, then pattern, rate, seed).
        curves: per-pattern latency–throughput curves, averaged across
            traffic seeds and fault seeds alike.
        switch_loads: per-pattern per-switch load histogram — flits
            forwarded during the measurement window, summed over rates,
            seeds and fault variants (``{pattern: {switch_label:
            flits}}``).
        degraded: the campaign hit its ``deadline_s`` and returned
            partial results.
        skipped_points: sweep points never executed because the
            deadline expired first.
        runtime: throughput attribution for this run — ``{"sim_engine",
            "wall_clock_s", "points_per_sec"}`` measured around the
            engine passes. Volatile by nature (wall clock), so
            bit-identity comparisons go through :func:`strip_runtime`.
    """

    topology_name: str
    application: str | None
    config: CampaignConfig
    points: list[CampaignPoint] = field(default_factory=list)
    curves: dict[str, CampaignCurve] = field(default_factory=dict)
    switch_loads: dict[str, dict[str, int]] = field(default_factory=dict)
    degraded: bool = False
    skipped_points: int = 0
    runtime: dict | None = None

    def saturation_rates(self) -> dict[str, float | None]:
        """Detected saturation rate per pattern (``None`` = never)."""
        return {
            pattern: curve.saturation_rate
            for pattern, curve in self.curves.items()
        }

    def to_dict(self) -> dict:
        """JSON-able form (used by reports and bit-identity checks).

        Fault keys (``config.faults``/``config.fault_seeds`` and the
        per-point ``fault_seed``) appear only when the campaign swept
        faults, so pristine campaign dictionaries are byte-identical to
        what they were before the fault axis existed. The same contract
        covers the batch lane: ``sim_engine`` keys (config and
        per-point) appear only when it differs from ``"exact"``. The
        ``runtime`` block is the one intentionally volatile key (wall
        clock); strip it with :func:`strip_runtime` before bit-identity
        comparisons.
        """
        config_dict = {
            "rates": list(self.config.rates),
            "patterns": list(self.config.patterns),
            "seeds": list(self.config.seeds),
            "sim": asdict(self.config.sim or SimConfig()),
            "warmup": self.config.warmup,
            "measure": self.config.measure,
            "drain": self.config.drain,
        }
        if self.config.faults:
            config_dict["faults"] = self.config.faults
            config_dict["fault_seeds"] = list(self.config.fault_seeds)
        if self.config.sim_engine != "exact":
            config_dict["sim_engine"] = self.config.sim_engine

        def _point_dict(p: CampaignPoint) -> dict:
            entry = {
                "pattern": p.pattern,
                "rate": p.rate,
                "seed": p.seed,
                "avg_latency": p.report.avg_latency,
                "p95_latency": p.report.p95_latency,
                "delivered_fraction": p.report.delivered_fraction,
                "throughput": p.report.throughput_flits_per_cycle,
                "measured_packets": p.report.measured_packets,
                "switch_loads": [list(sl) for sl in p.report.switch_loads],
            }
            if p.fault_seed is not None:
                entry["fault_seed"] = p.fault_seed
            if p.sim_engine != "exact":
                entry["sim_engine"] = p.sim_engine
            return entry

        data = {
            "topology": self.topology_name,
            "application": self.application,
            "config": config_dict,
            "curves": {
                pattern: {
                    "rates": list(curve.rates),
                    "avg_latency": list(curve.avg_latency),
                    "p95_latency": list(curve.p95_latency),
                    "throughput": list(curve.throughput),
                    "delivered": list(curve.delivered),
                    "saturation_rate": curve.saturation_rate,
                }
                for pattern, curve in self.curves.items()
            },
            "switch_loads": {
                pattern: dict(loads)
                for pattern, loads in self.switch_loads.items()
            },
            "points": [_point_dict(p) for p in self.points],
        }
        # Deadline keys appear only on partial runs (same contract as
        # the fault keys above).
        if self.degraded:
            data["degraded"] = True
            data["skipped_points"] = self.skipped_points
        if self.runtime is not None:
            data["runtime"] = dict(self.runtime)
        return data

    def summary(self) -> str:
        """Human-readable curve tables plus saturation and hot switches."""
        fault_note = (
            f" x {len(self.config.fault_seeds)} fault variants "
            f"(k={self.config.faults} dead links)"
            if self.config.faults
            else ""
        )
        lines = [
            f"campaign: {self.application or '(synthetic)'} on "
            f"{self.topology_name} "
            f"({len(self.config.patterns)} patterns x "
            f"{len(self.config.rates)} rates x "
            f"{len(self.config.seeds)} seeds{fault_note})"
        ]
        header = (
            f"{'pattern':<12}{'rate':>7}{'avg lat':>9}{'p95':>8}"
            f"{'thrpt':>8}{'delivered':>11}"
        )
        lines += [header, "-" * len(header)]
        for pattern, curve in self.curves.items():
            for i, rate in enumerate(curve.rates):
                mark = (
                    " <- saturated"
                    if curve.saturation_rate is not None
                    and rate >= curve.saturation_rate
                    else ""
                )
                lines.append(
                    f"{pattern:<12}{rate:>7.3f}"
                    f"{_fmt(curve.avg_latency[i]):>9}"
                    f"{_fmt(curve.p95_latency[i]):>8}"
                    f"{curve.throughput[i]:>8.3f}"
                    f"{curve.delivered[i] * 100:>10.1f}%{mark}"
                )
        sat = ", ".join(
            f"{p}: {('%.3f' % r) if r is not None else 'not reached'}"
            for p, r in self.saturation_rates().items()
        )
        lines.append(f"saturation rates  {sat}")
        for pattern, loads in self.switch_loads.items():
            hottest = sorted(
                loads.items(), key=lambda kv: (-kv[1], kv[0])
            )[:3]
            hot = ", ".join(f"{name} ({flits})" for name, flits in hottest)
            lines.append(f"hottest switches  {pattern}: {hot}")
        if self.degraded:
            lines.append(
                "DEGRADED          deadline expired; "
                f"{self.skipped_points} points skipped"
            )
        if self.runtime is not None:
            # Deliberately the only wall-clock-volatile summary line,
            # and it always starts with "runtime" so byte-identity
            # consumers (CI resume diff) can filter it.
            lines.append(
                f"runtime           {self.runtime['sim_engine']} engine: "
                f"{self.runtime['wall_clock_s']:.2f}s wall, "
                f"{self.runtime['points_per_sec']:.1f} points/s"
            )
        return "\n".join(lines)


def strip_runtime(payload: dict) -> dict:
    """A copy of a campaign dict without the volatile ``runtime`` block.

    :meth:`CampaignResult.to_dict` is byte-stable except for the
    wall-clock throughput record; identity checks (resume vs clean run,
    ``jobs=1`` vs ``jobs=N``) compare ``strip_runtime(a) ==
    strip_runtime(b)``.
    """
    cleaned = dict(payload)
    cleaned.pop("runtime", None)
    return cleaned


def campaign_fault_variants(
    topology: Topology, config: CampaignConfig
) -> list[tuple[int | None, Topology]]:
    """The fabrics a campaign sweeps: ``(fault_seed, topology)`` pairs.

    ``faults == 0`` yields the pristine topology alone (fault seed
    ``None``); otherwise one deterministic, non-partitioning
    :class:`~repro.faults.FaultedTopology` per fault seed. Sampling is a
    pure function of (topology name, k, seed), so every caller — job
    builder, result assembly, a jobs=N worker — reconstructs the
    identical variants.

    Raises:
        TopologyError: a fault seed found no non-partitioning fault set
            (e.g. more dead links requested than the fabric can lose).
    """
    if config.faults <= 0:
        return [(None, topology)]
    from repro.faults import FaultedTopology, sample_faults

    return [
        (
            fault_seed,
            FaultedTopology(
                topology,
                sample_faults(topology, config.faults, seed=fault_seed),
            ),
        )
        for fault_seed in config.fault_seeds
    ]


def campaign_jobs(
    topology: Topology,
    config: CampaignConfig,
    core_graph: CoreGraph | None = None,
    assignment: dict[int, int] | None = None,
    active_slots: list[int] | None = None,
) -> list[SimulationJob]:
    """The campaign's job list, in deterministic sweep order.

    Fault-variant major, then pattern, rate, seed — every fault variant
    repeats the full pristine sweep on its degraded fabric, as ordinary
    engine jobs (parallel, cached, bit-identical across jobs=N).
    """
    slots = (
        tuple(active_slots)
        if active_slots is not None
        else (
            tuple(sorted(assignment.values()))
            if assignment is not None
            else None
        )
    )
    packed = (
        None if assignment is None else tuple(sorted(assignment.items()))
    )
    jobs = []
    for fault_seed, fabric in campaign_fault_variants(topology, config):
        fault_tag = "" if fault_seed is None else f"/f{fault_seed}"
        for pattern in config.patterns:
            for rate in config.rates:
                for seed in config.seeds:
                    jobs.append(
                        SimulationJob(
                            topology=fabric,
                            pattern=pattern,
                            rate=rate,
                            traffic_seed=seed,
                            sim=config.sim,
                            warmup=config.warmup,
                            measure=config.measure,
                            drain=config.drain,
                            active_slots=slots,
                            core_graph=(
                                core_graph
                                if pattern == APP_PATTERN
                                else None
                            ),
                            assignment=(
                                packed if pattern == APP_PATTERN else None
                            ),
                            flit_width_bits=config.flit_width_bits,
                            clock_mhz=config.clock_mhz,
                            tag=f"{pattern}@{rate:g}/s{seed}{fault_tag}",
                        )
                    )
    return jobs


def run_campaign(
    topology: Topology,
    core_graph: CoreGraph | None = None,
    assignment: dict[int, int] | None = None,
    config: CampaignConfig | None = None,
    engine: ExplorationEngine | None = None,
    jobs: int = 1,
    cache_backend=None,
    deadline_s: float | None = None,
) -> CampaignResult:
    """Sweep a topology across patterns, rates and seeds.

    Args:
        topology: the network to validate (typically the selection
            winner).
        core_graph: the application, required when the config sweeps the
            ``"app"`` trace pattern.
        assignment: core index -> terminal slot mapping (the selection
            winner's); also restricts synthetic traffic endpoints to the
            mapped slots.
        config: sweep specification; defaults to :class:`CampaignConfig`.
        engine: explicit engine (overrides ``jobs``); pass the selection
            engine to share its evaluation cache across phases.
        jobs: parallel worker processes (1 = serial); the result is
            bit-identical regardless of ``jobs``.
        cache_backend: persistent cache storage spec (e.g.
            ``"sqlite:evals.db"``) for the engine built when ``engine``
            is not given; warm campaign points skip simulation, so a
            killed sweep rerun on the same store resumes point-exactly.
            Passing it together with ``engine`` is a
            :class:`ValueError`.
        deadline_s: optional wall-clock budget; the sweep runs in
            units — per-(fault variant, pattern) chunks on the exact
            lane, per-fault-variant groups on the batch lane — and
            stops scheduling new units once the budget is spent,
            returning partial results flagged
            :attr:`CampaignResult.degraded` (at least the first unit
            always runs). ``None`` (default) runs the exact lane's
            whole sweep as a single engine pass.

    Raises:
        SimulationError: invalid config, or ``"app"`` swept without a
            core graph and assignment.

    A point the engine could not complete within its retry budget
    re-raises that point's original exception; nothing is cached for
    it, so a rerun on the same store retries it.
    """
    config = config or CampaignConfig()
    if APP_PATTERN in config.patterns and (
        core_graph is None or assignment is None
    ):
        raise SimulationError(
            "campaign sweeps the 'app' trace pattern but no core graph "
            "and mapping were given; pass core_graph= and assignment=, "
            "or drop 'app' from CampaignConfig.patterns"
        )
    engine = resolve_engine(engine, jobs, cache_backend)
    job_list = campaign_jobs(
        topology, config, core_graph=core_graph, assignment=assignment
    )
    result = CampaignResult(
        topology_name=topology.name,
        application=None if core_graph is None else core_graph.name,
        config=config,
    )
    # Jobs are fault-variant major: recover each point's fault seed from
    # its index (campaign_fault_variants is deterministic, so this
    # matches the fabrics campaign_jobs actually submitted).
    fault_seeds = [
        fs for fs, _ in campaign_fault_variants(topology, config)
    ]
    per_variant = len(job_list) // len(fault_seeds)
    started = time.perf_counter()
    # One loop over execution units, with one deadline check. Batch
    # lane: one vectorized group per fault variant (a group shares a
    # fabric, so one batch layout advances its rates × patterns × seeds
    # sweep in lockstep; the engine still caches it per point). Exact lane: the whole sweep as one engine pass (one
    # executor fan-out) or, under a deadline, one chunk per (fault
    # variant, pattern), so an expired deadline skips whole curve
    # groups. The first unit always runs, so a degraded result is
    # partial, never empty.
    if config.sim_engine == "batch":
        size = per_variant
    elif deadline_s is None:
        size = len(job_list)
    else:
        size = len(config.rates) * len(config.seeds)
    deadline = None if deadline_s is None else time.monotonic() + deadline_s
    outcomes = []
    for start in range(0, len(job_list), size):
        if deadline is not None and start and time.monotonic() >= deadline:
            result.degraded = True
            result.skipped_points = len(job_list) - start
            break
        unit = job_list[start:start + size]
        if config.sim_engine == "exact":
            outcomes.extend(engine.run(unit))
            continue
        fault_seed = fault_seeds[start // per_variant]
        group = BatchSimulationJob(
            points=tuple(unit),
            tag="batch" if fault_seed is None else f"batch/f{fault_seed}",
        )
        outcomes.extend(engine.run([group])[0].value)
    wall = time.perf_counter() - started
    result.runtime = {
        "sim_engine": config.sim_engine,
        "wall_clock_s": round(wall, 6),
        "points_per_sec": round(len(outcomes) / wall, 2) if wall else 0.0,
    }
    # Observability (passive): the gauge and retrospective span mirror
    # the runtime block — result payload bytes are untouched.
    _POINTS_PER_SEC.set(result.runtime["points_per_sec"])
    obs_trace.emit(
        "campaign.run",
        wall,
        topology=topology.name,
        sim_engine=config.sim_engine,
        points=len(outcomes),
        degraded=result.degraded,
    )
    for i, (job, outcome) in enumerate(zip(job_list, outcomes)):
        fault_seed = fault_seeds[i // per_variant]
        outcome.raise_if_error()
        result.points.append(
            CampaignPoint(
                pattern=job.pattern,
                rate=job.rate,
                seed=job.traffic_seed,
                report=outcome.value,
                fault_seed=fault_seed,
                sim_engine=config.sim_engine,
            )
        )

    by_pattern: dict[str, list[CampaignPoint]] = {}
    for point in result.points:
        by_pattern.setdefault(point.pattern, []).append(point)
    for pattern, points in by_pattern.items():
        result.curves[pattern] = _build_curve(pattern, points, config)
        loads: dict[str, int] = {}
        for point in points:
            for label, flits in point.report.switch_loads:
                loads[label] = loads.get(label, 0) + flits
        result.switch_loads[pattern] = dict(sorted(loads.items()))
    return result


def _build_curve(
    pattern: str, points: list[CampaignPoint], config: CampaignConfig
) -> CampaignCurve:
    """Average one pattern's points across seeds into a curve."""
    by_rate: dict[float, list[SimReport]] = {}
    for point in points:
        by_rate.setdefault(point.rate, []).append(point.report)
    rates = tuple(sorted(by_rate))
    avg = tuple(_mean([r.avg_latency for r in by_rate[x]]) for x in rates)
    p95 = tuple(_mean([r.p95_latency for r in by_rate[x]]) for x in rates)
    thr = tuple(
        _mean([r.throughput_flits_per_cycle for r in by_rate[x]])
        for x in rates
    )
    dlv = tuple(
        _mean([r.delivered_fraction for r in by_rate[x]]) for x in rates
    )
    return CampaignCurve(
        pattern=pattern,
        rates=rates,
        avg_latency=avg,
        p95_latency=p95,
        throughput=thr,
        delivered=dlv,
        saturation_rate=detect_saturation(
            rates,
            avg,
            dlv,
            threshold=config.saturation_threshold,
            blowup=config.latency_blowup,
        ),
    )


def _mean(values: list[float]) -> float:
    """Mean that propagates unbounded (saturated) samples.

    Uses :func:`math.fsum` so the average is exactly rounded and
    therefore independent of summation order — batch grouping completes
    points in a different order than the exact lane, and curve
    statistics must not depend on which lane (or which batch
    composition) produced them.
    """
    if any(not math.isfinite(v) for v in values):
        return float("inf")
    return math.fsum(values) / len(values)


def _fmt(value: float) -> str:
    return "inf" if not math.isfinite(value) else f"{value:.1f}"
