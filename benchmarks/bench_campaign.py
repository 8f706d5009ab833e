"""Benchmark: closed-loop simulation campaigns through the engine.

Sweeps one application's mapped design across injection rates, traffic
patterns and seeds (``repro.simulation.campaign``), once serially and
once through a process pool, and reports wall time, speedup, cache
behaviour and result identity. The parallel campaign must reproduce the
serial one bit for bit — same curves, same saturation points — which
this script asserts on every run, along with a monotone-until-saturation
shape check on the application-trace curve.

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign.py
    PYTHONPATH=src python benchmarks/bench_campaign.py --smoke --jobs 2
    PYTHONPATH=src python benchmarks/bench_campaign.py \
        --app dsp --topology hypercube --rates 0.05 0.1 0.2 0.4

``--smoke`` shrinks the sweep to a tiny vopd rate grid — the reduced
budget CI uses to keep this script from rotting.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from repro.apps import dsp_filter, mpeg4, network_processor, vopd
from repro.core.greedy import initial_greedy_mapping
from repro.engine import ExplorationEngine, make_executor
from repro.simulation.campaign import (
    CampaignConfig,
    run_campaign,
    strip_runtime,
)
from repro.topology.library import make_topology

APPS = {
    "vopd": vopd,
    "mpeg4": mpeg4,
    "dsp": dsp_filter,
    "netproc": network_processor,
}

#: Tolerated relative latency dip between consecutive pre-saturation
#: points (finite-sample noise at low load).
MONOTONE_SLACK = 0.10


def run_once(topology, app, assignment, config, jobs):
    """One campaign; returns (wall seconds, result, engine)."""
    engine = ExplorationEngine(executor=make_executor(jobs))
    start = time.perf_counter()
    result = run_campaign(
        topology,
        core_graph=app,
        assignment=assignment,
        config=config,
        engine=engine,
    )
    return time.perf_counter() - start, result, engine


def check_curve_shape(curve) -> list[str]:
    """Monotone-until-saturation violations of one curve (empty = ok)."""
    problems = []
    pre = curve.pre_saturation()
    for (r0, l0), (r1, l1) in zip(pre, pre[1:]):
        if math.isfinite(l0) and l1 < l0 * (1 - MONOTONE_SLACK):
            problems.append(
                f"{curve.pattern}: latency fell {l0:.1f} -> {l1:.1f} "
                f"between rates {r0:g} and {r1:g}"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--app", choices=sorted(APPS), default="vopd")
    parser.add_argument("--topology", default="mesh")
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="parallel workers (0 = one per CPU)",
    )
    parser.add_argument(
        "--rates", nargs="+", type=float,
        default=[0.05, 0.1, 0.2, 0.35, 0.5, 0.7],
    )
    parser.add_argument(
        "--patterns", nargs="+",
        default=["app", "uniform", "hotspot", "transpose"],
    )
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    parser.add_argument("--measure", type=int, default=3000)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced budget for CI: tiny vopd rate grid, short runs",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.app, args.topology = "vopd", "mesh"
        args.rates = [0.1, 0.4]
        args.patterns = ["app", "uniform"]
        args.seeds = [1]
        args.measure = 800

    app = APPS[args.app]()
    topology = make_topology(args.topology, app.num_cores)
    assignment = initial_greedy_mapping(app, topology)
    config = CampaignConfig(
        rates=tuple(args.rates),
        patterns=tuple(args.patterns),
        seeds=tuple(args.seeds),
        warmup=max(200, args.measure // 4),
        measure=args.measure,
        drain=max(400, args.measure // 2),
    )

    cpus = os.cpu_count() or 1
    workers = args.jobs or cpus
    print(
        f"campaign: {app.name} on {topology.name} | "
        f"{len(config.patterns)} patterns x {len(config.rates)} rates x "
        f"{len(config.seeds)} seeds = {config.num_points} points | "
        f"{cpus} CPUs, {workers} workers"
    )

    serial_s, serial, _ = run_once(topology, app, assignment, config, 1)
    print(f"serial   ({config.num_points} jobs): {serial_s:8.2f} s")
    parallel_s, parallel, engine = run_once(
        topology, app, assignment, config, workers
    )
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print(f"parallel ({workers} workers): {parallel_s:8.2f} s")
    print(f"speedup: {speedup:.2f}x")

    if strip_runtime(serial.to_dict()) != strip_runtime(
            parallel.to_dict()):
        print("FAIL: parallel campaign differs from serial campaign")
        return 1
    print("results: identical across executors")

    # Re-running through the same engine must be served from cache.
    start = time.perf_counter()
    run_campaign(
        topology,
        core_graph=app,
        assignment=assignment,
        config=config,
        engine=engine,
    )
    cached_s = time.perf_counter() - start
    print(
        f"cached rerun: {cached_s:8.2f} s "
        f"({engine.cache})"
    )

    problems = []
    for curve in serial.curves.values():
        problems += check_curve_shape(curve)
    if problems:
        print("FAIL: non-monotone pre-saturation latency curve(s):")
        for p in problems:
            print(f"  {p}")
        return 1
    sat = ", ".join(
        f"{p}: {('%g' % r) if r is not None else 'none'}"
        for p, r in serial.saturation_rates().items()
    )
    print(f"curve shapes ok | saturation rates: {sat}")
    print(serial.summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
