"""Benchmark: serial vs parallel design-space exploration.

Runs the full topology-selection sweep (every topology × routing ×
objective candidate) over the paper's four applications through the
:class:`~repro.engine.ExplorationEngine`, once with the serial executor
and once with a process pool, and reports wall time, speedup and result
identity. The parallel run must reproduce the serial results bit for
bit — same winners, same costs — which this script asserts on every run.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_parallel.py
    PYTHONPATH=src python benchmarks/bench_engine_parallel.py --smoke
    PYTHONPATH=src python benchmarks/bench_engine_parallel.py \
        --jobs 8 --routings MP SM --objectives hops power

``--smoke`` shrinks the sweep to one app × one routing × one objective
with a single-pass swap search — the reduced budget CI uses to keep this
script from rotting.

On a machine with >= 4 CPUs (and no --smoke) the script exits non-zero
unless the parallel sweep is at least MIN_SPEEDUP faster; on smaller
machines the speedup is reported but not enforced.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.apps import dsp_filter, mpeg4, network_processor, vopd
from repro.core.mapper import MapperConfig
from repro.engine import ExplorationEngine, make_executor

#: Required parallel-over-serial factor on a >= 4-core machine.
MIN_SPEEDUP = 1.5

APPS = {
    "vopd": vopd,
    "mpeg4": mpeg4,
    "dsp": dsp_filter,
    "netproc": network_processor,
}


def run_sweep(apps, routings, objectives, config, jobs):
    """One full sweep; returns (wall seconds, comparable result digest)."""
    executor = make_executor(jobs)
    start = time.perf_counter()
    digest = {}
    for name, build in apps.items():
        engine = ExplorationEngine(executor=executor)
        results = engine.sweep(
            build(),
            routings=routings,
            objectives=objectives,
            config=config,
        )
        for key, result in sorted(results.items()):
            if result.ok:
                ev = result.evaluation
                digest[(name, *key)] = (
                    round(ev.cost, 9),
                    ev.feasible,
                    tuple(sorted(ev.assignment.items())),
                )
            else:
                digest[(name, *key)] = (result.error_type, result.error)
    return time.perf_counter() - start, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--jobs", type=int, default=0,
        help="parallel workers (0 = one per CPU)",
    )
    parser.add_argument(
        "--apps", nargs="+", choices=sorted(APPS), default=sorted(APPS),
    )
    parser.add_argument(
        "--routings", nargs="+", default=["MP", "SM"],
        choices=["DO", "MP", "SM", "SA"],
    )
    parser.add_argument(
        "--objectives", nargs="+", default=["hops", "power"],
        choices=["hops", "area", "power", "bandwidth"],
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced budget for CI: vopd only, one candidate class, "
        "single swap pass",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        apps = {"vopd": APPS["vopd"]}
        routings, objectives = ["MP"], ["hops"]
        config = MapperConfig(max_rounds=1)
    else:
        apps = {name: APPS[name] for name in args.apps}
        routings, objectives = args.routings, args.objectives
        config = MapperConfig()

    cpus = os.cpu_count() or 1
    workers = args.jobs or cpus
    candidates = len(apps) * 5 * len(routings) * len(objectives)
    print(
        f"sweep: {len(apps)} apps x 5 topologies x {len(routings)} routings"
        f" x {len(objectives)} objectives = {candidates} candidates"
        f" | {cpus} CPUs, {workers} workers"
    )

    serial_s, serial_digest = run_sweep(
        apps, routings, objectives, config, jobs=1
    )
    print(f"serial   ({candidates} jobs): {serial_s:8.2f} s")
    parallel_s, parallel_digest = run_sweep(
        apps, routings, objectives, config, jobs=workers
    )
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print(f"parallel ({workers} workers): {parallel_s:8.2f} s")
    print(f"speedup: {speedup:.2f}x")

    if parallel_digest != serial_digest:
        print("FAIL: parallel results differ from serial results")
        for key in sorted(serial_digest):
            if serial_digest[key] != parallel_digest.get(key):
                print(f"  {key}:")
                print(f"    serial:   {serial_digest[key]}")
                print(f"    parallel: {parallel_digest.get(key)}")
        return 1
    print(f"results: identical across executors ({len(serial_digest)} rows)")

    if not args.smoke and cpus >= 4 and speedup < MIN_SPEEDUP:
        print(f"FAIL: speedup {speedup:.2f}x < {MIN_SPEEDUP}x on {cpus} CPUs")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
