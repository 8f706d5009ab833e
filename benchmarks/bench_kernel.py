"""Kernel + full-flow performance benchmark with a committed trajectory.

Measures the two hot paths the integer-indexed kernel PR rewrote:

* **kernel** — simulated cycles/sec of the wormhole simulator, both as
  pure-kernel burst drains (packets pre-queued, ``step(None)`` only) and
  as open-loop runs with a synthetic traffic generator attached;
* **full_flow** — wall-clock seconds of the complete ``run_sunmap``
  selection flow per benchmark application (the Section 6.4 "few
  minutes on a 1 GHz SUN workstation" claim; perfbench's ``flow-hops``
  workload is the end-to-end record of it).

Results land in ``BENCH_kernel.json`` at the repo root:

* ``baseline`` — the pre-rewrite kernel, measured at the commit before
  this PR on the recording machine (kept verbatim so future PRs have a
  trajectory to regress against);
* ``current`` — the numbers of the checked-out code on the last
  recording machine;
* ``speedup`` — current vs. baseline (geometric mean for cycles/sec,
  aggregate-seconds ratio for the full flow).

Usage::

    python benchmarks/bench_kernel.py            # full run, rewrites current
    python benchmarks/bench_kernel.py --smoke    # reduced budget (CI)
    python benchmarks/bench_kernel.py --smoke --check
        # exit 1 if cycles/sec regressed > 30% vs the committed current

``--check`` compares freshly measured cycles/sec against the committed
``current`` section *before* rewriting it, so a kernel regression fails
CI while normal machine-to-machine variance (30% headroom) does not.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from random import Random

from repro.apps import load_application
from repro.core.constraints import Constraints
from repro.core.mapper import MapperConfig
from repro.simulation.network import Network, SimConfig
from repro.simulation.traffic import SyntheticTraffic
from repro.sunmap import run_sunmap
from repro.topology.library import make_topology

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

#: Acceptable cycles/sec ratio vs the committed numbers before --check
#: fails (a >30% regression).
MIN_CHECK_RATIO = 0.7

KERNEL_CASES = [
    # name, topology, cores, open-loop injection rate
    ("mesh16", "mesh", 16, 0.25),
    ("torus16", "torus", 16, 0.30),
    ("clos12", "clos", 12, 0.20),
]

FLOW_CASES = [
    # app, routing, link capacity (None = paper default)
    ("vopd", "MP", None),
    ("mpeg4", "SM", None),
    ("dsp", "MP", 1000.0),
]


def _calibrate(loops: int = 200_000, reps: int = 3) -> float:
    """Machine-speed proxy: ops/sec of a fixed pure-Python loop.

    Recorded next to every measurement and used by ``--check`` to
    normalize cycles/sec across machines — CI runners are slower than
    the workstation that recorded the committed numbers, and comparing
    raw wall-clock throughput across machines would fail the gate
    without any code regression. The loop's mix (list indexing, dict
    gets, int arithmetic) roughly matches the simulator kernel's.
    """
    best = 0.0
    cells = list(range(64))
    table = {i: i + 1 for i in range(64)}
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        get = table.get
        for i in range(loops):
            j = i & 63
            acc += cells[j] + get(j, 0)
        wall = time.perf_counter() - start
        best = max(best, loops / wall)
    return round(best, 1)


def burst_drain(topo_name: str, n: int, bursts: int = 12,
                burst_size: int = 60, seed: int = 13) -> tuple[int, float]:
    """Pure-kernel throughput: inject a packet burst, drain, repeat.

    Packet creation happens between the timed segments, so the metric
    isolates the switch/flit kernel (no traffic-generator cost).
    """
    topo = make_topology(topo_name, n)
    net = Network(topo, SimConfig(seed=1))
    rng = Random(seed)
    slots = net.active_slots
    cycles = 0
    wall = 0.0
    for _ in range(bursts):
        for _ in range(burst_size):
            src, dst = rng.sample(slots, 2)
            net.create_packet(src, dst)
        start = time.perf_counter()
        before = net.cycle
        if not net.drain(max_cycles=100000):
            raise RuntimeError(f"{topo_name} burst failed to drain")
        wall += time.perf_counter() - start
        cycles += net.cycle - before
    return cycles, wall


def open_loop(topo_name: str, n: int, rate: float,
              cycles: int = 4000) -> tuple[int, float]:
    """End-to-end simulated cycles/sec with synthetic traffic attached."""
    topo = make_topology(topo_name, n)
    net = Network(topo, SimConfig(seed=2))
    traffic = SyntheticTraffic("uniform", rate, seed=4)
    start = time.perf_counter()
    net.run(cycles, traffic)
    net.drain(max_cycles=100000)
    wall = time.perf_counter() - start
    return net.cycle, wall


def full_flow(app_name: str, routing: str, capacity) -> tuple[str, float]:
    app = load_application(app_name)
    constraints = (
        Constraints() if capacity is None
        else Constraints(link_capacity_mb_s=capacity)
    )
    start = time.perf_counter()
    report = run_sunmap(
        app, routing=routing, objective="hops", constraints=constraints,
        config=MapperConfig(max_rounds=10),
    )
    wall = time.perf_counter() - start
    return report.best_topology_name, wall


def measure(smoke: bool = False, reps: int = 2) -> dict:
    """Measure every workload; best-of-``reps`` to damp machine noise."""
    kernel = {}
    for name, topo, n, rate in KERNEL_CASES:
        if smoke and name != "mesh16":
            continue
        best_burst = 0.0
        best_open = 0.0
        for _ in range(1 if smoke else reps):
            cycles, wall = burst_drain(topo, n, bursts=4 if smoke else 12)
            best_burst = max(best_burst, cycles / wall)
            cycles, wall = open_loop(
                topo, n, rate, cycles=1500 if smoke else 4000
            )
            best_open = max(best_open, cycles / wall)
        kernel[name] = {
            "burst_cycles_per_sec": round(best_burst, 1),
            "open_loop_cycles_per_sec": round(best_open, 1),
        }
    flows = {}
    for app_name, routing, capacity in FLOW_CASES:
        if smoke and app_name != "vopd":
            continue
        best = math.inf
        winner = None
        for _ in range(1 if smoke else reps):
            winner, wall = full_flow(app_name, routing, capacity)
            best = min(best, wall)
        flows[app_name] = {"seconds": round(best, 3), "winner": winner}
    return {
        "kernel": kernel,
        "full_flow": flows,
        "calibration_ops_per_sec": _calibrate(),
    }


def _kernel_ratios(current: dict, reference: dict) -> list[float]:
    """Per-metric cycles/sec ratios for cases present in both runs."""
    ratios = []
    for case, metrics in current.get("kernel", {}).items():
        ref = reference.get("kernel", {}).get(case)
        if not ref:
            continue
        for metric, value in metrics.items():
            if metric in ref and ref[metric]:
                ratios.append(value / ref[metric])
    return ratios


def _geomean(values: list[float]) -> float | None:
    if not values:
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _flow_ratio(current: dict, reference: dict) -> float | None:
    cur = current.get("full_flow", {})
    ref = reference.get("full_flow", {})
    shared = [k for k in cur if k in ref]
    if not shared:
        return None
    cur_total = sum(cur[k]["seconds"] for k in shared)
    ref_total = sum(ref[k]["seconds"] for k in shared)
    return ref_total / cur_total if cur_total else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced budget: one kernel case, one flow, single rep",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if cycles/sec regressed more than 30%% versus the "
        "committed BENCH_kernel.json",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="output path (default: BENCH_kernel.json at the repo root; "
        "--smoke writes BENCH_kernel.smoke.json so a reduced-budget run "
        "never clobbers the committed record)",
    )
    args = parser.parse_args(argv)

    if args.json is not None:
        out_path = Path(args.json)
    elif args.smoke:
        out_path = BENCH_PATH.with_name("BENCH_kernel.smoke.json")
    else:
        out_path = BENCH_PATH

    # The regression gate and the baseline always come from the
    # committed record, wherever the fresh measurement is written.
    committed = {}
    if BENCH_PATH.exists():
        committed = json.loads(BENCH_PATH.read_text(encoding="utf-8"))

    current = measure(smoke=args.smoke)

    # Regression gate against the last committed numbers. Raw cycles/sec
    # is normalized by the recorded machine-speed calibration so the
    # gate measures the *code*, not the runner hardware.
    check_failed = False
    if args.check and committed.get("current"):
        ratio = _geomean(_kernel_ratios(current, committed["current"]))
        if ratio is not None:
            committed_cal = committed["current"].get(
                "calibration_ops_per_sec"
            )
            fresh_cal = current.get("calibration_ops_per_sec")
            if committed_cal and fresh_cal:
                machine = fresh_cal / committed_cal
                normalized = ratio / machine
                print(
                    f"cycles/sec vs committed: {ratio:.2f}x raw, machine "
                    f"speed {machine:.2f}x, normalized {normalized:.2f}x "
                    f"(gate: >= {MIN_CHECK_RATIO})"
                )
            else:
                normalized = ratio
                print(
                    f"cycles/sec vs committed: {ratio:.2f}x "
                    f"(no calibration recorded; gate: >= {MIN_CHECK_RATIO})"
                )
            if normalized < MIN_CHECK_RATIO:
                print("PERF REGRESSION: kernel cycles/sec dropped >30%")
                check_failed = True

    baseline = committed.get("baseline", {})
    record = {
        "schema": 1,
        "baseline": baseline,
        "current": current,
        "speedup": {
            "cycles_per_sec": (
                None
                if _geomean(_kernel_ratios(current, baseline)) is None
                else round(_geomean(_kernel_ratios(current, baseline)), 2)
            ),
            "full_flow": (
                None
                if _flow_ratio(current, baseline) is None
                else round(_flow_ratio(current, baseline), 2)
            ),
        },
        "smoke": args.smoke,
    }
    out_path.write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    print(f"wrote {out_path}")
    for case, metrics in current["kernel"].items():
        line = "  ".join(f"{k}={v:,.0f}" for k, v in metrics.items())
        print(f"kernel {case:8s} {line}")
    for app, data in current["full_flow"].items():
        print(f"flow   {app:8s} {data['seconds']:.3f}s  ({data['winner']})")
    if record["speedup"]["cycles_per_sec"] is not None:
        print(
            f"speedup vs pre-rewrite baseline: "
            f"cycles/sec {record['speedup']['cycles_per_sec']}x, "
            f"full flow {record['speedup']['full_flow']}x"
        )
    return 1 if check_failed else 0


if __name__ == "__main__":
    sys.exit(main())
