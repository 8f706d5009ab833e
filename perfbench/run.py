"""End-to-end SUNMAP benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flow-hops --seed 1 --seconds 22 --trace 0

Workloads (see ``perfbench/README.md`` for the metric table):

* ``flow-hops`` — ``run_sunmap`` (hops, MP with SM/SA escalation,
  generation on) on vopd, mpeg4, dsp (1000 MB/s links) and netproc;
* ``flow-power`` — the same flow with the power objective on vopd and
  dsp, which puts the floorplan LP inside the swap loop;
* ``campaign`` — a cold vopd mesh campaign on the exact lane, then on
  the batch lane;
* ``service-burst`` — an open loop of small requests to a
  ``DesignService`` in its own process, over two TCP connections.

Flows and campaigns run one iteration per fresh interpreter
(``child.py``) until ``--seconds`` have passed, and report medians.
Flow and campaign times and every set-up time are scaled to the
reference host speed by the host-speed samples taken in the same process
while they ran (``hostspeed.py``), so a shared host's drift does not
read as a change of the program; service latencies are wall times. With
``--trace 1`` the children install the outside-in tracer (``tracer.py``)
on every other iteration and the command reports per-layer metrics
instead; the untraced iterations in between give the tracing overhead.

Every run checks its outputs against ``expected.json`` (flows, campaign)
or against direct library calls (service). A wrong output counts as a
failure and makes the command exit 1. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A per-run record (machine, samples, every metric) goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import hostspeed
import loadgen
from hostspeed import scaled, speed_between

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
# The service workload's reference calls import the program in-process.
sys.path.insert(0, str(ROOT / "src"))

#: Longest any single child may take before it counts as hung.
CHILD_TIMEOUT_S = 150.0
#: Set-up-only children a flow run starts before its window: a flow
#: iteration takes 5-20 s, so the window alone gives too few set-up
#: samples for a steady median.
FLOW_SETUP_CHILDREN = 2

FLOW_CASES = {
    "flow-hops": [
        ["vopd", "hops", None],
        ["mpeg4", "hops", None],
        ["dsp", "hops", 1000.0],
        ["netproc", "hops", None],
    ],
    "flow-power": [
        ["vopd", "power", None],
        ["dsp", "power", 1000.0],
    ],
}

#: Layers each workload must hit in a traced run (zero calls = error).
EXPECTED_LAYERS = {
    "flow-hops": [
        "flow.run_sunmap", "engine.run", "core.map_onto",
        "core.memo.evaluate", "core.memo.swap", "routing.route_all",
        "routing.route_commodity", "routing.dijkstra", "routing.add_path",
        "physical.power", "floorplan.lp", "xpipes.netlist",
        "xpipes.systemc",
    ],
    "campaign": [
        "campaign.run", "engine.run", "sim.exact.point", "sim.batch.group",
    ],
    "service-burst": [
        "service.handle.select", "service.handle.health",
        "service.compute.select", "service.compute.synthesize",
        "service.compute.campaign", "flow.run_sunmap", "engine.run",
        "core.map_onto", "routing.route_commodity", "synthesis.sweep",
        "campaign.run", "sim.batch.group",
    ],
}
EXPECTED_LAYERS["flow-power"] = EXPECTED_LAYERS["flow-hops"]

#: The JSON line's one timing metric is a generic slot (every workload
#: must report every metric); it carries the steadiest user-facing
#: metric that covers the workload's layers, converted to ms. The other
#: user-facing metrics are printed and recorded, not gated.
HEADLINE = {
    "flow-hops": "flow_s",
    "flow-power": "flow_s",
    "campaign": "campaign.pair_s",
    "service-burst": "service.p50_ms",
}


class Run:
    """Everything one benchmark run measures and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.errors: list[str] = []
        self.setup_samples: list[float] = []  # wall, s
        self.setup_speeds: list[float] = []  # host speed during each
        self.speeds: list[float] = []  # every host-speed sample
        self.rss_mb: list[float] = []
        self.named: dict[str, tuple[float, str]] = {}  # user-facing e2e
        self.layers: dict[str, float] = {}
        self.seen: set[str] = set()  # span names with calls (traced)
        self.layer_self_s: dict[str, float] = {}  # traced, per unit
        self.samples: dict[str, list] = {}

    def check(self, ok: bool, message: str) -> None:
        """Count one checked operation; record it as failed unless ok."""
        self.attempted += 1
        if not ok:
            self.errors.append(message)


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------
def start_child(config: dict, run: Run, stdin=subprocess.DEVNULL):
    """Start ``child.py`` and wait for its ready line (one set-up sample)."""
    began = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(config)],
        stdin=stdin, stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    if not line or json.loads(line).get("event") != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child {config['mode']} failed during set-up")
    ready = perf_counter()
    run.setup_samples.append(ready - began)
    proc.setup_window = [began, ready]
    return proc, json.loads(line)


def finish_child(proc, run: Run) -> dict:
    """Wait for a child's result line (closing its stdin if piped)."""
    try:
        out, _ = proc.communicate(
            input="" if proc.stdin else None, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("child timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    run.rss_mb.append(result["peak_rss_mb"])
    run.setup_speeds.append(speed_between(result["speed"], *proc.setup_window))
    run.speeds.extend(speed for _, speed in result["speed"])
    return result


def unit_s(result: dict, unit: dict) -> float:
    """A timed call's wall time in ``result``, at the reference speed."""
    return scaled(
        unit["wall_s"],
        speed_between(result["speed"], unit["start"], unit["end"]),
    )


def run_child(config: dict, run: Run) -> dict:
    proc, _ = start_child(config, run)
    return finish_child(proc, run)


def iterate(run: Run, make_config, measure) -> list[dict]:
    """Run fresh-interpreter iterations for ``run.seconds``.

    Another iteration starts while one more of the last one's length
    still fits in the window, so a run stays within it on a slow host
    (at least one iteration runs). In a traced run the iterations
    alternate traced / untraced, starting traced, with one of each at
    least.
    """
    results = []
    started = perf_counter()
    last = 0.0
    index = 0
    while (
        index == 0
        or (run.trace and index == 1)
        or perf_counter() - started + last <= run.seconds
    ):
        began = perf_counter()
        traced = run.trace and index % 2 == 0
        trace_path = OUT / f"{run.workload}-iter{index}.jsonl"
        config = make_config(index)
        config["trace"] = str(trace_path) if traced else None
        result = run_child(config, run)
        result["traced"] = traced
        measure(result)
        results.append(result)
        last = perf_counter() - began
        index += 1
    return results


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
def flows(run: Run) -> None:
    cases = FLOW_CASES[run.workload]
    expected = EXPECTED["flows"]

    def measure(result: dict) -> None:
        for flow in result["flows"]:
            key = f"{flow['app']}/{flow['objective']}"
            want = expected[key]
            cost_ok = math.isclose(
                flow["cost"], want["cost"], rel_tol=1e-9, abs_tol=1e-12
            )
            run.check(
                flow["winner"] == want["winner"] and cost_ok
                and flow["attempted"] == want["attempted"]
                and flow["generated"],
                f"{key}: got {flow['winner']} cost {flow['cost']!r} via "
                f"{flow['attempted']}, expected {want['winner']} cost "
                f"{want['cost']!r} via {want['attempted']}",
            )

    for _ in range(FLOW_SETUP_CHILDREN):
        run_child({"mode": "flows", "cases": cases, "setup_only": True,
                   "trace": None}, run)
    results = iterate(
        run, lambda i: {"mode": "flows", "cases": cases}, measure
    )
    walls = [
        {f["app"]: unit_s(r, f) for f in r["flows"]}
        for r in results if not r["traced"]
    ]
    totals = [sum(w.values()) for w in walls]
    run.samples["flow_s"] = totals
    run.samples["flow_wall_s"] = [
        sum(f["wall_s"] for f in r["flows"])
        for r in results if not r["traced"]
    ]
    run.named["flow_s"] = (statistics.median(totals), "s")
    for app, _, _ in cases:
        values = [w[app] for w in walls]
        run.samples[f"flow.{app}_s"] = values
        run.named[f"flow.{app}_s"] = (statistics.median(values), "s")
    if run.trace:
        traced = [r for r in results if r["traced"]]
        traced_walls = [
            sum(unit_s(r, f) for f in r["flows"])
            for r in traced
        ]
        span_walls = [sum(f["wall_s"] for f in r["flows"]) for r in traced]
        layer_metrics(run, traced, traced_walls, totals, span_walls)


def campaign(run: Run) -> None:
    pool = EXPECTED["campaign"]["traffic_seeds"]
    rng = random.Random(run.seed)
    seeds = []

    def make_config(index: int) -> dict:
        seeds.append(rng.choice(sorted(pool, key=int)))
        return {"mode": "campaign", "traffic_seed": int(seeds[-1])}

    def measure(result: dict) -> None:
        traffic_seed = seeds[len(seeds) - 1]
        exact, batch = result["lanes"]["exact"], result["lanes"]["batch"]
        run.check(
            exact["digest"] == pool[traffic_seed],
            f"campaign exact payload digest changed (traffic seed "
            f"{traffic_seed})",
        )
        run.check(
            batch["saturation"] == exact["saturation"],
            f"batch saturation {batch['saturation']} != exact "
            f"{exact['saturation']} (traffic seed {traffic_seed})",
        )

    results = iterate(run, make_config, measure)
    untraced = [r for r in results if not r["traced"]]
    exact_ms = [1000 * unit_s(r, r["lanes"]["exact"])
                / r["lanes"]["exact"]["points"] for r in untraced]
    batch_ms = [1000 * unit_s(r, r["lanes"]["batch"])
                / r["lanes"]["batch"]["points"] for r in untraced]
    pairs = [unit_s(r, r["lanes"]["exact"]) + unit_s(r, r["lanes"]["batch"])
             for r in untraced]
    run.samples.update({
        "campaign.pair_wall_s": [
            r["lanes"]["exact"]["wall_s"] + r["lanes"]["batch"]["wall_s"]
            for r in untraced
        ],
        "campaign.exact_ms_per_point": exact_ms,
        "campaign.batch_ms_per_point": batch_ms,
        "campaign.pair_s": pairs,
        "traffic_seeds": seeds,
    })
    run.named["campaign.exact_points_per_s"] = (
        1000 / statistics.median(exact_ms), "points/s")
    run.named["campaign.batch_points_per_s"] = (
        1000 / statistics.median(batch_ms), "points/s")
    run.named["campaign.exact_ms_per_point"] = (
        statistics.median(exact_ms), "ms")
    run.named["campaign.batch_ms_per_point"] = (
        statistics.median(batch_ms), "ms")
    run.named["campaign.pair_s"] = (statistics.median(pairs), "s")
    if run.trace:
        traced = [r for r in results if r["traced"]]
        traced_walls = [
            unit_s(r, r["lanes"]["exact"]) + unit_s(r, r["lanes"]["batch"])
            for r in traced
        ]
        span_walls = [
            r["lanes"]["exact"]["wall_s"] + r["lanes"]["batch"]["wall_s"]
            for r in traced
        ]
        layer_metrics(run, traced, traced_walls, pairs, span_walls)


def service_burst(run: Run) -> None:
    entries = loadgen.catalog()
    # Two extra servers give set-up samples; the third serves the burst.
    for _ in range(2):
        proc, ready = start_child(
            {"mode": "server", "trace": None}, run, stdin=subprocess.PIPE
        )
        try:
            run.setup_samples[-1] += server_ready(ready["port"])
            proc.setup_window[1] = perf_counter()
        finally:
            finish_child(proc, run)
    # A traced run serves the same schedule twice, traced then untraced,
    # in half the window each: the difference is the tracing overhead.
    halves = [True, False] if run.trace else [False]
    seconds = run.seconds / len(halves)
    events = loadgen.schedule(run.seed, seconds, entries)
    bursts = []
    for traced in halves:
        trace_path = OUT / f"{run.workload}-server.jsonl"
        proc, ready = start_child(
            {"mode": "server", "trace": str(trace_path) if traced else None},
            run, stdin=subprocess.PIPE,
        )
        try:
            run.setup_samples[-1] += server_ready(ready["port"])
            proc.setup_window[1] = perf_counter()
            records = asyncio.run(
                loadgen.drive(ready["port"], events, seconds + 90.0)
            )
            health = asyncio.run(
                loadgen.send_sequentially(ready["port"], [HEALTH])
            )[0]["result"]
        finally:
            result = finish_child(proc, run)
        bursts.append((traced, records, health, result))
    run.rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    # Correctness, outside the timed window: every compute response must
    # equal the direct library call for its catalog entry.
    references: dict[int, str] = {}
    for _, records, _, _ in bursts:
        for record in records.values():
            event = record["event"]
            response = record.get("response")
            if event.role == "probe":
                run.check(bool(response and response["ok"]),
                          f"health probe {event.payload['id']} failed")
                continue
            if event.entry not in references:
                references[event.entry] = loadgen.canonical(json.loads(json.dumps(
                    loadgen.reference(entries[event.entry])
                )))
            result = None if not response or not response["ok"] else (
                response["result"]
            )
            if result is not None and event.payload["kind"] == "campaign":
                result.pop("runtime", None)
            run.check(
                result is not None
                and loadgen.canonical(result) == references[event.entry],
                f"{event.payload['id']} ({event.payload['kind']} entry "
                f"{event.entry}): "
                + ("wrong result" if result is not None else str(response)),
            )

    traced_burst = bursts[0]
    untraced_burst = bursts[-1]
    latency = burst_latencies(untraced_burst[1])
    run.samples["service.latency_ms"] = latency["compute"]
    run.named["service.p50_ms"] = (
        percentile(latency["compute"], 50), "ms")
    run.named["service.p95_ms"] = (
        percentile(latency["compute"], 95), "ms")
    run.named["service.probe_p95_ms"] = (
        percentile(latency["probe"], 95), "ms")
    run.named["service.compute_requests"] = (
        len(latency["compute"]), "count")
    if run.trace:
        traced_lat = burst_latencies(traced_burst[1])
        # The "wall" of a burst is the server's own summed handling time
        # of its compute requests (both halves serve the same schedule).
        layer_metrics(
            run, [traced_burst[3]],
            [sum(traced_lat["server_ms"]) / 1000],
            [sum(latency["server_ms"]) / 1000],
        )
        run.layers.update(service_layers(
            traced_burst[3]["trace"], traced_lat, traced_burst[2]
        ))


HEALTH = {"kind": "health", "params": {}}


def server_ready(port: int) -> float:
    """Seconds until the server has answered its first ``health`` probe
    and the warm-up requests (the rest of its set-up)."""
    began = perf_counter()
    responses = asyncio.run(
        loadgen.send_sequentially(port, [HEALTH, *loadgen.warmup()])
    )
    failed = [r for r in responses if not r.get("ok")]
    if failed:
        raise RuntimeError(f"server set-up request failed: {failed[0]}")
    return perf_counter() - began


def burst_latencies(records: dict) -> dict[str, list[float]]:
    """Per-request latencies of one burst, in ms (compute kinds only
    unless named ``probe``).

    They are wall times, not scaled to the reference host speed: the
    server's request threads would hold the GIL while a sample inside
    it waits, and samples from another process or from the server's
    set-up tracked its latency worse than none (interquartile range
    over five seeds 0.17 and 0.46 of the median, against 0.14 unscaled).
    """
    out = {k: [] for k in (
        "compute", "probe", "server_ms", "transport", "late", "deduped"
    )}
    for record in records.values():
        response = record.get("response")
        if response is None:
            continue
        latency = 1000 * (record["recv"] - record["due"])
        out["late"].append(1000 * (record["sent"] - record["due"]))
        if record["event"].role == "probe":
            out["probe"].append(latency)
            continue
        out["compute"].append(latency)
        stats = response.get("stats", {})
        server_ms = stats.get("elapsed_ms", 0.0)
        out["server_ms"].append(server_ms)
        out["transport"].append(
            1000 * (record["recv"] - record["sent"]) - server_ms
        )
        out["deduped"].append(1.0 if stats.get("deduped") else 0.0)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics from traced summaries
# ---------------------------------------------------------------------------
def layer_metrics(run: Run, traced: list[dict], traced_walls, untraced_walls,
                  span_walls=None):
    """Per-layer metrics: the median over traced units of each metric.

    ``traced`` are the traced children's results; ``traced_walls`` /
    ``untraced_walls`` the measured wall of each traced / untraced unit,
    whose medians give the tracing overhead. ``span_walls`` are the
    traced units' walls on the spans' own clock (unscaled), the base of
    the profile shares; they default to ``traced_walls``.
    """
    per_unit = [
        unit_layers(result["trace"], wall)
        for result, wall in zip(traced, span_walls or traced_walls)
    ]
    for key in per_unit[0]:
        run.layers[key] = statistics.median(unit[key] for unit in per_unit)
    per_layer_self = []
    for result in traced:
        run.seen.update(
            name for name, entry in result["trace"].items() if entry["calls"]
        )
        # A span name's first component names its layer.
        self_s: dict[str, float] = {}
        for name, entry in result["trace"].items():
            layer = name.split(".")[0]
            self_s[layer] = self_s.get(layer, 0.0) + entry["self_s"]
        per_layer_self.append(self_s)
    for layer in set().union(*per_layer_self):
        run.layer_self_s[layer] = statistics.median(
            unit.get(layer, 0.0) for unit in per_layer_self
        )
    traced_wall = statistics.median(traced_walls)
    untraced_wall = statistics.median(untraced_walls)
    run.layers["trace.wall_s"] = traced_wall
    run.layers["trace.untraced_wall_s"] = untraced_wall
    run.layers["trace.overhead_pct"] = (
        100.0 * (traced_wall - untraced_wall) / untraced_wall
    )
    run.layers["trace.spans"] = statistics.median(
        result["spans"] for result in traced
    )


def unit_layers(t: dict, wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced unit (summary ``t``)."""
    def calls(name):
        return sum(v["calls"] for k, v in t.items() if _match(k, name))

    def secs(name):
        return sum(v["s"] for k, v in t.items() if _match(k, name))

    def self_s(*names):
        return sum(
            v["self_s"] for k, v in t.items()
            if any(_match(k, n) for n in names)
        )

    def value(name, i):
        return sum(
            (v["values"] or [0] * (i + 1))[i]
            for k, v in t.items() if _match(k, name)
        )

    def ratio(a, b):
        return a / b if b else 0.0

    memo_hits = value("core.memo.evaluate", 0) + value("core.memo.swap", 0)
    memo_lookups = (
        value("core.memo.evaluate", 1) + value("core.memo.swap", 1)
    )
    out = {
        "engine.run.calls": calls("engine.run"),
        "engine.self_s": self_s("engine.run"),
        "engine.cache.hit_ratio": ratio(
            value("engine.run", 0), value("engine.run", 1)),
        "engine.cache.lookups": value("engine.run", 1),
        "core.map_onto.calls": calls("core.map_onto"),
        "core.map_onto.s": secs("core.map_onto"),
        "core.swaps": calls("core.memo.swap"),
        "core.swaps_per_s": ratio(
            calls("core.memo.swap"), secs("core.map_onto")),
        "core.memo.hit_ratio": ratio(memo_hits, memo_lookups),
        "core.memo.lookups": memo_lookups,
        "core.self_s": self_s(
            "core.map_onto", "core.memo.evaluate", "core.memo.swap"),
        "physical.power.calls": calls("physical.power"),
        "physical.power.s": secs("physical.power"),
        "floorplan.lp.calls": calls("floorplan.lp"),
        "floorplan.lp.s": secs("floorplan.lp"),
        "floorplan.lp.ms_per_call": 1000 * ratio(
            secs("floorplan.lp"), calls("floorplan.lp")),
        "floorplan.lp.failed": value("floorplan.lp", 0),
        "xpipes.netlist.s": secs("xpipes.netlist"),
        "xpipes.systemc.s": secs("xpipes.systemc"),
        "synthesis.sweep.s": secs("synthesis.sweep"),
        "synthesis.candidates": value("synthesis.sweep", 0),
        "sim.exact.point_s": ratio(
            secs("sim.exact.point"), calls("sim.exact.point")),
        "sim.exact.cycles_per_s": ratio(
            value("sim.exact.point", 0), secs("sim.exact.point")),
        "sim.batch.group_s": ratio(
            secs("sim.batch.group"), calls("sim.batch.group")),
        "sim.batch.lane_cycles_per_s": ratio(
            value("sim.batch.group", 0), secs("sim.batch.group")),
        "campaign.self_s": self_s("campaign.run"),
        "profile.route_commodity_pct": 100 * ratio(
            secs("routing.route_commodity"), wall),
        "profile.floorplan_pct": 100 * ratio(secs("floorplan.lp"), wall),
    }
    for layer in ("route_all", "route_commodity", "dijkstra", "add_path"):
        out[f"routing.{layer}.calls"] = calls(f"routing.{layer}")
        out[f"routing.{layer}.s"] = secs(f"routing.{layer}")
    return out


def _match(key: str, name: str) -> bool:
    """A summary key belongs to ``name`` itself or to a suffixed span."""
    return key == name or key.startswith(name + ".")


def service_layers(t: dict, lat: dict, health: dict) -> dict[str, float]:
    """Service-only per-layer metrics of the traced burst."""
    out = {}
    compute_kinds = ("select", "synthesize", "campaign")
    for kind in compute_kinds:
        entry = t.get(f"service.compute.{kind}")
        out[f"service.compute.{kind}_ms"] = (
            1000 * entry["s"] / entry["calls"] if entry else 0.0
        )
    handles = [t[f"service.handle.{k}"] for k in compute_kinds
               if f"service.handle.{k}" in t]
    handle_calls = sum(h["calls"] for h in handles)
    out["service.wait_ms"] = (
        1000 * sum(h["self_s"] for h in handles) / handle_calls
        if handle_calls else 0.0
    )
    out["service.transport_ms"] = statistics.median(lat["transport"])
    out["service.requests"] = len(lat["compute"])
    out["service.dedup_ratio"] = statistics.fmean(lat["deduped"])
    passes = t.get("engine.run")
    out["service.batch.jobs_per_pass"] = (
        passes["values"][2] / passes["calls"] if passes else 0.0
    )
    out["service.batch.passes"] = health["batches"]
    out["service.busy"] = health["busy_rejections"]
    out["service.late_ms"] = percentile(lat["late"], 95)
    return out


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------
def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def calibrate() -> float:
    """One host-speed sample, in walk steps per second."""
    sampler = hostspeed.Sampler()
    sampler.sample()
    return sampler.samples[0][1]


def machine() -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "networkx": version("networkx"),
        "nproc": os.cpu_count(),
        "calibration_speed": calibrate(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(HEADLINE))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no SUNMAP sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for stale in OUT.glob(f"{args.workload}-*.jsonl"):
        stale.unlink()

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine()}
    began = time.time()
    try:
        {"flow-hops": flows, "flow-power": flows, "campaign": campaign,
         "service-burst": service_burst}[args.workload](run)
    except Exception as exc:  # any crash is a failed run, reported below
        traceback.print_exc()
        run.errors.append(f"{type(exc).__name__}: {exc}")
        run.attempted = max(run.attempted, 1)
    if run.trace and not run.errors:
        check_layers(run)

    failed = len(run.errors)
    correct = failed == 0
    run.named["error_rate"] = (failed / run.attempted, "ratio")
    metrics = {}
    if run.speeds:
        run.named["host.speed"] = (statistics.median(run.speeds), "steps/s")
    if correct:
        run.named["setup_s"] = (statistics.median(
            scaled(wall, speed)
            for wall, speed in zip(run.setup_samples, run.setup_speeds)
        ), "s")
        run.named["peak_rss_mb"] = (max(run.rss_mb), "MB")
        if run.trace:
            metrics = {
                name: {"value": run.layers.get(name, 0.0), "unit": unit}
                for name, unit in per_layer_units().items()
            }
        else:
            metrics = {
                "setup_s": {"value": run.named["setup_s"][0], "unit": "s"},
                "peak_rss_mb": {
                    "value": run.named["peak_rss_mb"][0], "unit": "MB"},
            }
            value, unit = run.named[HEADLINE[args.workload]]
            metrics["headline_ms"] = {
                "value": value * (1000.0 if unit == "s" else 1.0),
                "unit": "ms",
            }

    for name, (value, unit) in sorted(run.named.items()):
        print(f"{name:32s} {value:14.4f} {unit}")
    for name, value in sorted(run.layers.items()):
        print(f"{name:32s} {value:14.4f}")
    print(f"calibration_speed {record['machine']['calibration_speed']:.4g}, "
          f"python {record['machine']['python']}, numpy "
          f"{record['machine']['numpy']}, scipy {record['machine']['scipy']}"
          f", nproc {record['machine']['nproc']}")
    if run.layer_self_s:
        ranked = sorted(run.layer_self_s.items(), key=lambda kv: -kv[1])
        print("layer self time: " + " > ".join(
            f"{layer} {value:.3f}s" for layer, value in ranked
        ))
    for error in run.errors:
        print(f"ERROR: {error}")

    record.update({
        "wall_s": time.time() - began, "errors": run.errors,
        "setup_samples": run.setup_samples,
        "setup_speeds": run.setup_speeds, "speeds": run.speeds,
        "samples": run.samples,
        "named": run.named, "layers": run.layers,
        "layer_self_s": run.layer_self_s, "metrics": metrics,
    })
    suffix = f"seed{args.seed}-trace{args.trace}"
    (OUT / f"{args.workload}-{suffix}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8"
    )
    print(json.dumps({
        "correct": correct, "attempted": max(run.attempted, 1),
        "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


def check_layers(run: Run) -> None:
    """A layer the workload must hit that shows zero calls is an error."""
    for name in EXPECTED_LAYERS[run.workload]:
        if not any(_match(seen, name) for seen in run.seen):
            run.errors.append(f"traced run saw no calls into {name}")


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
