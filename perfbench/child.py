"""One measured unit of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per iteration (flows, campaign) or
once per server (service burst), so process-wide caches never carry
over from one measured unit to the next. Protocol: the only argument is
a JSON object; the script prints one JSON line ``{"event": "ready"}``
once its inputs are built (the end of set-up), then one line
``{"event": "result", ...}`` with its timings and outputs, and exits.
A ``hostspeed.Sampler`` runs from the start of ``main`` to the result
line (in a server, only up to its ready line), with one extra sample
after set-up and after each timed call; the result carries its samples
as ``speed``, and each timed call its ``start`` and ``end`` on the same
clock.

Modes:

* ``flows`` — ``run_sunmap`` on each listed (app, objective, link
  capacity) case, in order (with ``"setup_only": true``, only the
  set-up and one host-speed walk);
* ``campaign`` — one cold ``run_campaign`` per simulator lane;
* ``server`` — a ``DesignService`` on an ephemeral TCP port until its
  standard input closes.

With ``"trace": PATH`` the outside-in tracer is installed before the
work starts; the spans go to ``PATH`` as JSON lines and their per-name
summary rides along in the result.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import resource
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402  (benchmark-local modules)
from hostspeed import Sampler  # noqa: E402
from loadgen import canonical  # noqa: E402


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_flows(sampler: Sampler, cases: list, setup_only: bool) -> dict:
    from repro import sunmap
    from repro.apps import load_application
    from repro.core.constraints import Constraints

    inputs = [
        (
            name,
            objective,
            load_application(name),
            Constraints() if capacity is None
            else Constraints(link_capacity_mb_s=capacity),
        )
        for name, objective, capacity in cases
    ]
    emit("ready")
    sampler.sample()
    if setup_only:
        return {"flows": []}
    out = []
    for name, objective, app, constraints in inputs:
        start = perf_counter()
        report = sunmap.run_sunmap(
            app, routing="MP", objective=objective,
            constraints=constraints, generate=True, jobs=1,
        )
        end = perf_counter()
        sampler.sample()
        out.append({
            "app": name,
            "objective": objective,
            "wall_s": end - start,
            "start": start,
            "end": end,
            "winner": report.best_topology_name,
            "cost": report.best.cost,
            "attempted": report.attempted_routings,
            "generated": bool(report.netlist and report.systemc),
        })
    return {"flows": out}


def run_campaign_lanes(sampler: Sampler, traffic_seed: int) -> dict:
    from repro.apps import load_application
    from repro.core.greedy import initial_greedy_mapping
    from repro.engine.engine import ExplorationEngine
    from repro.simulation import campaign
    from repro.topology.library import make_topology

    app = load_application("vopd")
    topology = make_topology("mesh", app.num_cores)
    assignment = initial_greedy_mapping(app, topology)
    configs = {
        lane: campaign.CampaignConfig(seeds=(traffic_seed,), sim_engine=lane)
        for lane in ("exact", "batch")
    }
    emit("ready")
    sampler.sample()
    lanes = {}
    for lane, config in configs.items():
        start = perf_counter()
        result = campaign.run_campaign(
            topology, core_graph=app, assignment=assignment,
            config=config, engine=ExplorationEngine(jobs=1),
        )
        end = perf_counter()
        sampler.sample()
        payload = campaign.strip_runtime(result.to_dict())
        lanes[lane] = {
            "wall_s": end - start,
            "start": start,
            "end": end,
            "points": len(result.points),
            "saturation": result.saturation_rates(),
            "digest": hashlib.sha256(
                canonical(payload).encode("utf-8")
            ).hexdigest(),
        }
    return {"lanes": lanes}


def run_server(sampler: Sampler) -> dict:
    from repro.service import DesignService

    async def serve() -> None:
        # Memory cache, admission control off, in-thread engine.
        service = DesignService(jobs=1)
        server = await service.start("127.0.0.1", 0)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()

        def wait_for_eof() -> None:
            sys.stdin.buffer.read()
            loop.call_soon_threadsafe(stop.set)

        threading.Thread(target=wait_for_eof, daemon=True).start()
        emit("ready", port=server.sockets[0].getsockname()[1])
        # Request threads would hold the GIL while a sample waits for
        # it, so the server samples its set-up only.
        sampler.sample()
        sampler.stop()
        async with server:
            await stop.wait()

    asyncio.run(serve())
    return {}


def main() -> int:
    sampler = Sampler()
    sampler.start()
    config = json.loads(sys.argv[1])
    tracer = None
    if config.get("trace"):
        tracer = tracing.Tracer()
        tracing.install_repro_targets(tracer)
    mode = config["mode"]
    if mode == "flows":
        result = run_flows(
            sampler, config["cases"], config.get("setup_only", False)
        )
    elif mode == "campaign":
        result = run_campaign_lanes(sampler, config["traffic_seed"])
    elif mode == "server":
        result = run_server(sampler)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if tracer is not None:
        result["trace"] = tracer.summarize()
        result["spans"] = tracer.span_count()
        tracer.write_jsonl(config["trace"])
    sampler.stop()
    result["speed"] = sampler.samples
    emit("result", peak_rss_mb=peak_rss_mb(), **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
