"""Open-loop TCP load for the ``service-burst`` workload.

The catalog is a fixed, finite list of small design requests (``select``
and ``synthesize`` on dsp, batch-lane ``campaign`` on vopd and dsp).
:func:`schedule` turns a seed into a Poisson arrival schedule over two
connections, in which every compute request is one of:

* **fresh** — a catalog entry not sent before in this run;
* **duplicate** — the same request as a fresh one, due at the same
  instant on the other connection, so the service dedups it in flight;
* **repeat** — a catalog entry whose earlier send is at least
  :data:`REPEAT_AFTER_S` old, so its engine jobs are cache hits.

A ``health`` probe is due every :data:`PROBE_INTERVAL_S` seconds,
alternating between the connections. :func:`drive` sends each request
when it is due, whatever is still outstanding, and times it from that
due instant. :func:`reference` computes the direct library call a
catalog entry must equal.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
from dataclasses import dataclass
from time import perf_counter

#: Compute requests per second offered to the service.
RATE_PER_S = 10.0
#: Shares of compute requests by role (the rest are fresh).
DUPLICATE_SHARE = 0.2
REPEAT_SHARE = 0.3
#: A repeat only targets requests sent at least this long ago, so the
#: original has completed and its engine jobs are cached.
REPEAT_AFTER_S = 2.0
PROBE_INTERVAL_S = 0.05
#: TCP connections the open loop spreads its requests over.
CONNECTIONS = 2
#: Fresh requests per kind in each block of seven: the costly ``select``
#: stays near a tenth of all requests, so the p95 falls inside its
#: latency cluster rather than on its edge.
KIND_MIX = {"select": 1, "synthesize": 3, "campaign": 3}


def _select(capacity: float) -> dict:
    return {"kind": "select", "params": {
        "app": "dsp", "routing": "DO", "objective": "hops",
        "link_capacity_mb_s": capacity,
    }}


def _synthesize(concentration: int, capacity: float) -> dict:
    return {"kind": "synthesize", "params": {
        "app": "dsp", "routing": "MP", "objective": "hops",
        "link_capacity_mb_s": capacity, "strategies": ["greedy"],
        "concentrations": [concentration], "max_switch_degrees": [6],
        "max_candidates": 2,
    }}


def _campaign(app: str, topology: str, traffic_seed: int) -> dict:
    return {"kind": "campaign", "params": {
        "app": app, "topology": topology, "rates": [0.1],
        "patterns": ["app"], "seeds": [traffic_seed],
        "warmup": 30, "measure": 100, "drain": 50, "sim_engine": "batch",
    }}


def catalog() -> list[dict]:
    """Every request body the burst may send, in a fixed order.

    No two entries share an engine job (each differs in link capacity or
    traffic seed), so a fresh entry is fresh work for the service. Costs
    are small and tiered: a dsp ``select`` maps onto every library
    topology (tens of ms), a dsp ``synthesize`` or a one-point
    ``campaign`` takes a fraction of that.
    """
    entries = [_select(float(capacity)) for capacity in range(1000, 4000, 100)]
    entries += [
        _synthesize(concentration, float(capacity))
        for concentration in (2, 3, 4)
        for capacity in range(500, 4000, 100)
    ]
    entries += [
        _campaign(app, topology, traffic_seed)
        for app in ("vopd", "dsp")
        for topology in ("mesh", "torus")
        for traffic_seed in range(1, 31)
    ]
    return entries


def warmup() -> list[dict]:
    """Requests outside the catalog that load every code path and app
    once, so the burst does not time the server's first-use set-up."""
    return [
        _select(950.0), _synthesize(2, 450.0),
        *(_campaign(app, topology, 1000)
          for app in ("vopd", "dsp") for topology in ("mesh", "torus")),
    ]


def canonical(value) -> str:
    """Canonical JSON text: the byte-level identity proxy for payloads."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass
class Event:
    """One request on the schedule."""

    due: float  # seconds after the window opens
    conn: int
    role: str  # fresh / duplicate / repeat / probe
    entry: int | None  # catalog index (None for probes)
    payload: dict


def schedule(seed: int, seconds: float, entries: list[dict]) -> list[Event]:
    """The seeded open-loop schedule for one burst of ``seconds``.

    Arrival instants are a Poisson process conditioned on its count
    (sorted uniform draws), and the roles come in exact shares, so every
    seed offers the same load mix at different instants and entries.
    """
    rng = random.Random(seed)
    # Fresh entries come in shuffled blocks of KIND_MIX, so every seed
    # sends each kind in the same share.
    by_kind = {
        kind: [i for i, e in enumerate(entries) if e["kind"] == kind]
        for kind in KIND_MIX
    }
    for pool in by_kind.values():
        rng.shuffle(pool)
    fresh_order = []
    while all(len(by_kind[k]) >= n for k, n in KIND_MIX.items()):
        block = [by_kind[k].pop() for k, n in KIND_MIX.items()
                 for _ in range(n)]
        rng.shuffle(block)
        fresh_order += block
    fresh_order.reverse()  # consumed with pop()
    # Each event is one request, or a fresh + duplicate pair.
    events_total = round(RATE_PER_S * seconds * (1.0 - DUPLICATE_SHARE))
    requests = events_total / (1.0 - DUPLICATE_SHARE)
    pairs = round(requests * DUPLICATE_SHARE)
    repeats = round(requests * REPEAT_SHARE)
    roles = (
        ["pair"] * pairs + ["repeat"] * repeats
        + ["fresh"] * (events_total - pairs - repeats)
    )
    rng.shuffle(roles)
    instants = sorted(rng.uniform(0.0, seconds) for _ in roles)
    events: list[Event] = []
    sent: list[tuple[float, int]] = []  # (due, entry) of fresh sends
    ids = itertools.count(1)

    def add(due, conn, role, entry):
        body = {"v": 1, "id": f"r{next(ids)}", **entries[entry]}
        events.append(Event(due, conn, role, entry, body))

    for due, role in zip(instants, roles):
        conn = rng.randrange(CONNECTIONS)
        old = [e for t, e in sent if t <= due - REPEAT_AFTER_S]
        if role == "repeat" and old:
            add(due, conn, "repeat", rng.choice(old))
            continue
        if not fresh_order:
            raise ValueError("catalog too small for this burst")
        entry = fresh_order.pop()
        sent.append((due, entry))
        add(due, conn, "fresh", entry)
        if role == "pair":
            add(due, 1 - conn, "duplicate", entry)
    for k in range(int(seconds / PROBE_INTERVAL_S)):
        body = {"v": 1, "id": f"h{k}", "kind": "health", "params": {}}
        events.append(
            Event(k * PROBE_INTERVAL_S, k % CONNECTIONS, "probe", None, body)
        )
    events.sort(key=lambda e: e.due)
    return events


async def send_sequentially(port: int, bodies: list[dict]) -> list[dict]:
    """Send requests one at a time on one connection; return responses."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    responses = []
    try:
        for k, body in enumerate(bodies):
            payload = {"v": 1, "id": f"s{k}", **body}
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()
            responses.append(json.loads(await reader.readline()))
    finally:
        writer.close()
        await writer.wait_closed()
    return responses


async def drive(port: int, events: list[Event], timeout_s: float) -> dict:
    """Send every event when due; return ``{id: record}`` with the due,
    send and receive instants (``perf_counter`` seconds) and the
    parsed response."""
    conns = [
        await asyncio.open_connection("127.0.0.1", port)
        for _ in range(CONNECTIONS)
    ]
    start = perf_counter() + 0.05
    records = {
        e.payload["id"]: {"due": start + e.due, "event": e} for e in events
    }
    lines = {e.payload["id"]: (json.dumps(e.payload) + "\n").encode()
             for e in events}
    per_conn = [[e for e in events if e.conn == c] for c in range(CONNECTIONS)]

    async def send(conn: int) -> None:
        writer = conns[conn][1]
        for event in per_conn[conn]:
            rid = event.payload["id"]
            delay = records[rid]["due"] - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            records[rid]["sent"] = perf_counter()
            writer.write(lines[rid])
            await writer.drain()

    async def receive(conn: int) -> None:
        reader = conns[conn][0]
        for _ in per_conn[conn]:
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed the connection early")
            now = perf_counter()
            response = json.loads(line)
            record = records[response["id"]]
            record["recv"] = now
            record["response"] = response

    tasks = [asyncio.create_task(send(c)) for c in range(CONNECTIONS)]
    tasks += [asyncio.create_task(receive(c)) for c in range(CONNECTIONS)]
    try:
        await asyncio.wait_for(asyncio.gather(*tasks), timeout_s)
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for _, writer in conns:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
    return records


def reference(body: dict):
    """The direct library call a catalog request's ``result`` must equal
    (campaign payloads without their volatile ``runtime`` block)."""
    from repro.apps import load_application
    from repro.core.constraints import Constraints
    from repro.core.greedy import initial_greedy_mapping
    from repro.io import custom_topology_to_dict, selection_to_dict
    from repro.simulation.campaign import (
        CampaignConfig,
        run_campaign,
        strip_runtime,
    )
    from repro.sunmap import run_sunmap
    from repro.synthesis.generate import (
        SynthesisConfig,
        synthesize_topologies,
    )
    from repro.topology.library import make_topology

    params = body["params"]
    app = load_application(params["app"])
    if body["kind"] == "select":
        report = run_sunmap(
            app, routing=params["routing"], objective=params["objective"],
            constraints=Constraints(
                link_capacity_mb_s=params["link_capacity_mb_s"]
            ),
            generate=False,
        )
        return {
            "application": app.name,
            "attempted_routings": report.attempted_routings,
            "selection": selection_to_dict(report.selection),
        }
    if body["kind"] == "synthesize":
        result = synthesize_topologies(
            app,
            config=SynthesisConfig(
                strategies=tuple(params["strategies"]),
                concentrations=tuple(params["concentrations"]),
                max_switch_degrees=tuple(params["max_switch_degrees"]),
                max_candidates=params["max_candidates"],
            ),
            routing=params["routing"],
            objective=params["objective"],
            constraints=Constraints(
                link_capacity_mb_s=params["link_capacity_mb_s"]
            ),
        )
        payload = result.to_dict()
        best = result.best
        payload["best_topology"] = (
            None if best is None else custom_topology_to_dict(best.topology)
        )
        return payload
    topology = make_topology(params["topology"], app.num_cores)
    result = run_campaign(
        topology,
        core_graph=app,
        assignment=initial_greedy_mapping(app, topology),
        config=CampaignConfig(
            rates=tuple(params["rates"]),
            patterns=tuple(params["patterns"]),
            seeds=tuple(params["seeds"]),
            warmup=params["warmup"],
            measure=params["measure"],
            drain=params["drain"],
            sim_engine=params["sim_engine"],
        ),
    )
    return strip_runtime(result.to_dict())
