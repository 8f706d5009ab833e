"""Shared computations behind the paper's claims (Section 6, Figs. 3-11).

Each fixture runs one selection, mapping sweep or simulation once per
session; the claim modules next to this file only read the results, so
several claims share one computation and none is computed twice.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

import pytest

from repro.apps.synthetic import random_core_graph
from repro.core.constraints import Constraints
from repro.core.evaluate import evaluate_mapping
from repro.core.exploration import (
    area_power_exploration,
    minimum_bandwidth_per_routing,
)
from repro.core.greedy import initial_greedy_mapping
from repro.core.mapper import MapperConfig, map_onto
from repro.core.selector import select_topology
from repro.physical.estimate import NetworkEstimator
from repro.physical.technology import scaled_technology
from repro.routing import minimum_path
from repro.routing.library import make_routing
from repro.routing.shortest import topology_search
from repro.simulation.network import Network, SimConfig
from repro.simulation.stats import latency_vs_injection, run_measurement
from repro.simulation.traffic import (
    SyntheticTraffic,
    TraceTraffic,
    adversarial_pattern,
)
from repro.sunmap import run_sunmap
from repro.topology.library import make_topology

#: The converging swap search every selection claim runs under.
SEARCH = MapperConfig(max_rounds=10)
#: The paper's single swap pass (Figure 5, steps 9-10).
SINGLE_PASS = MapperConfig(max_rounds=1)

LIBRARY = ("mesh", "torus", "hypercube", "clos", "butterfly")
#: The DSP filter's 600 MB/s stream links exceed the video apps'
#: 500 MB/s links, so its design points use 1000 MB/s links.
DSP_LINKS = Constraints(link_capacity_mb_s=1000.0)
#: Injection rates of the netproc latency curves (flits/cycle/node).
NETPROC_RATES = (0.1, 0.2, 0.3, 0.4, 0.5)
BUFFER_DEPTHS = (2, 4, 8, 16)

README = Path(__file__).resolve().parents[2] / "README.md"


def by_family(selection) -> dict:
    """A selection's evaluations keyed by topology family (``mesh``...)."""
    return {n.split("-")[0]: ev for n, ev in selection.evaluations.items()}


@pytest.fixture(scope="session")
def vopd_flow(vopd_app):
    """VOPD through the full flow: MP routing, hops objective."""
    return run_sunmap(vopd_app, routing="MP", objective="hops", config=SEARCH)


@pytest.fixture(scope="session")
def vopd_evs(vopd_flow):
    return by_family(vopd_flow.selection)


@pytest.fixture(scope="session")
def mpeg4_mp(mpeg4_app):
    """MPEG4 under minimum-path routing, one swap pass per topology."""
    return select_topology(
        mpeg4_app, routing="MP", objective="hops", config=SINGLE_PASS
    )


@pytest.fixture(scope="session")
def mpeg4_sm_flow(mpeg4_app):
    """MPEG4 through the full flow under split routing, hops objective."""
    return run_sunmap(mpeg4_app, routing="SM", objective="hops", config=SEARCH)


@pytest.fixture(scope="session")
def mpeg4_sm_evs(mpeg4_sm_flow):
    return by_family(mpeg4_sm_flow.selection)


@pytest.fixture(scope="session")
def mpeg4_sm_power(mpeg4_app):
    """MPEG4 selection under split routing, power objective. The
    floorplan LP runs inside its swap loop, so it is the costliest
    selection here and runs on two workers (bit-identical to serial)."""
    return select_topology(
        mpeg4_app, routing="SM", objective="power", config=SEARCH, jobs=2
    )


@pytest.fixture(scope="session", params=["hops", "power"])
def mpeg4_sm(request, mpeg4_sm_flow, mpeg4_sm_power):
    """(selection, evaluations by family) of MPEG4 under split routing,
    once per objective."""
    if request.param == "hops":
        selection = mpeg4_sm_flow.selection
    else:
        selection = mpeg4_sm_power
    return selection, by_family(selection)


@pytest.fixture(scope="session")
def mpeg4_bandwidth(mpeg4_app):
    """Minimum link bandwidth per routing function, MPEG4 on the mesh."""
    mesh = make_topology("mesh", mpeg4_app.num_cores)
    return minimum_bandwidth_per_routing(mpeg4_app, mesh, config=SEARCH)


@pytest.fixture(scope="session")
def mpeg4_pareto(mpeg4_app):
    """(points, front) of the swap phase's MPEG4/mesh area-power cloud."""
    mesh = make_topology("mesh", mpeg4_app.num_cores)
    return area_power_exploration(mpeg4_app, mesh, routing="SM", config=SEARCH)


@pytest.fixture(scope="session")
def netproc_relaxed(netproc_app):
    """Netproc selection with relaxed bandwidth (Section 6.2)."""
    return select_topology(
        netproc_app, routing="SM", objective="hops",
        constraints=Constraints().relaxed(), config=SEARCH,
    )


@pytest.fixture(scope="session")
def netproc_evs(netproc_relaxed):
    return by_family(netproc_relaxed)


@pytest.fixture(scope="session")
def netproc_latency():
    """family -> (pattern, reports over NETPROC_RATES): each 16-node
    topology driven by its adversarial traffic pattern."""
    curves = {}
    for name in LIBRARY:
        topo = make_topology(name, 16)
        pattern = adversarial_pattern(topo)
        reports = latency_vs_injection(
            topo, list(NETPROC_RATES), pattern=pattern,
            config=SimConfig(seed=1), warmup=500, measure=2500,
            drain=2000, active_slots=list(range(16)),
        )
        curves[name] = (pattern, reports)
    return curves


@pytest.fixture(scope="session")
def dsp_flow(dsp_app):
    """The DSP filter through all three phases, generation included."""
    return run_sunmap(
        dsp_app, routing="MP", objective="hops", constraints=DSP_LINKS,
        config=SEARCH,
    )


@pytest.fixture(scope="session")
def dsp_latency(dsp_app):
    """family -> average packet latency of the DSP filter's trace on its
    bandwidth-minimizing mapping: the least-congested "best mapping" of
    each topology is the relevant one for a latency comparison."""
    latencies = {}
    for name in LIBRARY:
        topo = make_topology(name, dsp_app.num_cores)
        ev = map_onto(
            dsp_app, topo, routing="MP", objective="bandwidth",
            constraints=DSP_LINKS, config=SEARCH,
        )
        # 2x the nominal rates loads the hottest link at ~0.6
        # flits/cycle, where contention separates the topologies (at
        # near-zero load they all tie at their zero-load latency).
        traffic = TraceTraffic(dsp_app, ev.assignment, scale=2.0, seed=5)
        net = Network(
            ev.topology, SimConfig(seed=3),
            active_slots=sorted(ev.assignment.values()),
        )
        net.run(6000, traffic)
        net.drain(max_cycles=30000)
        lats = [p.latency for p in net.delivered if p.latency is not None]
        latencies[name] = sum(lats) / len(lats)
    return latencies


@pytest.fixture(scope="session")
def vopd_swap_stages(vopd_app, vopd_evs):
    """family -> (greedy seed, one swap pass, converged search) on VOPD
    under MP/hops; the converged stage is the selection's mapping."""
    stages = {}
    for name in ("mesh", "butterfly"):
        topo = make_topology(name, vopd_app.num_cores)
        greedy = evaluate_mapping(
            vopd_app, topo, initial_greedy_mapping(vopd_app, topo),
            make_routing("MP"), Constraints(),
        )
        single = map_onto(
            vopd_app, topo, routing="MP", objective="hops",
            config=SINGLE_PASS,
        )
        stages[name] = (greedy, single, vopd_evs[name])
    return stages


@pytest.fixture(scope="session")
def vopd_technology(vopd_app, vopd_evs):
    """feature size (um) -> family -> VOPD mapping under an area-power
    library scaled to that node; the paper's own 100 nm node is the
    default estimator, so that row is the selection's."""
    assert NetworkEstimator().tech == scaled_technology(0.10)
    rows = {0.10: {n: vopd_evs[n] for n in ("mesh", "butterfly")}}
    for feature in (0.13, 0.065):
        estimator = NetworkEstimator(scaled_technology(feature))
        rows[feature] = {
            name: map_onto(
                vopd_app, make_topology(name, vopd_app.num_cores),
                routing="MP", objective="hops", estimator=estimator,
                config=SEARCH,
            )
            for name in ("mesh", "butterfly")
        }
    return rows


@pytest.fixture(scope="session")
def buffer_depth_reports():
    """depth -> report: 16-node mesh, bit-reverse traffic at 0.3."""
    topo = make_topology("mesh", 16)
    return {
        depth: run_measurement(
            topo, SyntheticTraffic("bit_reverse", 0.3, seed=7),
            config=SimConfig(buffer_depth_flits=depth, seed=1),
            warmup=500, measure=2500, drain=2000,
            active_slots=list(range(16)), offered_rate=0.3,
        )
        for depth in BUFFER_DEPTHS
    }


@pytest.fixture(scope="session")
def quadrant_search() -> dict[bool, tuple[float, int]]:
    """quadrant on/off -> (MP's weighted average hops, search-graph
    nodes summed over the commodities) on Section 4.1's setting: a
    64-node mesh carrying 120 flows of 48 greedily placed cores."""
    app = random_core_graph(48, n_flows=120, seed=42)
    topo = make_topology("mesh", 64)
    slot_of = initial_greedy_mapping(app, topo)
    commodities = app.commodities()
    routing = make_routing("MP")
    result = {}
    for quadrant in (True, False):
        search = partial(topology_search, quadrant=quadrant)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(minimum_path, "topology_search", search)
            routed = routing.route_all(topo, slot_of, commodities)
        nodes = sum(
            search(topo, slot_of[c.src], slot_of[c.dst]).num_nodes
            for c in commodities
        )
        result[quadrant] = (routed.weighted_average_hops(), nodes)
    return result


@pytest.fixture(scope="session")
def readme_table() -> dict[str, tuple[str, str]]:
    """README's "Paper vs reproduced" rows: quantity -> (paper, ours)."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Paper vs reproduced", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("Fig. "):
            rows[cells[0]] = (cells[1], cells[2])
    return rows
