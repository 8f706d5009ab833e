"""The runtime never imports networkx.

networkx is a test-only oracle (``tests/nx_oracle.py``). A fresh
interpreter with networkx blocked — ``sys.modules["networkx"] = None``
makes any import of it raise — imports the CLI and runs every call site
the in-house topology graph replaced: the full flow with generation,
path diversity, fault-tolerant synthesis (link resilience), fault
re-convergence and a severed pair, custom-fabric connectivity, and one
point on each simulator lane.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SCRIPT = textwrap.dedent(
    """
    import json
    import sys

    sys.modules["networkx"] = None
    import repro.cli  # noqa: F401

    from repro import run_sunmap
    from repro.apps import load_application
    from repro.core.greedy import initial_greedy_mapping
    from repro.errors import TopologyError, UnroutableError
    from repro.faults import (
        FaultedTopology, FaultSet, link_resilience, partitioned_pairs,
    )
    from repro.simulation.campaign import CampaignConfig, run_campaign
    from repro.synthesis import SynthesisConfig, synthesize_topologies
    from repro.topology.base import is_switch, switch
    from repro.topology.custom import CustomTopology
    from repro.topology.library import make_topology

    out = {}
    report = run_sunmap(load_application("dsp"), generate=True)
    out["flow"] = bool(report.netlist and report.systemc)

    mesh = make_topology("mesh", 12)
    out["diversity"] = mesh.path_diversity(0, mesh.num_slots - 1)

    synthesis = synthesize_topologies(
        load_application("vopd"),
        config=SynthesisConfig(
            strategies=("greedy",), concentrations=(4,),
            max_switch_degrees=(4,), max_candidates=2, fault_tolerance=1,
        ),
    )
    out["resilience"] = link_resilience(synthesis.best.topology)

    corner = [v for v in mesh.graph.successors(switch(0)) if is_switch(v)]
    detour = FaultedTopology(
        mesh, FaultSet(dead_links=((switch(0), switch(1)),))
    )
    out["rerouted"] = len(detour.dor_path(0, 1)) - 2
    cut = FaultedTopology(
        mesh, FaultSet(dead_links=tuple((switch(0), v) for v in corner))
    )
    out["severed"] = len(partitioned_pairs(cut))
    try:
        cut.dor_path(0, 1)
    except UnroutableError:
        out["unroutable"] = True

    CustomTopology("pair", slot_switch=[0, 0, 1], links=[(0, 1)])
    try:
        CustomTopology("split", slot_switch=[0, 1], links=[])
    except TopologyError:
        out["disconnected"] = True

    vopd = load_application("vopd")
    out["points"] = []
    for lane, name, faults in (("exact", "mesh", 1), ("batch", "clos", 0)):
        topology = make_topology(name, vopd.num_cores)
        config = CampaignConfig(
            rates=(0.1,), patterns=("uniform",), warmup=50, measure=200,
            drain=200, faults=faults, sim_engine=lane,
        )
        result = run_campaign(
            topology, core_graph=vopd,
            assignment=initial_greedy_mapping(vopd, topology),
            config=config,
        )
        out["points"].append(len(result.points))

    out["networkx"] = sys.modules["networkx"] is None
    print(json.dumps(out))
    """
)


def test_runtime_never_imports_networkx():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    out = json.loads(proc.stdout)
    assert out == {
        "flow": True,
        "diversity": 10,
        "resilience": 2.0,
        "rerouted": 4,
        "severed": 22,
        "unroutable": True,
        "disconnected": True,
        "points": [1, 1],
        "networkx": True,
    }
