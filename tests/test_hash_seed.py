"""Results do not depend on the process's hash seed.

Python salts string hashes per process, so a set of switch nodes such
as ``("sw", 8)`` iterates in a different order in each one. A float sum
or a tie-break over such a set would give results that differ between
processes, though a cache hit or a ``--jobs N`` worker must give the
same bits as the process that asks. This module runs a few small flows
in subprocesses under different ``PYTHONHASHSEED`` values and compares
their results field by field, floats as ``float.hex`` strings: the hops
and power objectives, a multistage fabric, a synthesized fabric and one
campaign point on a faulted fabric.

Run it directly (``python tests/test_hash_seed.py``) to print the
canonical results of this process as JSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

#: Hash seeds the flows run under; seed 4 once changed a mesh's power.
SEEDS = ("0", "4", "21")


def _canonical(value):
    """``value`` as JSON-able data with every float a ``float.hex``
    string and every set sorted."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(repr(v) for v in value)
    return value


def _evaluation(ev) -> dict:
    return _canonical({
        "topology": ev.topology.name,
        "assignment": sorted(ev.assignment.items()),
        "avg_hops": ev.avg_hops,
        "max_link_load": ev.max_link_load,
        "overflow": ev.overflow_mb_s,
        "feasible": ev.feasible,
        "area": ev.area_mm2,
        "power": asdict(ev.power),
        "cost": ev.cost,
        "resources": asdict(ev.resources),
    })


def flows() -> dict:
    """The canonical results of the covered flows in this process."""
    from repro.apps import load_application
    from repro.core.mapper import MapperConfig, map_onto
    from repro.engine.jobs import EvaluationJob, execute_job
    from repro.simulation.campaign import (
        CampaignConfig,
        run_campaign,
        strip_runtime,
    )
    from repro.synthesis.fabric import CandidateSpec, build_candidate
    from repro.topology.library import make_topology

    vopd = load_application("vopd")
    mpeg4 = load_application("mpeg4")
    dsp = load_application("dsp")
    one_round = MapperConfig(max_rounds=1)
    results = {
        "mpeg4-mesh-SM-power": map_onto(
            mpeg4, make_topology("mesh", 12), "SM", "power",
            config=one_round,
        ),
        "vopd-butterfly-MP-hops": map_onto(
            vopd, make_topology("butterfly", vopd.num_cores), "MP", "hops",
        ),
        "dsp-clos-SM-power": map_onto(
            dsp, make_topology("clos", dsp.num_cores), "SM", "power",
            config=one_round,
        ),
    }
    spec = CandidateSpec(
        strategy="greedy", num_switches=4, max_cluster_size=3,
        max_switch_degree=4, link_capacity_mb_s=500.0,
    )
    results["vopd-synthesized-MP-hops"] = execute_job(
        EvaluationJob(vopd, build_candidate(vopd, spec), "MP", "hops")
    ).evaluation
    out = {name: _evaluation(ev) for name, ev in results.items()}
    mesh = make_topology("mesh", vopd.num_cores)
    campaign = run_campaign(
        mesh, core_graph=vopd,
        assignment={i: i for i in range(vopd.num_cores)},
        config=CampaignConfig(
            rates=(0.1,), patterns=("uniform",), warmup=50, measure=200,
            drain=100, faults=1,
        ),
    )
    out["vopd-mesh-campaign"] = _canonical(strip_runtime(campaign.to_dict()))
    return out


def _run(seed: str) -> dict:
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONHASHSEED": seed,
        "PYTHONPATH": src if not path else os.pathsep.join((src, path)),
    }
    done = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True,
        text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def runs() -> dict:
    return {seed: _run(seed) for seed in SEEDS}


@pytest.mark.parametrize("seed", SEEDS[1:])
def test_flows_give_the_same_bits_under_every_hash_seed(runs, seed):
    reference = runs[SEEDS[0]]
    assert runs[seed].keys() == reference.keys()
    for name, fields in reference.items():
        assert runs[seed][name] == fields, name


if __name__ == "__main__":
    print(json.dumps(flows()))
