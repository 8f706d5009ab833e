"""The swap search overlaps its floorplan LPs with routing, exactly.

With the floorplanner in the loop, the search starts candidates ahead
(routes them and queues their LPs on the LP helper thread) and finishes
them in candidate order (:mod:`repro.core.mapper`). These tests check
that a collector search still records each candidate once, in order,
with several LPs really in flight; that an LP failing on the helper
gives the failure and the area-infeasible evaluation it always gave,
and leaves the next LP's bits fresh; that a skipped LP is counted and
never stored; and that a forked worker, whose parent already solved
LPs on its own helper, runs its own and returns the serial answers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.apps import load_application
from repro.core import memo
from repro.core.constraints import Constraints
from repro.core.evaluate import evaluate_mapping
from repro.core.greedy import initial_greedy_mapping
from repro.core.mapper import WINDOW, MapperConfig, map_onto
from repro.core.memo import swap_assignment
from repro.errors import FloorplanError
from repro.floorplan import lp
from repro.floorplan.lp import (
    DEFAULT_CHANNEL_MM,
    floorplan_mapping,
    request_floorplan,
)
from repro.floorplan.positions import derive_columns
from repro.obs import get_registry
from repro.routing.library import make_routing
from repro.topology.library import make_topology


def _lp_solves() -> dict:
    """``repro_floorplan_lp_solves_total`` by outcome."""
    family = get_registry().snapshot().get("repro_floorplan_lp_solves_total")
    series = family["series"] if family else []
    return {s["labels"]["outcome"]: s["value"] for s in series}


def _solved_since(before: dict) -> dict:
    after = _lp_solves()
    return {k: after.get(k, 0.0) - before.get(k, 0.0)
            for k in ("solved", "reused", "failed", "cancelled")}


@pytest.mark.parametrize("topo", ["clos", "butterfly"])
def test_collector_search_appends_each_candidate_once_in_order(
    topo, monkeypatch
):
    """Every vopd candidate on these fabrics reaches the LP. With each
    queued LP slowed down, several are in flight at once (never more
    than the window allows), and the collector still gets the greedy
    seed, then one evaluation per swap, in the order the swaps were
    started."""
    started, in_flight = [], []
    finished = [-1]  # the greedy seed finishes first
    original_swap = memo.MemoizedMappingEvaluator.evaluate_swap
    original_finish = memo.MemoizedMappingEvaluator.finish
    original_run = lp._run_lp

    def evaluate_swap(self, base, s1, s2, *args, **kwargs):
        started.append(swap_assignment(base, s1, s2))
        in_flight.append(len(started) - finished[0])
        return original_swap(self, base, s1, s2, *args, **kwargs)

    def finish(self, pending):
        finished[0] += 1
        return original_finish(self, pending)

    def slow_run(*args):
        time.sleep(0.005)
        return original_run(*args)

    monkeypatch.setattr(
        memo.MemoizedMappingEvaluator, "evaluate_swap", evaluate_swap
    )
    monkeypatch.setattr(memo.MemoizedMappingEvaluator, "finish", finish)
    monkeypatch.setattr(lp, "_run_lp", slow_run)
    core_graph = load_application("vopd")
    topology = make_topology(topo, core_graph.num_cores)
    collected = []
    map_onto(
        core_graph, topology, "MP", "power",
        config=MapperConfig(max_rounds=1), collector=collected,
    )
    assert collected[0].assignment == initial_greedy_mapping(
        core_graph, topology
    )
    assert [ev.assignment for ev in collected[1:]] == started
    assert finished[0] == len(started)  # the swaps, each once
    assert 1 < max(in_flight) <= WINDOW + 1


def test_lp_failing_on_the_helper_is_area_infeasible():
    """Below an aspect bound of 1 no chip fits: the LP fails on the
    helper, ``floorplan_mapping`` raises the same ``FloorplanError`` as
    ever, the evaluation comes back area-infeasible, and the next LP
    gets the bits of a fresh solver."""
    core_graph = load_application("vopd")
    topology = make_topology("mesh", core_graph.num_cores)
    identity = {i: i for i in range(core_graph.num_cores)}
    before = _lp_solves()
    with pytest.raises(FloorplanError, match="LP failed: Infeasible"):
        floorplan_mapping(topology, identity, core_graph, max_aspect=0.95)
    evaluation = evaluate_mapping(
        core_graph, topology, identity, make_routing("MP"),
        Constraints(max_chip_aspect=0.95),
    )
    assert evaluation.floorplan is None and evaluation.area_mm2 is None
    assert not evaluation.area_feasible and not evaluation.feasible
    assert _solved_since(before)["failed"] == 2

    columns = [c for c in derive_columns(topology, identity, core_graph) if c]
    highs = lp._highs._Highs()
    highs.passOptions(lp._HIGHS_OPTIONS)
    highs.passModel(lp._lp_model(columns, DEFAULT_CHANNEL_MM, 3.0))
    highs.run()
    fresh = np.array(highs.getSolution().col_value)
    after = lp._solve_lp(columns, DEFAULT_CHANNEL_MM, 3.0)
    assert np.array_equal(after, fresh)


def test_pruned_search_with_failing_lps_matches_collector_search():
    core_graph = load_application("dsp")
    topology = make_topology("butterfly", core_graph.num_cores)
    constraints = Constraints(max_chip_aspect=0.95)
    full = map_onto(
        core_graph, topology, "MP", "power", constraints, collector=[]
    )
    pruned = map_onto(core_graph, topology, "MP", "power", constraints)
    assert not pruned.area_feasible and pruned.floorplan is None
    assert pruned.assignment == full.assignment
    assert pruned.sort_key() == full.sort_key()


def test_unwanted_lp_is_skipped_counted_and_not_stored():
    core_graph = load_application("vopd")
    topology = make_topology("torus", core_graph.num_cores)
    identity = {i: i for i in range(core_graph.num_cores)}
    before = _lp_solves()
    asked = []

    def wanted():
        asked.append(True)
        return False

    request = request_floorplan(topology, identity, core_graph, wanted=wanted)
    assert request.cancelled()
    with pytest.raises(FloorplanError, match="cancelled"):
        request.solution()
    assert asked == [True]
    assert topology.derived("lp") == {}
    kept = request_floorplan(
        topology, identity, core_graph, wanted=lambda: True
    )
    assert not kept.cancelled()
    assert list(topology.derived("lp").values())[0] is kept.solution()
    assert _solved_since(before) == {
        "solved": 1, "reused": 0, "failed": 0, "cancelled": 1,
    }


def test_forked_workers_start_their_own_lp_helper():
    """The parent solves LPs on its helper first, then forks a pool: a
    ``jobs=2`` vopd power selection finishes and equals ``jobs=1``, as
    ``float.hex``. (A child that kept the parent's helper would queue
    its LPs on a thread that does not exist in it, and hang.)"""
    script = textwrap.dedent("""
        import json
        from repro.apps import load_application
        from repro.core.selector import select_topology
        from repro.floorplan import lp

        def bits(selection):
            return {
                name: [sorted(ev.assignment.items()), ev.cost.hex(),
                       ev.power_mw.hex(), ev.area_mm2.hex(), ev.feasible]
                for name, ev in selection.evaluations.items()
            }

        app = load_application("vopd")
        serial = bits(select_topology(app, objective="power", jobs=1))
        helper = lp._HELPER is not None
        forked = bits(select_topology(app, objective="power", jobs=2))
        print(json.dumps([helper, serial, forked]))
    """)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    helper, serial, forked = json.loads(proc.stdout)
    assert helper
    assert len(serial) == 5
    assert forked == serial
