"""The swap search overlaps its floorplan LPs with routing, exactly.

With the floorplanner in the loop, the search starts candidates ahead
(routes them and sends their LPs to the LP solver process) and finishes
them in candidate order (:mod:`repro.core.mapper`). These tests check
that a collector search still records each candidate once, in order,
with several LPs really in flight; that the LPs a power search solves
and the candidates it prunes do not depend on how fast the solver
solves; that an LP failing in the solver gives the failure and the
area-infeasible evaluation it always gave, and leaves the next LP's
bits fresh; and that a forked worker, whose parent already solved LPs
in its own solver process, starts its own and returns the serial
answers.

The solver process is forked from this module as it is when the first
LP asks for it, so a test that slows ``lp._run_lp`` down restarts the
solver after patching it (:func:`delay_lps`).
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
from repro.core.selector import select_topology
from repro.errors import FloorplanError
from repro.floorplan import lp
from repro.floorplan.lp import DEFAULT_CHANNEL_MM, floorplan_mapping
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
            for k in ("solved", "reused", "failed")}


@pytest.fixture
def delay_lps(monkeypatch):
    """``delay_lps(seconds)`` holds every LP back ``seconds`` in the
    solver process: it patches ``lp._run_lp`` and restarts the solver,
    which then forks with the patch. After the test the solver restarts
    once more, so later tests get one that runs the original."""
    original = lp._run_lp

    def delay(seconds: float) -> None:
        def slow_run(*args):
            time.sleep(seconds)
            return original(*args)

        monkeypatch.setattr(lp, "_run_lp", slow_run)
        lp._stop_solver()

    yield delay
    lp._stop_solver()


@pytest.mark.parametrize("topo", ["clos", "butterfly"])
def test_collector_search_appends_each_candidate_once_in_order(
    topo, monkeypatch, delay_lps
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

    def evaluate_swap(self, base, s1, s2, *args, **kwargs):
        started.append(swap_assignment(base, s1, s2))
        in_flight.append(len(started) - finished[0])
        return original_swap(self, base, s1, s2, *args, **kwargs)

    def finish(self, pending):
        finished[0] += 1
        return original_finish(self, pending)

    monkeypatch.setattr(
        memo.MemoizedMappingEvaluator, "evaluate_swap", evaluate_swap
    )
    monkeypatch.setattr(memo.MemoizedMappingEvaluator, "finish", finish)
    delay_lps(0.005)
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


def _power_selections(
    monkeypatch, delay_lps, delay_s: float
) -> tuple[dict, list]:
    """The LP outcomes and the per-search ``MemoStats`` of the vopd and
    dsp (1000 MB/s links) power selections, on fresh topologies, with
    every queued LP held back ``delay_s`` in the solver process."""
    original_init = memo.MemoizedMappingEvaluator.__init__
    searches = []

    def init(self, *args):
        original_init(self, *args)
        searches.append(self)

    delay_lps(delay_s)
    with monkeypatch.context() as patch:
        patch.setattr(memo.MemoizedMappingEvaluator, "__init__", init)
        before = _lp_solves()
        for app, constraints in (
            ("vopd", Constraints()),
            ("dsp", Constraints(link_capacity_mb_s=1000.0)),
        ):
            select_topology(
                load_application(app), objective="power",
                constraints=constraints,
            )
    return _solved_since(before), [search.stats for search in searches]


def test_power_search_counts_do_not_depend_on_lp_timing(
    monkeypatch, delay_lps
):
    """The search finishes candidates on a schedule fixed by its input,
    so a solver slowed by a few ms per LP solves the same LPs and
    prunes the same candidates as a fast one."""
    fast, fast_stats = _power_selections(monkeypatch, delay_lps, 0.0)
    slow, slow_stats = _power_selections(monkeypatch, delay_lps, 0.002)
    assert slow == fast
    assert slow_stats == fast_stats
    hits, misses, pruned, floored = (
        sum(getattr(stats, name) for stats in fast_stats)
        for name in ("hits", "misses", "pruned", "floored")
    )
    # Every evaluation that no cut-off drops asks for exactly one LP.
    assert fast["solved"] + fast["reused"] == misses - pruned
    # Which LPs a search solves follows from the solutions' bits, and
    # another HiGHS release may pick another optimal vertex, so the
    # counts are pinned for the release they were measured with.
    highs = (lp._highs.HIGHS_VERSION_MAJOR, lp._highs.HIGHS_VERSION_MINOR)
    if highs == (1, 12):
        assert fast == {"solved": 836, "reused": 179, "failed": 0}
        assert [hits, misses, pruned, floored] == [57, 2467, 1452, 701]


def test_lp_failing_on_the_helper_is_area_infeasible():
    """Below an aspect bound of 1 no chip fits: the LP fails in the
    solver process, ``floorplan_mapping`` raises the same
    ``FloorplanError`` as ever, the evaluation comes back
    area-infeasible, and the next LP gets the bits of a fresh solver."""
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
    highs.passModel(
        lp._highs_lp(lp._lp_model(columns, DEFAULT_CHANNEL_MM, 3.0))
    )
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


def test_forked_workers_start_their_own_lp_helper():
    """The parent solves LPs in its solver process first, then forks a
    pool: a ``jobs=2`` vopd power selection finishes and equals
    ``jobs=1``, as ``float.hex``, and the parent's solver is the same
    live process before and after. (A child that wrote to the parent's
    solver would read replies meant for the parent, and a child that
    kept the parent's pipes open would keep the parent's solver alive
    past the parent.)"""
    script = textwrap.dedent("""
        import json
        import os
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
        solver = lp._SOLVER.pid
        forked = bits(select_topology(app, objective="power", jobs=2))
        alive = lp._SOLVER.pid == solver and os.waitpid(
            solver, os.WNOHANG) == (0, 0)
        print(json.dumps([alive, serial, forked]))
    """)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    alive, serial, forked = json.loads(proc.stdout)
    assert alive
    assert len(serial) == 5
    assert forked == serial
