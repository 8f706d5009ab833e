"""The direct HiGHS solve is bit-identical to ``scipy.optimize.linprog``.

:func:`repro.floorplan.lp._solve_lp` builds the sizing LP row-wise and
hands it to HiGHS itself. The reference here is the same model built
the straightforward way — one dense row per constraint, variable bounds
as ``(lo, hi)`` pairs — and solved by ``linprog(method="highs")``. The
two solution vectors must be equal element for element, and where
``linprog`` reports failure the direct solve must raise
:class:`~repro.errors.FloorplanError`.

The bindings are loaded without importing ``scipy.optimize``; fresh
interpreters check that importing repro leaves ``scipy.optimize`` out,
and that in either import order both solvers share one bindings module.

Solutions are reused per topology and solved in the process's one LP
solver process, whatever thread asks; every solution the flow uses must
carry the bits a new, freshly configured solver gives the same model.
The model itself is built from per-block-shape templates; it must equal,
list for list, the model the straightforward per-block builder gives.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import math
import os
import pickle
import re
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.apps import load_application
from repro.core.constraints import Constraints
from repro.core.coregraph import CoreGraph
from repro.core.selector import select_topology
from repro.errors import FloorplanError
from repro.floorplan import lp
from repro.floorplan.blocks import Block
from repro.floorplan.lp import (
    DEFAULT_CHANNEL_MM,
    TANGENT_CUTS,
    _solve_lp,
    floorplan_mapping,
)
from repro.floorplan.positions import derive_columns
from repro.obs import get_registry
from repro.physical.technology import scaled_technology
from repro.topology.library import make_topology


def _dense_model(columns, channel, max_aspect):
    """(cost, A_ub, b_ub, bounds) of the sizing LP, one dense row per
    constraint: width-in-column, stacking, below-top, tangent cuts per
    soft block, then the two chip aspect rows."""
    n_cols = len(columns)
    blocks = [b for col in columns for b in col]
    hv = n_cols + 3 * len(blocks)
    n_vars = hv + 1
    rows, rhs = [], []

    def add(coeffs, bound):
        row = np.zeros(n_vars)
        for idx, val in coeffs.items():
            row[idx] += val
        rows.append(row)
        rhs.append(bound)

    i = 0
    for c, col in enumerate(columns):
        prev = None
        for block in col:
            y, w, h = n_cols + 3 * i, n_cols + 3 * i + 1, n_cols + 3 * i + 2
            coeffs = {w: 1.0, c: -1.0}
            if c > 0:
                coeffs[c - 1] = 1.0
            add(coeffs, -channel)
            if prev is not None:
                add({prev: 1.0, prev + 2: 1.0, y: -1.0}, -channel)
            prev = y
            add({y: 1.0, h: 1.0, hv: -1.0}, 0.0)
            if block.is_soft:
                w_lo, w_hi = block.width_min, block.width_max
                for t in range(TANGENT_CUTS):
                    frac = t / max(1, TANGENT_CUTS - 1)
                    w0 = w_lo * (w_hi / w_lo) ** frac
                    area = block.area_mm2
                    add({h: -1.0, w: -area / w0**2}, -2.0 * area / w0)
            i += 1
    if max_aspect is not None:
        add({hv: 1.0, n_cols - 1: -max_aspect}, 0.0)
        add({n_cols - 1: 1.0, hv: -max_aspect}, 0.0)

    bounds = [(0.0, None)] * n_cols
    for block in blocks:
        if block.is_soft:
            h_lo = math.sqrt(block.area_mm2 / block.aspect_max)
            h_hi = math.sqrt(block.area_mm2 / block.aspect_min)
        else:
            h_lo = h_hi = math.sqrt(block.area_mm2)
        bounds += [(0.0, None), (block.width_min, block.width_max), (h_lo, h_hi)]
    bounds.append((0.0, None))
    cost = np.zeros(n_vars)
    cost[n_cols - 1] = 1.0
    cost[hv] = 1.0
    return cost, np.vstack(rows), np.array(rhs), bounds


def _assert_matches_linprog(columns, channel, max_aspect):
    cost, a_ub, b_ub, bounds = _dense_model(columns, channel, max_aspect)
    ref = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not ref.success:
        with pytest.raises(FloorplanError):
            _solve_lp(columns, channel, max_aspect)
        return ref
    x = _solve_lp(columns, channel, max_aspect)
    assert np.array_equal(x, ref.x)
    return ref


@st.composite
def _blocks(draw, index):
    area = draw(st.floats(0.05, 20.0))
    if draw(st.booleans()):
        return Block(key=("sw", index), name=f"b{index}", area_mm2=area,
                     is_soft=False)
    aspect_min = draw(st.floats(0.2, 1.0))
    aspect_max = draw(st.floats(aspect_min, 5.0))
    return Block(key=("core", index), name=f"b{index}", area_mm2=area,
                 aspect_min=aspect_min, aspect_max=aspect_max)


@st.composite
def _columns(draw):
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    index = iter(range(sum(shape)))
    return [[draw(_blocks(next(index))) for _ in range(n)] for n in shape]


#: No bound, the flow's default, or a bound near 1.0 (below it no chip
#: satisfies both ``H <= a W`` and ``W <= a H``, so the LP is infeasible).
_MAX_ASPECT = st.one_of(
    st.none(), st.just(3.0), st.floats(0.9, 1.1)
)


@settings(max_examples=150, deadline=None)
@given(
    columns=_columns(),
    channel=st.one_of(st.just(DEFAULT_CHANNEL_MM), st.floats(0.0, 0.5)),
    max_aspect=_MAX_ASPECT,
)
def test_solve_matches_linprog(columns, channel, max_aspect):
    _assert_matches_linprog(columns, channel, max_aspect)


def test_infeasible_aspect_bound_raises():
    columns = [[Block(key=("core", 0), name="a", area_mm2=1.0)]]
    ref = _assert_matches_linprog(columns, DEFAULT_CHANNEL_MM, 0.95)
    assert not ref.success


@pytest.mark.parametrize("app", ["vopd", "dsp", "mpeg4"])
@pytest.mark.parametrize(
    "topo", ["mesh", "torus", "hypercube", "clos", "butterfly"]
)
def test_paper_floorplans_match_linprog(app, topo):
    core_graph = load_application(app)
    topology = make_topology(topo, core_graph.num_cores)
    assignment = {i: i for i in range(core_graph.num_cores)}
    columns = derive_columns(topology, assignment, core_graph)
    for max_aspect in (None, 3.0):
        assert _assert_matches_linprog(
            columns, DEFAULT_CHANNEL_MM, max_aspect
        ).success


# ----------------------------------------------------------------------
_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _run_fresh(script: str, stdin: bytes = b"") -> object:
    """Run ``script`` in a fresh interpreter; returns its JSON stdout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=stdin,
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


def test_importing_repro_skips_scipy_optimize():
    loaded = _run_fresh(textwrap.dedent(f"""
        import json, sys
        import repro, repro.cli, repro.service
        from repro.floorplan import lp
        print(json.dumps([
            "scipy.optimize" in sys.modules,
            lp._highs is sys.modules.get({_HIGHS_MODULE!r}),
        ]))
    """))
    assert loaded == [False, True]


def test_missing_bindings_raise_import_error(monkeypatch, tmp_path):
    from repro.floorplan import lp

    scipy_spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    scipy_spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.delitem(sys.modules, _HIGHS_MODULE)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy_spec)
    searched = str(tmp_path / "optimize" / "_highspy")
    with pytest.raises(ImportError, match=re.escape(searched)):
        lp._load_highs()
    assert _HIGHS_MODULE not in sys.modules


#: The two import orders: repro's loader first, or scipy.optimize's own.
_IMPORT_ORDERS = {
    "repro-first": "import repro.floorplan.lp\nimport scipy.optimize\n",
    "scipy-first": "import scipy.optimize\nimport repro.floorplan.lp\n",
}


@pytest.mark.parametrize("order", sorted(_IMPORT_ORDERS))
def test_one_bindings_module_in_either_import_order(order):
    core_graph = load_application("vopd")
    topology = make_topology("mesh", core_graph.num_cores)
    assignment = {i: i for i in range(core_graph.num_cores)}
    columns = derive_columns(topology, assignment, core_graph)
    model = _dense_model(columns, DEFAULT_CHANNEL_MM, 3.0)
    script = _IMPORT_ORDERS[order] + textwrap.dedent(f"""
        import gc, json, pickle, sys, types
        import numpy as np
        from scipy.optimize import linprog
        from repro.floorplan.lp import _highs, _solve_lp
        columns, (cost, a_ub, b_ub, bounds) = pickle.load(sys.stdin.buffer)
        ref = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        x = _solve_lp(columns, {DEFAULT_CHANNEL_MM!r}, 3.0)
        cores = [
            m for m in gc.get_objects()
            if isinstance(m, types.ModuleType) and m.__name__ == {_HIGHS_MODULE!r}
        ]
        print(json.dumps([
            len(cores),
            sys.modules[{_HIGHS_MODULE!r}] is _highs,
            bool(ref.success),
            bool(np.array_equal(x, ref.x)),
        ]))
    """)
    result = _run_fresh(script, pickle.dumps((columns, model)))
    assert result == [1, True, True, True]


# ----------------------------------------------------------------------
def _fresh_solution(columns, channel, max_aspect) -> np.ndarray:
    """The LP solved on a new solver given the options afresh."""
    highs = lp._highs._Highs()
    highs.passOptions(lp._HIGHS_OPTIONS)
    highs.passModel(lp._highs_lp(lp._lp_model(columns, channel, max_aspect)))
    highs.run()
    assert highs.getModelStatus() == lp._highs.HighsModelStatus.kOptimal
    return np.array(highs.getSolution().col_value)


def _row_by_row_model(columns, channel, max_aspect) -> tuple:
    """The sizing LP as :func:`repro.floorplan.lp._lp_model`'s lists,
    built block by block and row by row from the block's own
    properties, the way the model was built before it read per-shape
    templates."""
    n_cols = len(columns)
    n_blocks = sum(len(col) for col in columns)
    hv = n_cols + 3 * n_blocks
    n_vars = hv + 1
    starts, indices, values, rhs = [0], [], [], []

    def add(row_indices, row_values, bound):
        indices.extend(row_indices)
        values.extend(row_values)
        starts.append(len(indices))
        rhs.append(bound)

    lower = [0.0] * n_vars
    upper = [lp._highs.kHighsInf] * n_vars
    i = 0
    for c, col in enumerate(columns):
        prev_y = None
        for block in col:
            y, w, h = n_cols + 3 * i, n_cols + 3 * i + 1, n_cols + 3 * i + 2
            lower[w], upper[w] = block.width_min, block.width_max
            lower[h], upper[h] = block.height_min, block.height_max
            if c > 0:
                add((w, c, c - 1), (1.0, -1.0, 1.0), -channel)
            else:
                add((w, c), (1.0, -1.0), -channel)
            if prev_y is not None:
                add((prev_y, prev_y + 2, y), (1.0, 1.0, -1.0), -channel)
            prev_y = y
            add((y, h, hv), (1.0, 1.0, -1.0), 0.0)
            if block.is_soft:
                w_lo, w_hi = block.width_min, block.width_max
                for t in range(TANGENT_CUTS):
                    frac = t / max(1, TANGENT_CUTS - 1)
                    w0 = w_lo * (w_hi / w_lo) ** frac
                    area = block.area_mm2
                    add((h, w), (-1.0, -area / w0**2), -2.0 * area / w0)
            i += 1
    if max_aspect is not None:
        add((hv, n_cols - 1), (1.0, -max_aspect), 0.0)
        add((n_cols - 1, hv), (1.0, -max_aspect), 0.0)
    cost = [0.0] * n_vars
    cost[n_cols - 1] = 1.0
    cost[hv] = 1.0
    return cost, lower, upper, starts, indices, values, rhs


def _model_bits(model) -> list:
    """A model's lists with every float as ``float.hex``."""
    return [
        [v.hex() if isinstance(v, float) else v for v in part]
        for part in model
    ]


def test_power_flow_models_match_the_row_by_row_builder():
    """Every model the vopd and dsp (1000 MB/s links) power flows send
    to the solver equals the row-by-row builder's, list for list and
    bit for bit; so do the models of a hard-block-only and an
    aspect-free column set."""
    recorded = []
    original = lp._lp_model

    def record(columns, channel, max_aspect):
        model = original(columns, channel, max_aspect)
        recorded.append((model, (columns, channel, max_aspect)))
        return model

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_lp_model", record)
        for app, constraints in (
            ("vopd", Constraints()),
            ("dsp", Constraints(link_capacity_mb_s=1000.0)),
        ):
            select_topology(
                load_application(app), objective="power",
                constraints=constraints,
            )
    assert len(recorded) > 500
    hard = [[Block(key=("sw", i), name=f"s{i}", area_mm2=0.1 * (i + 1),
                   is_soft=False) for i in range(3)]]
    recorded.append((original(hard, 0.2, None), (hard, 0.2, None)))
    for model, inputs in recorded:
        assert _model_bits(model) == _model_bits(_row_by_row_model(*inputs))


def _lp_solves() -> dict:
    """``repro_floorplan_lp_solves_total`` by outcome."""
    family = get_registry().snapshot().get("repro_floorplan_lp_solves_total")
    series = family["series"] if family else []
    return {s["labels"]["outcome"]: s["value"] for s in series}


def _solved_since(before: dict) -> dict:
    after = _lp_solves()
    return {k: after.get(k, 0.0) - before.get(k, 0.0)
            for k in ("solved", "reused", "failed")}


def test_power_selection_lps_match_fresh_solver():
    """Every LP the vopd and dsp power selections solve or reuse carries
    the bits of a fresh solve."""
    recorded = []
    original = lp.FloorplanRequest.solution

    def record(request):
        solution = original(request)
        recorded.append(
            (request.columns, request.channel, request.max_aspect, solution)
        )
        return solution

    before = _lp_solves()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp.FloorplanRequest, "solution", record)
        for app in ("vopd", "dsp"):
            select_topology(load_application(app), objective="power")
    solves = _solved_since(before)
    assert solves["reused"] > 0 and solves["solved"] > 0
    assert solves["solved"] + solves["reused"] == len(recorded)
    for columns, channel, max_aspect, x in recorded:
        assert not x.flags.writeable
        assert np.array_equal(x, _fresh_solution(columns, channel, max_aspect))


def _sample_lps() -> list:
    """A dozen LPs: vopd and dsp on three fabrics, two mappings each."""
    lps = []
    for app in ("vopd", "dsp"):
        core_graph = load_application(app)
        n = core_graph.num_cores
        for name in ("mesh", "clos", "butterfly"):
            topology = make_topology(name, n)
            for shift in (0, 1):
                assignment = {i: (i + shift) % n for i in range(n)}
                columns = derive_columns(topology, assignment, core_graph)
                lps.append(([c for c in columns if c], DEFAULT_CHANNEL_MM, 3.0))
    return lps


def test_infeasible_lp_leaves_the_next_solve_unchanged():
    infeasible = ([[Block(key=("core", 0), name="a", area_mm2=1.0)]],
                  DEFAULT_CHANNEL_MM, 0.95)
    lps = _sample_lps()
    for before, after in zip(lps, lps[1:]):
        x_before = _solve_lp(*before)
        with pytest.raises(FloorplanError):
            _solve_lp(*infeasible)
        x_after = _solve_lp(*after)
        assert np.array_equal(x_before, _fresh_solution(*before))
        assert np.array_equal(x_after, _fresh_solution(*after))


def test_threads_solving_interleaved_lps_get_fresh_bits():
    """Two threads queue interleaved LPs on the one solver process;
    each gets the bits of a fresh solver, and the solver process is the
    same for both."""
    lps = _sample_lps()
    expected = [_fresh_solution(*model) for model in lps]
    orders = [list(range(len(lps))), list(reversed(range(len(lps))))]
    step = threading.Barrier(len(orders))
    results = [{} for _ in orders]
    solvers = [None] * len(orders)

    def work(t):
        for i in orders[t]:
            step.wait(timeout=30)  # both threads solve at each step
            results[t][i] = _solve_lp(*lps[i])
        solvers[t] = lp._SOLVER

    threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert solvers[0] is solvers[1] is lp._SOLVER is not None
    os.kill(lp._SOLVER.pid, 0)  # the solver process is still there
    for out in results:
        assert sorted(out) == list(range(len(lps)))
        for i, x in out.items():
            assert np.array_equal(x, expected[i])


def test_threads_sharing_one_topology_get_serial_floorplans():
    """More threads than cores floorplan mappings on one topology, so
    they share its table and race on its misses; each gets the serial
    floorplan, and the table keeps one entry per distinct LP."""
    core_graph = load_application("vopd")
    n = core_graph.num_cores
    mappings = [{i: (i * k + shift) % n for i in range(n)}
                for k in (1, 5, 7) for shift in range(4)]
    serial_topology = make_topology("mesh", n)
    expected = [floorplan_mapping(serial_topology, m, core_graph).rects
                for m in mappings]
    shared = make_topology("mesh", n)
    workers = 4
    failures = []

    def work(t):
        for i in range(len(mappings)):
            j = (i + 3 * t) % len(mappings)
            if floorplan_mapping(shared, mappings[j], core_graph).rects != (
                expected[j]
            ):
                failures.append((t, j))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert shared.derived("lp").keys() == serial_topology.derived("lp").keys()
    # Every LP the threads sent to the solver process was read back.
    assert not lp._SOLVER.unread


def _equal_cores(n: int) -> CoreGraph:
    graph = CoreGraph("equal")
    for i in range(n):
        graph.add_core(f"c{i}", area_mm2=2.0)
    for i in range(n - 1):
        graph.add_flow(i, i + 1, 100.0)
    return graph


def test_equal_shapes_share_one_entry_and_other_inputs_do_not():
    core_graph = _equal_cores(4)
    topology = make_topology("mesh", 4)
    identity = {i: i for i in range(4)}
    swapped = {0: 1, 1: 0, 2: 2, 3: 3}
    before = _lp_solves()
    first = floorplan_mapping(topology, identity, core_graph)
    second = floorplan_mapping(topology, swapped, core_graph)
    table = topology.derived("lp")
    assert len(table) == 1
    assert _solved_since(before) == {"solved": 1, "reused": 1, "failed": 0}
    # Same rectangles, under the other core's key.
    for slot_a, slot_b in ((0, 1), (1, 0)):
        a = first.rects[("core", slot_a)]
        b = second.rects[("core", swapped[slot_a])]
        assert (a.x, a.y, a.w, a.h) == (b.x, b.y, b.w, b.h)

    floorplan_mapping(topology, identity, core_graph, channel_mm=0.2)
    assert len(table) == 2
    floorplan_mapping(topology, identity, core_graph, max_aspect=None)
    assert len(table) == 3
    floorplan_mapping(
        topology, identity, core_graph, tech=scaled_technology(0.13)
    )
    assert len(table) == 4
    assert _solved_since(before) == {"solved": 4, "reused": 1, "failed": 0}


def test_failed_lps_are_counted_and_not_kept():
    core_graph = _equal_cores(4)
    topology = make_topology("mesh", 4)
    identity = {i: i for i in range(4)}
    before = _lp_solves()
    for _ in range(2):
        with pytest.raises(FloorplanError):
            floorplan_mapping(topology, identity, core_graph, max_aspect=0.95)
    assert topology.derived("lp") == {}
    assert _solved_since(before) == {"solved": 0, "reused": 0, "failed": 2}


def test_pickled_topology_carries_no_lp_table():
    core_graph = load_application("vopd")
    topology = make_topology("mesh", core_graph.num_cores)
    identity = {i: i for i in range(core_graph.num_cores)}
    floorplan = floorplan_mapping(topology, identity, core_graph)
    assert topology.derived("lp")
    copy = pickle.loads(pickle.dumps(topology))
    assert copy.derived("lp") == {}
    again = floorplan_mapping(copy, identity, core_graph)
    assert again.rects == floorplan.rects
