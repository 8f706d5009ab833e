"""LP-based floorplanner (paper Section 5, after [21]).

Given the column structure from :mod:`repro.floorplan.positions` (the
relative positions implied by the mapping), a single linear program finds
exact positions and soft-block sizes minimizing chip width + height:

* variables: column boundaries, per-block ``(y, w, h)``, chip height H;
* hard blocks are fixed squares, soft blocks choose a width within their
  aspect-ratio range, with the non-linear area law ``h >= A / w``
  approximated from below by tangent cuts (a standard LP floorplanning
  linearization);
* after the LP, a legalization pass restores exact areas
  (``h = max(h_lp, A / w)``) and re-stacks columns, so the result is
  always overlap-free and area-conserving even where the tangent
  approximation was loose.

The LP goes straight to HiGHS, the solver behind
``scipy.optimize.linprog(method="highs")``, through scipy's bundled
bindings (``scipy.optimize._highspy._core``): the model is built row-wise
from the per-block pattern and solved with exactly the options
``linprog`` sets, so its solution is bit-identical to ``linprog``'s on
the same model (``tests/floorplan/test_lp_highs.py`` checks this against
the dense ``linprog`` model) without the wrapper's input cleaning,
option checks and dense-to-sparse conversion.

Each LP is solved once per topology. The LP reads only the block
shapes per column (area, softness, a soft block's aspect bounds), the
channel and the chip aspect bound, never which core or switch a block
is, so :func:`request_floorplan` keys it by exactly those
(:func:`_lp_key`, one flat tuple) in the topology's ``derived("lp")``
table; the power-objective swap search asks for many such repeats.
Only requesting threads touch the table: a queued LP is entered as it
is queued, so a later request for the same key shares it, in flight or
done, and the first request to settle it leaves the read-only solution
(or drops a failed LP). Which requests share an LP thus follows from
their order alone. Pickled topologies carry no derived tables, so a
queued entry never leaves its process.

Every LP, synchronous callers included, is solved on the process's one
helper thread, which owns the process's only HiGHS solver (configured
once and cleared before each model; a solver passed the same model
with the same options returns the same solution bits as a new one).
The helper only solves: the caller builds the model, and HiGHS
releases the GIL while it solves, so the swap search routes its next
candidates meanwhile (:mod:`repro.core.mapper`). A forked child starts
its own helper (:func:`os.register_at_fork`). The requesting thread
counts each LP in ``repro_floorplan_lp_solves_total`` by outcome
(``solved``, ``reused``, ``failed``).

The bindings are one extension module, but importing it by name runs
``scipy/optimize/__init__.py``, which pulls in scipy.linalg,
scipy.sparse and the rest of scipy.optimize (~500 modules; about 0.5 s
and 35 MB on a shared 2-core VM) that the floorplanner never calls.
:func:`_load_highs` instead loads the extension file straight from
scipy's package directory and registers it under its full name, so
``import repro`` never imports ``scipy.optimize``, and a later
``import scipy.optimize`` (``linprog``) reuses the same module object.

The resulting block rectangles give the design area / aspect-ratio
feasibility checks and the link lengths used for power estimation;
:func:`link_length_floors` bounds those lengths from below without an
LP (the power-bounded swap search, :mod:`repro.core.mapper`).
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from pathlib import Path

# Imported here, not on the first solve (the bindings import it then),
# so its load time stays out of the first timed LP.
import numpy as np

from repro.core.coregraph import CoreGraph
from repro.errors import FloorplanError
from repro.floorplan.blocks import Block, BlockRect
from repro.floorplan.positions import derive_columns, switch_sides
from repro.obs import metrics as obs_metrics
from repro.physical.technology import TECH_100NM, Technology
from repro.topology.base import Topology, is_switch, term

#: Wiring-channel margin between blocks and columns (mm).
DEFAULT_CHANNEL_MM = 0.15

#: Number of tangent cuts approximating h >= A/w for soft blocks.
TANGENT_CUTS = 5

#: Shortest physical link length accounted (same-tile connections), mm.
MIN_LINK_MM = 0.05

_LP_SOLVES = obs_metrics.REGISTRY.counter(
    "repro_floorplan_lp_solves_total",
    "Floorplan sizing LPs by outcome (solved, reused, failed)",
    ("outcome",),
)


@dataclass
class FloorplanResult:
    """A legalized floorplan."""

    rects: dict[tuple, BlockRect]
    width_mm: float
    height_mm: float
    columns: list[list[tuple]]

    @property
    def area_mm2(self) -> float:
        return self.width_mm * self.height_mm

    @property
    def aspect_ratio(self) -> float:
        """max(W, H) / min(W, H) >= 1."""
        lo = min(self.width_mm, self.height_mm)
        hi = max(self.width_mm, self.height_mm)
        return hi / lo if lo > 0 else math.inf

    @property
    def block_area_mm2(self) -> float:
        return sum(r.area_mm2 for r in self.rects.values())

    @property
    def whitespace_fraction(self) -> float:
        if self.area_mm2 <= 0:
            return 0.0
        return max(0.0, 1.0 - self.block_area_mm2 / self.area_mm2)

    # ------------------------------------------------------------------
    def _centers(self, assignment: dict) -> dict:
        """Physical center of every placed topology-graph node."""
        centers = {key: rect.center for key, rect in self.rects.items()}
        for core, slot in assignment.items():
            rect = self.rects.get(("core", core))
            if rect is not None:
                centers[term(slot)] = rect.center
        return centers

    def link_lengths(
        self, topology: Topology, assignment: dict
    ) -> dict[tuple, float]:
        """Manhattan length (mm) of every placed topology link."""
        centers = self._centers(assignment)
        lengths = {}
        for u, v in topology.graph.edges():
            cu = centers.get(u)
            cv = centers.get(v)
            if cu is None or cv is None:
                continue
            dist = abs(cu[0] - cv[0]) + abs(cu[1] - cv[1])
            lengths[(u, v)] = max(dist, MIN_LINK_MM)
        return lengths

    def validate(self) -> None:
        """Check legality; raises :class:`FloorplanError` on violation."""
        rects = list(self.rects.values())
        for r in rects:
            if r.x < -1e-9 or r.y < -1e-9:
                raise FloorplanError(f"block {r.block.name} outside origin")
            if r.x + r.w > self.width_mm + 1e-6:
                raise FloorplanError(f"block {r.block.name} exceeds width")
            if r.y + r.h > self.height_mm + 1e-6:
                raise FloorplanError(f"block {r.block.name} exceeds height")
            if r.area_mm2 < r.block.area_mm2 - 1e-6:
                raise FloorplanError(f"block {r.block.name} under area")
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                if a.overlaps(b):
                    raise FloorplanError(
                        f"blocks {a.block.name} and {b.block.name} overlap"
                    )


# ----------------------------------------------------------------------
_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's HiGHS bindings, loaded without importing ``scipy.optimize``.

    Reuses the module if it is already imported; otherwise finds scipy's
    directory without executing scipy, loads ``optimize/_highspy/_core``
    from it, and registers it in :data:`sys.modules` under its full name
    (removed again if loading fails), as the import system would.
    """
    module = sys.modules.get(_HIGHS_MODULE)
    if module is not None:
        return module
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    directory = Path(scipy_spec.submodule_search_locations[0], "optimize", "_highspy")
    finder = FileFinder(str(directory), (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(_HIGHS_MODULE)
    if spec is None:
        raise ImportError(
            f"scipy's HiGHS bindings (_core) not found in {directory}",
            name=_HIGHS_MODULE,
        )
    module = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_MODULE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_HIGHS_MODULE]
        raise
    return module


_highs = _load_highs()

#: HiGHS options: exactly those ``scipy.optimize.linprog(method="highs")``
#: sets, so the solve is bit-identical to it (dual simplex, presolve on,
#: silent). ``passOptions`` copies them into each solver.
_HIGHS_OPTIONS = _highs.HighsOptions()
_HIGHS_OPTIONS.presolve = "on"
_HIGHS_OPTIONS.simplex_strategy = 1  # dual simplex
_HIGHS_OPTIONS.output_flag = False
_HIGHS_OPTIONS.log_to_console = False
_HIGHS_OPTIONS.highs_debug_level = 0  # no debug checks


class _LpHelper:
    """The process's one LP thread and the HiGHS solver only it uses."""

    __slots__ = ("executor", "highs")

    def __init__(self):
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-lp"
        )
        self.highs = _highs._Highs()
        self.highs.passOptions(_HIGHS_OPTIONS)


_HELPER: _LpHelper | None = None
_HELPER_LOCK = threading.Lock()


def _helper() -> _LpHelper:
    """The helper, started on first use (the service computes in worker
    threads, which all queue on it)."""
    global _HELPER
    helper = _HELPER
    if helper is None:
        with _HELPER_LOCK:
            if _HELPER is None:
                _HELPER = _LpHelper()
            helper = _HELPER
    return helper


def _forget_helper() -> None:
    """In a forked child: the parent's helper thread does not exist
    here, so the child starts its own on its first LP."""
    global _HELPER, _HELPER_LOCK
    _HELPER = None
    _HELPER_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


def _run_lp(highs, model) -> tuple[str, object]:
    """On the helper thread: solve one queued model, as ``(outcome,
    value)``, the value being the read-only solution (``solved``) or the
    failure's text (``failed``)."""
    highs.clearModel()
    if highs.passModel(model) == _highs.HighsStatus.kError:
        return "failed", "HiGHS rejected the model"
    highs.run()
    status = highs.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        return "failed", highs.modelStatusToString(status)
    solution = np.array(highs.getSolution().col_value)
    solution.flags.writeable = False
    return "solved", solution


def _submit(model) -> Future:
    """Queue ``model`` on the helper thread (see :func:`_run_lp`)."""
    helper = _helper()
    future = helper.executor.submit(_run_lp, helper.highs, model)
    # The helper takes the GIL only when this thread lets go of it,
    # which otherwise takes up to the switch interval.
    time.sleep(0)
    return future


def _lp_model(
    columns: list[list[Block]],
    channel: float,
    max_aspect: float | None,
):
    """The sizing LP as a HiGHS model.

    Every constraint is a ``<=`` row with at most three nonzeros, built
    straight into HiGHS's row-wise sparse format.
    """
    n_cols = len(columns)
    n_blocks = sum(len(col) for col in columns)
    # Variable layout: [X_0..X_{C-1}] then per block (y, w, h), then H.
    hv = n_cols + 3 * n_blocks
    n_vars = hv + 1

    starts = [0]
    indices: list[int] = []
    values: list[float] = []
    rhs: list[float] = []

    def add(row_indices, row_values, bound: float) -> None:
        indices.extend(row_indices)
        values.extend(row_values)
        starts.append(len(indices))
        rhs.append(bound)

    lower = [0.0] * n_vars
    upper = [_highs.kHighsInf] * n_vars
    i = 0
    for c, col in enumerate(columns):
        prev_y = None
        for block in col:
            y, w, h = n_cols + 3 * i, n_cols + 3 * i + 1, n_cols + 3 * i + 2
            lower[w], upper[w] = block.width_min, block.width_max
            lower[h], upper[h] = block.height_min, block.height_max
            # Width fits the column (with channel margin).
            if c > 0:
                add((w, c, c - 1), (1.0, -1.0, 1.0), -channel)
            else:
                add((w, c), (1.0, -1.0), -channel)
            # Stacking above the previous block of the column.
            if prev_y is not None:  # the previous block's (y, h)
                add((prev_y, prev_y + 2, y), (1.0, 1.0, -1.0), -channel)
            prev_y = y
            # Below the chip top.
            add((y, h, hv), (1.0, 1.0, -1.0), 0.0)
            # Soft-block area tangents: h >= 2A/w0 - (A/w0^2) w.
            if block.is_soft:
                w_lo, w_hi = block.width_min, block.width_max
                for t in range(TANGENT_CUTS):
                    frac = t / max(1, TANGENT_CUTS - 1)
                    w0 = w_lo * (w_hi / w_lo) ** frac
                    area = block.area_mm2
                    add((h, w), (-1.0, -area / w0**2), -2.0 * area / w0)
            i += 1
    # Chip aspect-ratio constraints.
    if max_aspect is not None:
        add((hv, n_cols - 1), (1.0, -max_aspect), 0.0)
        add((n_cols - 1, hv), (1.0, -max_aspect), 0.0)

    cost = [0.0] * n_vars
    cost[n_cols - 1] = 1.0  # W
    cost[hv] = 1.0  # H

    lp = _highs.HighsLp()
    lp.num_col_ = n_vars
    lp.num_row_ = len(rhs)
    lp.col_cost_ = cost
    lp.col_lower_ = lower
    lp.col_upper_ = upper
    lp.row_lower_ = [-_highs.kHighsInf] * len(rhs)
    lp.row_upper_ = rhs
    matrix = lp.a_matrix_
    matrix.format_ = _highs.MatrixFormat.kRowwise
    matrix.num_col_ = n_vars
    matrix.num_row_ = len(rhs)
    matrix.start_ = starts
    matrix.index_ = indices
    matrix.value_ = values
    return lp


def _solve_lp(
    columns: list[list[Block]],
    channel: float,
    max_aspect: float | None,
) -> np.ndarray:
    """Solve the sizing LP on the helper thread, without the topology
    table; returns the read-only solution vector."""
    future = _submit(_lp_model(columns, channel, max_aspect))
    return FloorplanRequest(columns, channel, max_aspect, future).solution()


def _lp_key(
    columns: list[list[Block]],
    channel: float,
    max_aspect: float | None,
) -> tuple:
    """Everything :func:`_solve_lp` reads, as one flat tuple: the channel,
    the aspect bound, then per column its length and each block's shape,
    ``(area, True, aspect_min, aspect_max)`` for a soft block and
    ``(area, False)`` for a hard one (a fixed square)."""
    key = [channel, max_aspect]
    for col in columns:
        key.append(len(col))
        for b in col:
            if b.is_soft:
                key += (b.area_mm2, True, b.aspect_min, b.aspect_max)
            else:
                key += (b.area_mm2, False)
    return tuple(key)


class FloorplanRequest:
    """A mapping's block columns and its sizing LP, asked for by
    :func:`request_floorplan`: a solution from the topology's table, or
    an LP on the helper thread (``queued``) that this request queued or
    shares with an earlier one."""

    __slots__ = (
        "columns", "channel", "max_aspect", "queued", "_entry", "_shared",
        "_table", "_key", "_outcome",
    )

    def __init__(
        self, columns, channel, max_aspect, entry, shared=False,
        table=None, key=None,
    ):
        self.columns = columns
        self.channel = channel
        self.max_aspect = max_aspect
        #: The LP was on the helper when asked for: settling may wait.
        self.queued = isinstance(entry, Future)
        self._entry = entry
        self._shared = shared
        self._table = table
        self._key = key
        self._outcome = None

    def _settled(self) -> tuple[str, object]:
        if self._outcome is None:
            if not self.queued:
                self._outcome = ("reused", self._entry)
            else:
                outcome, value = self._entry.result()
                table, key = self._table, self._key
                # The first request to settle a queued LP replaces its
                # entry: by the solution, or by nothing if the LP failed.
                if table is not None and table.get(key) is self._entry:
                    if outcome == "solved":
                        table[key] = value
                    else:
                        table.pop(key, None)
                if self._shared and outcome == "solved":
                    outcome = "reused"
                self._outcome = (outcome, value)
            _LP_SOLVES.inc(outcome=self._outcome[0])
        return self._outcome

    def solution(self) -> np.ndarray:
        """Wait for the LP and return its read-only solution.

        Raises:
            FloorplanError: the LP failed.
        """
        outcome, value = self._settled()
        if outcome == "failed":
            raise FloorplanError(f"floorplan LP failed: {value}")
        return value


def request_floorplan(
    topology: Topology,
    assignment: dict[int, int],
    core_graph: CoreGraph,
    used_switches: set | None = None,
    tech: Technology = TECH_100NM,
    channel_mm: float = DEFAULT_CHANNEL_MM,
    max_aspect: float | None = 3.0,
) -> FloorplanRequest:
    """Derive the mapping's columns and ask for their LP without
    waiting: from the topology's ``derived("lp")`` table (a solution,
    or an LP an earlier request queued), or queued on the helper thread
    and entered in the table. :func:`floorplan_mapping` takes the
    request.

    Raises:
        FloorplanError: there is nothing to floorplan.
    """
    columns = derive_columns(
        topology,
        assignment,
        core_graph,
        used_switches=used_switches,
        tech=tech,
    )
    columns = [col for col in columns if col]
    if not columns:
        raise FloorplanError("nothing to floorplan")
    table = topology.derived("lp")
    key = _lp_key(columns, channel_mm, max_aspect)
    # Two threads that miss at once each queue the LP; both get its
    # bits, and either entry serves later requests.
    entry = table.get(key)
    shared = entry is not None
    if not shared:
        entry = table[key] = _submit(
            _lp_model(columns, channel_mm, max_aspect)
        )
    return FloorplanRequest(
        columns, channel_mm, max_aspect, entry, shared, table, key
    )


def _legalize(
    columns: list[list[Block]],
    solution: np.ndarray,
    channel: float,
    max_aspect: float | None = None,
) -> FloorplanResult:
    """Restore exact areas and re-stack; always overlap-free.

    When the tight packing violates ``max_aspect``, the short dimension
    is padded with whitespace — the aspect bound thus converts into an
    area cost that the area constraint judges downstream.
    """
    n_cols = len(columns)
    widths = []
    flat = 0
    sizes: list[tuple[float, float]] = []
    for col in columns:
        col_w = 0.0
        for block in col:
            w = float(solution[n_cols + 3 * flat + 1])
            if block.is_soft:
                h = max(
                    float(solution[n_cols + 3 * flat + 2]),
                    block.area_mm2 / w,
                )
            else:
                h = math.sqrt(block.area_mm2)
                w = h
            sizes.append((w, h))
            col_w = max(col_w, w)
            flat += 1
        widths.append(col_w + channel)

    rects: dict[tuple, BlockRect] = {}
    col_keys: list[list[tuple]] = []
    x0 = 0.0
    flat = 0
    height = 0.0
    for c, col in enumerate(columns):
        keys = []
        y = channel / 2.0
        inner = widths[c] - channel
        for block in col:
            w, h = sizes[flat]
            if block.is_soft:
                # Widen to fill the column (within aspect bounds); the
                # freed height tightens the chip without re-solving.
                w = min(block.width_max, inner)
                h = max(block.area_mm2 / w, block.height_min)
            x = x0 + channel / 2.0 + (inner - w) / 2.0
            rects[block.key] = BlockRect(block=block, x=x, y=y, w=w, h=h)
            keys.append(block.key)
            y += h + channel
            flat += 1
        height = max(height, y - channel / 2.0)
        col_keys.append(keys)
        x0 += widths[c]
    if max_aspect is not None and x0 > 0 and height > 0:
        if height > max_aspect * x0:
            x0 = height / max_aspect
        elif x0 > max_aspect * height:
            height = x0 / max_aspect
    return FloorplanResult(
        rects=rects, width_mm=x0, height_mm=height, columns=col_keys
    )


def floorplan_mapping(
    topology: Topology,
    assignment: dict[int, int],
    core_graph: CoreGraph,
    used_switches: set | None = None,
    tech: Technology = TECH_100NM,
    channel_mm: float = DEFAULT_CHANNEL_MM,
    max_aspect: float | None = 3.0,
    request: FloorplanRequest | None = None,
) -> FloorplanResult:
    """Floorplan one mapping (Figure 5, step 7).

    Args:
        topology: the NoC.
        assignment: core index -> terminal slot.
        core_graph: supplies core block areas and softness.
        used_switches: prune unused multistage switches before placing.
        max_aspect: chip aspect-ratio bound fed to the LP (None = free).
        request: this mapping's LP, already asked for by
            :func:`request_floorplan`; its columns, channel and aspect
            bound then stand in for the arguments above. Without one the
            LP is asked for here.

    Raises:
        FloorplanError: if the LP is infeasible (e.g. impossible aspect
            bound) — the mapping is then area-infeasible.
    """
    if request is None:
        request = request_floorplan(
            topology, assignment, core_graph, used_switches=used_switches,
            tech=tech, channel_mm=channel_mm, max_aspect=max_aspect,
        )
    solution = request.solution()
    result = _legalize(
        request.columns, solution, request.channel, request.max_aspect
    )
    result.validate()
    return result


def _floor_links(topology: Topology) -> tuple[list, dict]:
    """The links :func:`link_length_floors` prices, kept in the
    topology's ``derived("physical")`` table beside the switch sides:
    the switch-to-switch links, and per terminal slot the links between
    it and its switches (every link joins a switch to one of those)."""
    cache = topology.derived("physical")
    links = cache.get("floor_links")
    if links is None:
        between, by_slot = [], {}
        for u, v in topology.graph.edges():
            if is_switch(u) and is_switch(v):
                between.append((u, v))
            else:
                terminal = v if is_switch(u) else u
                by_slot.setdefault(terminal[1], []).append((u, v))
        links = cache["floor_links"] = (between, by_slot)
    return links


def link_length_floors(
    topology: Topology,
    assignment: dict[int, int],
    core_graph: CoreGraph,
    used_switches: set | None = None,
    tech: Technology = TECH_100NM,
) -> dict[tuple, float]:
    """A floor on every link length :func:`floorplan_mapping` can give
    this mapping, without solving the LP.

    Two blocks that do not overlap have centres at least
    ``min((w_u + w_v) / 2, (h_u + h_v) / 2)`` apart (Manhattan), and
    legalization keeps every block at least its minimum width and
    height (the LP honours its width bounds up to the solver's
    feasibility tolerance, far inside the wiring channel that separates
    placed blocks), so the same expression over the minimum sizes —
    floored at ``MIN_LINK_MM`` like :meth:`FloorplanResult.link_lengths`
    — bounds each placed link's length from below. Keys are the links
    between the mapped cores and ``used_switches`` (default: every
    switch), the blocks the floorplanner places. The walk covers the
    switch-to-switch links and the mapped slots' own links
    (:func:`_floor_links`), not every terminal's.
    """
    sides = switch_sides(topology, tech)  # hard square blocks
    between, by_slot = _floor_links(topology)
    placed = sides if used_switches is None else used_switches
    floors = {}
    for u, v in between:
        if u in placed and v in placed:
            # min((s_u + s_v) / 2, (s_u + s_v) / 2) of two squares.
            floors[(u, v)] = max((sides[u] + sides[v]) / 2.0, MIN_LINK_MM)
    for core_index, slot in assignment.items():
        # ``Block.width_min`` / ``height_min`` of the core's block.
        core = core_graph.core(core_index)
        area = core.area_mm2
        if core.is_soft:
            width = math.sqrt(area * core.aspect_min)
            height = math.sqrt(area / core.aspect_max)
        else:
            width = height = math.sqrt(area)
        for u, v in by_slot.get(slot, ()):
            sw = u if is_switch(u) else v
            if sw in placed:
                side = sides[sw]
                gap = min((width + side) / 2.0, (height + side) / 2.0)
                floors[(u, v)] = max(gap, MIN_LINK_MM)
    return floors
