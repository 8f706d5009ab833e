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
from per-block-shape row templates (:func:`_block_rows`) and solved with
exactly the options ``linprog`` sets, so its solution is bit-identical
to ``linprog``'s on the same model (``tests/floorplan/test_lp_highs.py``
checks this against the dense ``linprog`` model) without the wrapper's
input cleaning, option checks and dense-to-sparse conversion.

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

Every LP, synchronous callers included, is solved in the process's one
solver process, which owns the process's only HiGHS solver (configured
once and cleared before each model; a solver passed the same model
with the same options returns the same solution bits as a new one).
The solver is a separate process, not a thread, because of the GIL:
HiGHS must win the GIL back from a busy search thread to start and to
finish each solve, and the search yields it only every switch interval
(5 ms), which made one vopd LP take about three times as long while the
search routed. The caller builds the model as plain lists and sends it
down a pipe; the solver builds the HiGHS model, solves it and sends the
solution's bytes back, so the swap search routes its next candidates
meanwhile (:mod:`repro.core.mapper`). The solver is forked on the
process's first LP (never at import), holds none of the parent's other
files, and exits when its request pipe reaches end of file, that is
when the parent exits or dies. Replies come back in the order the LPs
were sent, and a request reads them when it settles, under one lock,
with no reader thread. A forked child starts its own solver
(:func:`os.register_at_fork`). The requesting thread counts each LP in
``repro_floorplan_lp_solves_total`` by outcome (``solved``,
``reused``, ``failed``), and the seconds it waits for one in
``repro_floorplan_lp_wait_seconds_total``.

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

import atexit
import contextlib
import functools
import gc
import importlib.util
import itertools
import math
import os
import pickle
import select
import signal
import struct
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from operator import attrgetter
from pathlib import Path

# Imported here, not on the first solve (the bindings import it then),
# so its load time stays out of the first timed LP.
import numpy as np

from repro.core.coregraph import CoreGraph
from repro.errors import FloorplanError, ReproError
from repro.floorplan.blocks import OVERLAP_TOL, Block, BlockRect
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
_LP_WAIT = obs_metrics.REGISTRY.counter(
    "repro_floorplan_lp_wait_seconds_total",
    "Seconds requesting threads spent blocked on a floorplan LP",
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
            center = centers.get(("core", core))
            if center is not None:
                centers[term(slot)] = center
        return centers

    def link_lengths(
        self, topology: Topology, assignment: dict
    ) -> dict[tuple, float]:
        """Manhattan length (mm) of every placed topology link."""
        centers = self._centers(assignment)
        lengths = {}
        for u, v in topology.graph.edge_index()[1]:
            cu = centers.get(u)
            cv = centers.get(v)
            if cu is None or cv is None:
                continue
            dist = abs(cu[0] - cv[0]) + abs(cu[1] - cv[1])
            lengths[(u, v)] = max(dist, MIN_LINK_MM)
        return lengths

    def validate(self) -> None:
        """Check legality; raises :class:`FloorplanError` on violation.

        Overlaps are found by a sweep in x: a block is checked against
        the blocks whose x-span still reaches past its left edge (by
        :meth:`BlockRect.overlaps`' tolerance), and a block that does
        not reach past it cannot overlap this block or any later one.
        Legalized columns are separated by the wiring channel, so the
        sweep holds the blocks of one column at a time, and it raises
        exactly when some pair of blocks overlaps.
        """
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
        active: list[BlockRect] = []
        for b in sorted(rects, key=attrgetter("x")):
            left = b.x + OVERLAP_TOL
            active = [a for a in active if a.x + a.w > left]
            for a in active:
                if a.overlaps(b):
                    raise FloorplanError(
                        f"blocks {a.block.name} and {b.block.name} overlap"
                    )
            active.append(b)


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


#: A request's frame: the pickled model's size, then the model.
_REQUEST = struct.Struct("=Q")
#: A reply's frame: solved or not, the payload's size, then the
#: payload (the solution's float64 bytes, or the failure's text).
_REPLY = struct.Struct("=?Q")


def _read(fd: int, size: int) -> bytes:
    """Exactly ``size`` bytes from a blocking pipe.

    Raises:
        EOFError: the pipe's other end was closed first.
    """
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _run_lp(highs, model) -> tuple[str, object]:
    """In the solver process: solve one model, as ``(outcome, value)``,
    the value being the solution's float64 bytes (``solved``) or the
    failure's text (``failed``)."""
    highs.clearModel()
    if highs.passModel(model) == _highs.HighsStatus.kError:
        return "failed", "HiGHS rejected the model"
    highs.run()
    status = highs.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        return "failed", highs.modelStatusToString(status)
    return "solved", np.array(highs.getSolution().col_value).tobytes()


def _serve(requests: int, replies: int) -> None:
    """The solver process: solve each model read from ``requests`` on
    one HiGHS solver and write its outcome to ``replies``, in order,
    until ``requests`` reaches end of file.

    It first points its standard streams at the null device and closes
    every other file it inherited, so it never keeps a parent's pipe,
    socket or worker channel open. It ignores SIGINT (a Ctrl-C stops
    the parent, whose exit then ends the solver) and dies on SIGTERM
    whatever handler the parent set. Its garbage collector never scans
    the parent's objects, which would copy their pages.
    """
    gc.freeze()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    null = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        os.dup2(null, fd)
    low, high = sorted((requests, replies))
    os.closerange(3, low)
    os.closerange(low + 1, high)
    os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
    highs = _highs._Highs()
    highs.passOptions(_HIGHS_OPTIONS)
    while True:
        try:
            (size,) = _REQUEST.unpack(_read(requests, _REQUEST.size))
            model = pickle.loads(_read(requests, size))
        except EOFError:
            return
        outcome, value = _run_lp(highs, _highs_lp(model))
        payload = value if outcome == "solved" else value.encode()
        reply = _REPLY.pack(outcome == "solved", len(payload)) + payload
        try:
            while reply:
                reply = reply[os.write(replies, reply):]
        except BrokenPipeError:
            return


class _Reply:
    """One LP sent to the solver process: its ``(outcome, value)`` once
    read back, the value being the read-only solution (``solved``) or
    the failure's text (``failed``)."""

    __slots__ = ("solver", "outcome")

    def __init__(self, solver: "_Solver"):
        self.solver = solver
        self.outcome: tuple[str, object] | None = None

    def result(self) -> tuple[str, object]:
        """Wait for the outcome: read replies, oldest first, up to this
        one's.

        Raises:
            ReproError: the solver process exited before replying.
        """
        if self.outcome is None:
            with _LOCK:
                try:
                    while self.outcome is None:
                        self.solver.read()
                except (EOFError, OSError):
                    raise _lost(self.solver) from None
        return self.outcome


class _Solver:
    """The process's LP solver process, the two pipes to it, and the
    LPs sent but not yet read back, oldest first. Used under ``_LOCK``.

    The process is forked with :func:`os.fork` itself: the solver needs
    the parent's loaded bindings and options, which ``spawn`` would load
    again, and the child of a ``multiprocessing`` fork first runs that
    module's bootstrap, which closes ``sys.stdin`` and so waits forever
    on its lock when another thread of the parent was reading stdin.
    The child runs only :func:`_serve`, which takes no lock another
    thread of the parent could hold, and leaves by :func:`os._exit`.
    """

    __slots__ = ("pid", "requests", "replies", "unread")

    def __init__(self):
        requests_out, self.requests = os.pipe()
        self.replies, replies_in = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (requests_out, replies_in, self.requests, self.replies):
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                _serve(requests_out, replies_in)
            except BaseException:
                os._exit(1)
            os._exit(0)
        os.close(requests_out)
        os.close(replies_in)
        os.set_blocking(self.requests, False)
        self.unread: deque[_Reply] = deque()

    def send(self, data: bytes) -> _Reply:
        """Write one pickled model; return its reply, unread."""
        message = memoryview(_REQUEST.pack(len(data)) + data)
        while message:
            try:
                message = message[os.write(self.requests, message):]
            except BlockingIOError:
                # The pipe is full. Read replies while waiting for room,
                # so the solver is never stuck writing one.
                poll = select.poll()
                poll.register(self.requests, select.POLLOUT)
                if self.unread:
                    poll.register(self.replies, select.POLLIN)
                if any(fd == self.replies for fd, _ in poll.poll()):
                    self.read()
        reply = _Reply(self)
        self.unread.append(reply)
        return reply

    def read(self) -> None:
        """Read the oldest unread reply (blocking)."""
        solved, size = _REPLY.unpack(_read(self.replies, _REPLY.size))
        payload = _read(self.replies, size)
        self.unread.popleft().outcome = (
            ("solved", np.frombuffer(payload)) if solved
            else ("failed", payload.decode())
        )

    def close(self) -> None:
        """Close this process's ends of the pipes: the solver process
        then reads end of file and exits."""
        for fd in (self.requests, self.replies):
            if fd >= 0:
                os.close(fd)
        self.requests = self.replies = -1


_SOLVER: _Solver | None = None
#: Guards starting the solver, sending to it and reading from it.
_LOCK = threading.Lock()


def _drop(solver: _Solver) -> None:
    """Close ``solver``, end its process and reap it; the next LP starts
    a new solver. Called under ``_LOCK``."""
    global _SOLVER
    if _SOLVER is solver:
        _SOLVER = None
    solver.close()
    # Gone already if the parent lets the system reap its children.
    with contextlib.suppress(ProcessLookupError, ChildProcessError):
        os.kill(solver.pid, signal.SIGKILL)
        os.waitpid(solver.pid, 0)


def _lost(solver: _Solver) -> ReproError:
    """Drop a solver process found dead (killed, say) and return the
    error its LPs fail with; the next LP starts a new solver. Called
    under ``_LOCK``."""
    _drop(solver)
    return ReproError("the floorplan LP solver process exited")


def _stop_solver() -> None:
    """Stop the solver process, if one runs; the next LP forks a new
    one (from the module as it is then). Also run at exit, so a process
    that exits normally has reaped its solver; one that is killed
    leaves a solver that exits on end of file."""
    with _LOCK:
        if _SOLVER is not None:
            _drop(_SOLVER)


def _forget_solver() -> None:
    """In a forked child: close the child's copies of the parent's
    pipes, so the parent's solver still exits with the parent, and
    start the child's own solver on its first LP."""
    global _SOLVER, _LOCK
    if _SOLVER is not None:
        _SOLVER.close()
        _SOLVER = None
    _LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_solver)
atexit.register(_stop_solver)


def _submit(model: tuple) -> _Reply:
    """Send ``model`` (:func:`_lp_model`) to the solver process, which
    is forked on the first call."""
    global _SOLVER
    data = pickle.dumps(model, pickle.HIGHEST_PROTOCOL)
    with _LOCK:
        if _SOLVER is None:
            _SOLVER = _Solver()
        try:
            return _SOLVER.send(data)
        except (EOFError, OSError):
            raise _lost(_SOLVER) from None


@functools.lru_cache(maxsize=4096)
def _block_rows(
    area: float, is_soft: bool, aspect_min: float, aspect_max: float
) -> tuple:
    """The per-shape part of a block's variables and rows in
    :func:`_lp_model`: the lower and upper bounds of its ``(y, w, h)``,
    the nonzero values, upper bounds and sizes of its below-the-top row
    and area tangents, and its tangent count."""
    block = Block(
        key=(), name="", area_mm2=area, is_soft=is_soft,
        aspect_min=aspect_min, aspect_max=aspect_max,
    )
    values, rhs = [1.0, 1.0, -1.0], [0.0]  # below the chip top
    cuts = TANGENT_CUTS if is_soft else 0
    # Soft-block area tangents: h >= 2A/w0 - (A/w0^2) w.
    w_lo, w_hi = block.width_min, block.width_max
    for t in range(cuts):
        frac = t / max(1, TANGENT_CUTS - 1)
        w0 = w_lo * (w_hi / w_lo) ** frac
        values += (-1.0, -area / w0**2)
        rhs.append(-2.0 * area / w0)
    return (
        (0.0, w_lo, block.height_min),
        (_highs.kHighsInf, w_hi, block.height_max),
        tuple(values), tuple(rhs), (3,) + (2,) * cuts, cuts,
    )


def _lp_model(
    columns: list[list[Block]],
    channel: float,
    max_aspect: float | None,
) -> tuple:
    """The sizing LP as plain lists ``(cost, lower, upper, starts,
    indices, values, rhs)``: column costs and bounds, then every
    constraint as a ``<=`` row with at most three nonzeros, in HiGHS's
    row-wise sparse format (:func:`_highs_lp`).

    Per block, in column order: width within its column (with the
    channel margin), stacking above the previous block of the column,
    below the chip top, and a soft block's area tangents; then the two
    chip aspect rows. The shape-dependent values come from
    :func:`_block_rows`.
    """
    n_cols = len(columns)
    # Variable layout: [X_0..X_{C-1}] then per block (y, w, h), then H.
    hv = n_cols + 3 * sum(len(col) for col in columns)
    lower = [0.0] * n_cols
    upper = [_highs.kHighsInf] * n_cols
    sizes: list[int] = []
    indices: list[int] = []
    values: list[float] = []
    rhs: list[float] = []
    y = n_cols
    for c, col in enumerate(columns):
        for i, block in enumerate(col):
            low, high, row_values, row_rhs, row_sizes, cuts = _block_rows(
                block.area_mm2, block.is_soft, block.aspect_min,
                block.aspect_max,
            )
            w, h = y + 1, y + 2
            lower += low
            upper += high
            # Width fits the column (with channel margin).
            if c > 0:
                indices += (w, c, c - 1)
                values += (1.0, -1.0, 1.0)
                sizes.append(3)
            else:
                indices += (w, c)
                values += (1.0, -1.0)
                sizes.append(2)
            rhs.append(-channel)
            # Stacking above the previous block of the column.
            if i:
                indices += (y - 3, y - 1, y)
                values += (1.0, 1.0, -1.0)
                sizes.append(3)
                rhs.append(-channel)
            indices += (y, h, hv)
            indices += (h, w) * cuts
            values += row_values
            sizes += row_sizes
            rhs += row_rhs
            y += 3
    lower.append(0.0)
    upper.append(_highs.kHighsInf)
    # Chip aspect-ratio constraints.
    if max_aspect is not None:
        indices += (hv, n_cols - 1, n_cols - 1, hv)
        values += (1.0, -max_aspect, 1.0, -max_aspect)
        sizes += (2, 2)
        rhs += (0.0, 0.0)
    cost = [0.0] * (hv + 1)
    cost[n_cols - 1] = 1.0  # W
    cost[hv] = 1.0  # H
    starts = [0]
    starts += itertools.accumulate(sizes)
    return cost, lower, upper, starts, indices, values, rhs


def _highs_lp(model: tuple):
    """A :func:`_lp_model` model as a HiGHS ``HighsLp``."""
    cost, lower, upper, starts, indices, values, rhs = model
    lp = _highs.HighsLp()
    lp.num_col_ = len(cost)
    lp.num_row_ = len(rhs)
    lp.col_cost_ = cost
    lp.col_lower_ = lower
    lp.col_upper_ = upper
    lp.row_lower_ = [-_highs.kHighsInf] * len(rhs)
    lp.row_upper_ = rhs
    matrix = lp.a_matrix_
    matrix.format_ = _highs.MatrixFormat.kRowwise
    matrix.num_col_ = len(cost)
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
    """Solve the sizing LP in the solver process, without the topology
    table; returns the read-only solution vector."""
    reply = _submit(_lp_model(columns, channel, max_aspect))
    return FloorplanRequest(columns, channel, max_aspect, reply).solution()


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
    an LP sent to the solver process (``queued``) that this request
    queued or shares with an earlier one."""

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
        #: The LP was in the solver when asked for: settling may wait.
        self.queued = isinstance(entry, _Reply)
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
                table, key = self._table, self._key
                began = time.perf_counter()
                try:
                    outcome, value = self._entry.result()
                except ReproError:
                    # The solver process died: later requests ask anew.
                    if table is not None and table.get(key) is self._entry:
                        del table[key]
                    raise
                finally:
                    _LP_WAIT.inc(time.perf_counter() - began)
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
            ReproError: the solver process died before replying.
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
    or an LP an earlier request queued), or sent to the solver process
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
    half = channel / 2.0
    values = solution.tolist()
    rects: dict[tuple, BlockRect] = {}
    col_keys: list[list[tuple]] = []
    x0 = 0.0
    height = 0.0
    first_w = len(columns) + 1  # the column's first block's width variable
    for col in columns:
        # As wide as its widest block (by the LP's width; a hard block
        # is its square), plus the channel.
        col_w = 0.0
        for k, block in enumerate(col):
            if block.is_soft:
                col_w = max(col_w, values[first_w + 3 * k])
            else:
                col_w = max(col_w, math.sqrt(block.area_mm2))
        width = col_w + channel
        inner = width - channel
        keys = []
        y = half
        for block in col:
            if block.is_soft:
                # Widen to fill the column (within aspect bounds); the
                # freed height tightens the chip without re-solving.
                w = min(block.width_max, inner)
                h = max(block.area_mm2 / w, block.height_min)
            else:
                w = h = math.sqrt(block.area_mm2)
            x = x0 + half + (inner - w) / 2.0
            rects[block.key] = BlockRect(block, x, y, w, h)
            keys.append(block.key)
            y += h + channel
        height = max(height, y - half)
        col_keys.append(keys)
        x0 += width
        first_w += 3 * len(col)
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


def _floor_terms(topology: Topology, tech: Technology) -> tuple:
    """The terms :func:`link_length_floors` sums, kept in the topology's
    ``derived("physical")`` table beside the switch sides: each
    switch-to-switch link with its floor; per terminal slot the links
    between it and its switches, with the switch and its side (every
    link joins a switch to one of those); and, filled as cores arrive,
    per (slot, core shape) those links with their floors."""
    cache = topology.derived("physical")
    key = ("floor_terms", tech)
    terms = cache.get(key)
    if terms is None:
        sides = switch_sides(topology, tech)  # hard square blocks
        between, by_slot = [], {}
        for u, v in topology.graph.edges():
            if is_switch(u) and is_switch(v):
                # min((s_u + s_v) / 2, (s_u + s_v) / 2) of two squares.
                floor = max((sides[u] + sides[v]) / 2.0, MIN_LINK_MM)
                between.append(((u, v), u, v, floor))
            else:
                terminal, sw = (v, u) if is_switch(u) else (u, v)
                by_slot.setdefault(terminal[1], []).append(
                    ((u, v), sw, sides[sw])
                )
        terms = cache[key] = (between, by_slot, {})
    return terms


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
    switch), the blocks the floorplanner places. The floors depend
    only on the topology, the technology and each core's shape and
    slot, so they are read from :func:`_floor_terms`.
    """
    between, by_slot, by_core = _floor_terms(topology, tech)
    placed = (
        switch_sides(topology, tech) if used_switches is None
        else used_switches
    )
    floors = {}
    for link, u, v, floor in between:
        if u in placed and v in placed:
            floors[link] = floor
    for core_index, slot in assignment.items():
        core = core_graph.core(core_index)
        shape = (
            slot, core.area_mm2, core.is_soft, core.aspect_min,
            core.aspect_max,
        )
        links = by_core.get(shape)
        if links is None:
            # ``Block.width_min`` / ``height_min`` of the core's block.
            area = core.area_mm2
            if core.is_soft:
                width = math.sqrt(area * core.aspect_min)
                height = math.sqrt(area / core.aspect_max)
            else:
                width = height = math.sqrt(area)
            links = by_core[shape] = [
                (link, sw, max(
                    min((width + side) / 2.0, (height + side) / 2.0),
                    MIN_LINK_MM,
                ))
                for link, sw, side in by_slot.get(slot, ())
            ]
        for link, sw, floor in links:
            if sw in placed:
                floors[link] = floor
    return floors
