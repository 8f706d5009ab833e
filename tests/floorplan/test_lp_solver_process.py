"""The LP solver process never outlives its parent or holds its pipes.

Each Python process that floorplans forks one solver process on its
first LP (:mod:`repro.floorplan.lp`). A benchmark or a service that runs
the flow in a child reads the child's output to end of file and then
expects no process of it left running, so the solver must hold none of
the parent's standard streams, must be gone once the parent exits, and
must exit on its own, on end of file, if the parent is killed.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.apps import load_application
from repro.errors import FloorplanError, ReproError
from repro.floorplan import lp
from repro.floorplan.lp import floorplan_mapping, request_floorplan
from repro.topology.library import make_topology

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the solver process is forked"
)

#: Solves one vopd mesh LP and prints the solver process's pid.
_SOLVE_ONE = textwrap.dedent("""
    from repro.apps import load_application
    from repro.floorplan import lp
    from repro.floorplan.lp import floorplan_mapping
    from repro.topology.library import make_topology

    app = load_application("vopd")
    mapping = {i: i for i in range(app.num_cores)}
    floorplan_mapping(make_topology("mesh", app.num_cores), mapping, app)
    print(lp._SOLVER.pid, flush=True)
""")


def _env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _exited(pid: int) -> bool:
    """Whether ``pid`` is gone, or a zombie that only waits to be
    reaped by whoever adopted it."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] in ("Z", "X")


def _wait_exited(pid: int, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not _exited(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def test_solver_is_gone_when_its_parent_returns():
    """A child that solves one LP and exits returns promptly with all of
    its output, and its solver process is gone by then."""
    began = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _SOLVE_ONE],
        capture_output=True, env=_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert time.monotonic() - began < 30
    pid = int(proc.stdout)
    assert _wait_exited(pid, 5.0)


def test_solver_holds_no_stdio_and_exits_when_its_parent_is_killed():
    """While the child still runs, its stdout and stderr reach end of
    file as soon as the child lets go of them, so the solver holds no
    copy; after SIGKILL of the child, the solver reads end of file on
    its request pipe and exits within a few seconds."""
    script = _SOLVE_ONE + textwrap.dedent("""
        import os, sys
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        sys.stdin.read()  # until the test kills this process
    """)
    with subprocess.Popen(
        [sys.executable, "-c", script], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
    ) as proc:
        try:
            line = proc.stdout.readline()
            assert line, proc.stderr.read().decode()
            pid = int(line)
            for stream in (proc.stdout, proc.stderr):
                ready, _, _ = select.select([stream], [], [], 30)
                assert ready and stream.read() == b""
            assert proc.poll() is None and not _exited(pid)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            assert _wait_exited(pid, 5.0)
        finally:
            if proc.poll() is None:
                proc.kill()


def test_a_killed_solver_fails_its_lps_loudly_and_is_replaced(monkeypatch):
    """LPs sent to a solver process that died raise ``ReproError`` (not
    ``FloorplanError``, which would read as an area-infeasible mapping),
    leave no entry in the topology's table, and the next LP starts a
    new solver that gives the bits it always gave."""
    app = load_application("vopd")
    identity = {i: i for i in range(app.num_cores)}
    swapped = {**identity, 0: 1, 1: 0}
    expected = floorplan_mapping(
        make_topology("mesh", app.num_cores), swapped, app
    )

    def stuck(*args):
        time.sleep(60)

    # A solver that never replies, killed while the LP waits in it.
    monkeypatch.setattr(lp, "_run_lp", stuck)
    lp._stop_solver()
    topology = make_topology("mesh", app.num_cores)
    pending = request_floorplan(topology, swapped, app)
    assert pending.queued
    dead = lp._SOLVER
    os.kill(dead.pid, signal.SIGKILL)
    assert _wait_exited(dead.pid, 5.0)
    with pytest.raises(ReproError, match="solver process exited") as info:
        pending.solution()
    assert not isinstance(info.value, FloorplanError)
    assert topology.derived("lp") == {} and lp._SOLVER is None

    monkeypatch.undo()
    again = floorplan_mapping(topology, swapped, app)
    assert lp._SOLVER is not dead and not _exited(lp._SOLVER.pid)
    assert again.rects == expected.rects
    # Sending to a dead solver fails the same way.
    dead = lp._SOLVER
    os.kill(dead.pid, signal.SIGKILL)
    assert _wait_exited(dead.pid, 5.0)
    with pytest.raises(ReproError, match="solver process exited"):
        floorplan_mapping(topology, identity, app)
    assert lp._SOLVER is None
    floorplan_mapping(topology, identity, app)


def test_solver_starts_while_another_thread_reads_stdin():
    """A service reads its stdin on one thread while another floorplans.
    The solver forks from a process whose stdin lock that thread holds,
    and must still start and solve (a child that closed ``sys.stdin``
    on the way, as a ``multiprocessing`` bootstrap does, waits on that
    lock forever)."""
    script = textwrap.dedent("""
        import sys, threading
        threading.Thread(target=sys.stdin.read, daemon=True).start()
    """) + _SOLVE_ONE
    with subprocess.Popen(
        [sys.executable, "-c", script], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
    ) as proc:
        try:
            # stdin stays open, so the reading thread holds its lock.
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            assert ready, "the solver process never answered"
            line = proc.stdout.readline()
            assert line, proc.stderr.read().decode()
            proc.stdin.close()
            assert proc.wait(timeout=60) == 0
            assert _wait_exited(int(line), 5.0)
        finally:
            if proc.poll() is None:
                proc.kill()
