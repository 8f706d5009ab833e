"""Outside-in span tracer for the benchmark.

The tracer replaces functions at the module or class attribute through
which the program calls them (``from x import f`` binds ``f`` in the
importing module, so a wrap must land there) with a wrapper that records
one span per call: id, parent id, name, start, end, and for a few
targets a small tuple of probed values (cache hits, simulated cycles).

* Installing a target that does not exist raises :class:`TraceError`:
  a renamed function must break the benchmark, not silently report 0 s.
* Parent links follow a :class:`contextvars.ContextVar`, so spans nest
  correctly across asyncio tasks and ``asyncio.to_thread`` workers.
* Spans stay in memory (one compact buffer per thread) until
  :meth:`Tracer.write_jsonl` writes them out after the measured work.
* A span's self time is its duration minus the durations of its direct
  children (:meth:`Tracer.summarize`).

Nothing under ``src/`` changes; :func:`install_repro_targets` names every
boundary the benchmark measures.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
from array import array
from time import perf_counter


class TraceError(RuntimeError):
    """A wrap target is missing, or an expected layer saw no calls."""


class _Buffer:
    """Spans finished on one thread, stored column-wise."""

    __slots__ = ("ids", "parents", "names", "starts", "ends", "values")

    def __init__(self):
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        #: span id -> probed values, only for targets with a probe.
        self.values: dict[int, tuple] = {}


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=0)
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------
    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            with self._lock:
                if name not in self._name_ids:
                    self._name_ids[name] = len(self.names)
                    self.names.append(name)
                name_id = self._name_ids[name]
        return name_id

    def _make_wrapper(self, fn, name: str, probe, suffix):
        fixed_id = self._name_id(name)
        name_id = self._name_id
        ids = self._ids
        current = self._current
        buffer = self._buffer

        def record(sid, parent, start, end, values, args):
            buf = buffer()
            buf.ids.append(sid)
            buf.parents.append(parent)
            buf.names.append(
                fixed_id if suffix is None
                else name_id(f"{name}.{suffix(args)}")
            )
            buf.starts.append(start)
            buf.ends.append(end)
            if values is not None:
                buf.values[sid] = values

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid = next(ids)
                token = current.set(sid)
                state = None if probe is None else probe.before(args)
                start = perf_counter()
                result = exc = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                except BaseException as err:
                    exc = err
                    raise
                finally:
                    end = perf_counter()
                    current.reset(token)
                    values = (
                        None if probe is None
                        else probe.after(state, args, result, exc)
                    )
                    record(sid, current.get(), start, end, values, args)

            return async_wrapper

        if probe is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = next(ids)
                token = current.set(sid)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    current.reset(token)
                    record(sid, current.get(), start, end, None, args)

            return wrapper

        @functools.wraps(fn)
        def probed_wrapper(*args, **kwargs):
            sid = next(ids)
            token = current.set(sid)
            state = probe.before(args)
            start = perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                current.reset(token)
                record(
                    sid, current.get(), start, end,
                    probe.after(state, args, result, exc), args,
                )

        return probed_wrapper

    # -- installation ----------------------------------------------------
    def wrap(
        self, owner, attr: str, name: str, probe=None, suffix=None
    ) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by a
        span-recording wrapper named ``name``.

        ``probe`` (a :class:`_Probe`) attaches a tuple of values to each
        span;
        ``suffix(args)`` extends the span name per call (``name.suffix``).

        Raises:
            TraceError: ``owner`` has no such attribute of its own, or it
                is not a plain function.
        """
        if inspect.isclass(owner):
            fn = owner.__dict__.get(attr)
        else:
            fn = getattr(owner, attr, None)
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if fn is None:
            raise TraceError(f"wrap target {label} does not exist")
        if not inspect.isfunction(fn):
            raise TraceError(f"wrap target {label} is not a plain function")
        setattr(owner, attr, self._make_wrapper(fn, name, probe, suffix))

    # -- output ----------------------------------------------------------
    def spans(self):
        """Yield every finished span as ``(id, parent, name, start, end,
        values)``, thread buffer by thread buffer, in finishing order."""
        with self._lock:
            buffers = list(self._buffers)
        names = self.names
        for buf in buffers:
            values = buf.values
            for i, sid in enumerate(buf.ids):
                yield (
                    sid, buf.parents[i], names[buf.names[i]],
                    buf.starts[i], buf.ends[i], values.get(sid),
                )

    def span_count(self) -> int:
        with self._lock:
            return sum(len(buf.ids) for buf in self._buffers)

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON line; times are seconds on the
        ``time.perf_counter`` clock."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, values in self.spans():
                line = (
                    f'{{"id":{sid},"parent":{parent},"name":"{name}",'
                    f'"start":{start:.7f},"end":{end:.7f}'
                )
                if values is not None:
                    line += f',"values":{json.dumps(values)}'
                fh.write(line + "}\n")

    def summarize(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, summed values.

        Self time is a span's duration minus its direct children's
        durations. ``values`` sums each probed tuple element-wise.
        """
        child_time = array("d", bytes(8 * (self.span_count() + 2)))
        top = len(child_time)
        for sid, parent, _, start, end, _ in self.spans():
            if sid >= top:  # ids are allocated before spans finish
                child_time.extend([0.0] * (sid + 1 - top))
                top = len(child_time)
            child_time[parent] += end - start
        out: dict[str, dict] = {}
        for sid, _, name, start, end, values in self.spans():
            entry = out.get(name)
            if entry is None:
                entry = out[name] = {
                    "calls": 0, "s": 0.0, "self_s": 0.0, "values": None
                }
            duration = end - start
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child_time[sid]
            if values is not None:
                acc = entry["values"]
                entry["values"] = (
                    list(values) if acc is None
                    else [x + y for x, y in zip(acc, values)]
                )
        return out


# ---------------------------------------------------------------------------
# probes: values attached to a span, read from a counter or the result
# ---------------------------------------------------------------------------
class _Probe:
    """``after(state, args, result, exc)`` returns the span's values;
    ``state`` is what ``before(args)`` returned when the call started."""

    @staticmethod
    def before(args):
        return None


class _CacheProbe(_Probe):
    """(hits, lookups, jobs) of one ``ExplorationEngine.run`` call."""

    @staticmethod
    def before(args):
        stats = args[0].cache.stats
        return stats.hits, stats.misses

    @staticmethod
    def after(state, args, result, exc):
        stats = args[0].cache.stats
        hits = stats.hits - state[0]
        return (hits, hits + stats.misses - state[1], len(args[1]))


class _MemoProbe(_Probe):
    """(hit 0/1, lookups) of the mapping evaluator's cache."""

    @staticmethod
    def before(args):
        return args[0].stats.hits

    @staticmethod
    def after(state, args, result, exc):
        return (args[0].stats.hits - state, 1)


class _FloorplanProbe(_Probe):
    """(1 if the LP raised ``FloorplanError`` else 0,)."""

    @staticmethod
    def after(state, args, result, exc):
        return (0 if exc is None else 1,)


class _SimPointProbe(_Probe):
    """(simulated cycles,) of one exact-lane point."""

    @staticmethod
    def after(state, args, result, exc):
        if result is None or result.value is None:
            return (0,)
        return (result.value.cycles,)


class _SimGroupProbe(_Probe):
    """(summed lane cycles, lanes) of one batch-lane group."""

    @staticmethod
    def after(state, args, result, exc):
        if result is None:
            return (0, 0)
        lanes = [r.value for r in result.value if r.value is not None]
        return (sum(r.cycles for r in lanes), len(lanes))


class _CandidatesProbe(_Probe):
    """(candidates evaluated,) of one synthesis sweep."""

    @staticmethod
    def after(state, args, result, exc):
        return (0 if result is None else len(result.candidates),)


def _payload_kind(args) -> str:
    payload = args[1]
    kind = payload.get("kind") if isinstance(payload, dict) else None
    return kind if isinstance(kind, str) else "invalid"


def install_repro_targets(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark attributes time to."""
    mod = importlib.import_module
    jobs = mod("repro.engine.jobs")
    engine = mod("repro.engine.engine")
    memo = mod("repro.core.memo")
    evaluate = mod("repro.core.evaluate")
    routing_base = mod("repro.routing.base")
    mod("repro.routing.library")  # imports every routing class
    loads = mod("repro.routing.loads")
    minimum_path = mod("repro.routing.minimum_path")
    split = mod("repro.routing.split")
    estimate = mod("repro.physical.estimate")
    sunmap = mod("repro.sunmap")
    campaign = mod("repro.simulation.campaign")
    server = mod("repro.service.server")

    tracer.wrap(engine.ExplorationEngine, "run", "engine.run", _CacheProbe)
    tracer.wrap(jobs, "map_onto", "core.map_onto")
    tracer.wrap(
        jobs, "execute_simulation_job", "sim.exact.point", _SimPointProbe
    )
    tracer.wrap(
        jobs, "execute_batch_simulation_job", "sim.batch.group",
        _SimGroupProbe,
    )
    tracer.wrap(
        memo.MemoizedMappingEvaluator, "evaluate", "core.memo.evaluate",
        _MemoProbe,
    )
    tracer.wrap(
        memo.MemoizedMappingEvaluator, "evaluate_swap", "core.memo.swap",
        _MemoProbe,
    )
    tracer.wrap(routing_base.RoutingFunction, "route_all", "routing.route_all")
    # Each routing class's own route_commodity (SM overrides the split
    # routine that SA inherits), and likewise each ledger's add_path.
    for cls in _subclasses(routing_base.RoutingFunction):
        if "route_commodity" in cls.__dict__:
            tracer.wrap(cls, "route_commodity", "routing.route_commodity")
    tracer.wrap(minimum_path, "_dijkstra_min_hop", "routing.dijkstra")
    tracer.wrap(split, "_dijkstra_min_hop", "routing.dijkstra")
    tracer.wrap(split, "load_then_hops", "routing.load_then_hops")
    for cls in [loads.EdgeLoads, *_subclasses(loads.EdgeLoads)]:
        if "add_path" in cls.__dict__:
            tracer.wrap(cls, "add_path", "routing.add_path")
    tracer.wrap(
        evaluate, "floorplan_mapping", "floorplan.lp", _FloorplanProbe
    )
    tracer.wrap(
        estimate.NetworkEstimator, "network_power_mw", "physical.power"
    )
    tracer.wrap(sunmap, "build_netlist", "xpipes.netlist")
    tracer.wrap(sunmap, "generate_systemc", "xpipes.systemc")
    tracer.wrap(sunmap, "run_sunmap", "flow.run_sunmap")
    tracer.wrap(campaign, "run_campaign", "campaign.run")
    # The flow entry points the service imports into its own namespace.
    tracer.wrap(server, "run_sunmap", "flow.run_sunmap")
    tracer.wrap(server, "select_topology", "flow.select_topology")
    tracer.wrap(
        server, "synthesize_topologies", "synthesis.sweep", _CandidatesProbe
    )
    tracer.wrap(server, "run_campaign", "campaign.run")
    tracer.wrap(
        server.DesignService, "handle", "service.handle",
        suffix=_payload_kind,
    )
    tracer.wrap(
        server.DesignService, "_compute", "service.compute",
        suffix=lambda args: args[1].kind,
    )


def _subclasses(cls) -> list[type]:
    """Every subclass of ``cls``, transitively, in discovery order."""
    out, stack = [], list(cls.__subclasses__())
    while stack:
        sub = stack.pop(0)
        if sub not in out:
            out.append(sub)
            stack.extend(sub.__subclasses__())
    return out
