"""Stable fingerprints for design-space candidates.

The evaluation cache (:mod:`repro.engine.cache`) must recognise "the same
work" across engine runs, executors and processes, so cache keys are built
from *content*, not object identity: a core graph is fingerprinted by its
cores and flows, a topology by its node/edge structure, and the mapper
knobs by their field values. Fingerprints are short hex digests, cheap to
compare and safe to ship across process boundaries.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass

from repro.core.constraints import Constraints
from repro.core.coregraph import CoreGraph
from repro.core.mapper import MapperConfig
from repro.topology.base import Topology


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def core_graph_fingerprint(core_graph: CoreGraph) -> str:
    """Content hash of a core graph (cores + flows, order-independent)."""
    cores = [
        (
            c.name,
            c.index,
            round(c.area_mm2, 9),
            c.is_soft,
            round(c.aspect_min, 9),
            round(c.aspect_max, 9),
            round(c.power_mw, 9),
        )
        for c in core_graph.cores
    ]
    flows = sorted(
        (s, d, round(v, 9)) for (s, d), v in core_graph.flows().items()
    )
    return _digest(repr((core_graph.name, cores, flows)))


def topology_fingerprint(topology: Topology) -> str:
    """Content hash of a topology: typed name, graph structure, geometry.

    Node positions are part of the key: placement variants with
    identical connectivity (and even identical per-edge lengths) still
    floorplan differently, because the floorplanner groups blocks into
    columns by x coordinate.

    Fault overlays are covered twice over: dead elements change the
    node/edge lists themselves, and degraded channels append their
    ``(cap_factor, extra_latency)`` to the edge tuple — only when
    non-default, so every pristine fingerprint is byte-stable across
    this change.

    The digest is kept in the topology's ``derived("fingerprint")``
    table: topologies are content-immutable once built (the whole cache
    layer already relies on that), and a batched campaign keys hundreds
    of points against one topology object, so walking the graph per
    point would dominate the keying cost. Equal-content *distinct*
    objects still hash equal — each just computes its digest once.
    """
    memo = topology.derived("fingerprint")
    cached = memo.get("digest")
    if cached is not None:
        return cached
    g = topology.graph
    nodes = sorted(
        (repr(n), tuple(round(c, 9) for c in topology.position(n)))
        for n in g.nodes
    )

    def _edge_key(u, v, data) -> tuple:
        key = (
            repr(u),
            repr(v),
            data.get("kind", ""),
            round(data.get("length", 0.0), 9),
            data.get("mult", 1),
        )
        degradation = (
            round(data.get("cap_factor", 1.0), 9),
            data.get("extra_latency", 0),
        )
        if degradation != (1.0, 0):
            key += (degradation,)
        return key

    edges = sorted(
        _edge_key(u, v, data) for u, v, data in g.edges(data=True)
    )
    payload = repr(
        (type(topology).__name__, topology.name, topology.num_slots, nodes,
         edges)
    )
    fingerprint = memo["digest"] = _digest(payload)
    return fingerprint


def _dataclass_key(value) -> tuple:
    return tuple(
        (f.name, getattr(value, f.name)) for f in fields(value)
    )


def sim_config_fingerprint(sim_config) -> str:
    """Content hash of a simulator :class:`~repro.simulation.network.SimConfig`.

    Imported lazily by the job layer so the engine package keeps no
    hard dependency on the simulator; any frozen dataclass of simple
    values keys correctly here.
    """
    if sim_config is None:
        from repro.simulation.network import SimConfig

        sim_config = SimConfig()
    return _digest(repr(_dataclass_key(sim_config)))


def constraints_fingerprint(constraints: Constraints | None) -> str:
    """Fingerprint of a constraints set (``None`` = the defaults)."""
    if constraints is None:
        constraints = Constraints()
    return _digest(repr(_dataclass_key(constraints)))


def config_fingerprint(config: MapperConfig | None) -> str:
    """Fingerprint of a mapper config (``None`` = the defaults)."""
    if config is None:
        config = MapperConfig()
    return _digest(repr(_dataclass_key(config)))


#: Hashable-by-repr value types allowed into an instance-state key.
_SIMPLE_TYPES = (str, int, float, bool, type(None))


def _simple_state(obj) -> list:
    """Stable, simple-valued instance attributes of ``obj``.

    Complex attributes (the estimator's warm ``AreaPowerLibrary``, the
    already-keyed ``tech``) are excluded: they are either derived state
    whose repr changes as internal caches fill, or covered elsewhere.
    Works for ``__slots__`` classes too.
    """
    names = getattr(obj, "__dict__", None)
    if names is None:
        names = {
            slot: getattr(obj, slot)
            for slot in getattr(type(obj), "__slots__", ())
            if hasattr(obj, slot)
        }
    return sorted(
        (k, v)
        for k, v in names.items()
        if not k.startswith("_")
        and k != "tech"
        and isinstance(v, _SIMPLE_TYPES)
    )


def estimator_fingerprint(estimator) -> str:
    """Key an estimator by type, technology point and simple knobs.

    The type guards against estimator subclasses that override the
    models while keeping the default technology; simple instance
    attributes (e.g. a subclass's ``self.derate = 0.8``) are included so
    differently-parameterized instances never share cache entries.
    """
    from repro.physical.estimate import NetworkEstimator

    if estimator is None:
        estimator = NetworkEstimator()
    return _digest(
        repr(
            (
                type(estimator).__name__,
                _dataclass_key(estimator.tech),
                _simple_state(estimator),
            )
        )
    )


def objective_fingerprint(objective) -> str:
    """Key an objective by name; parametric objectives add their state.

    Works for objective names (``"hops"``), the singleton objective
    classes, and :class:`~repro.core.objectives.WeightedObjective`-style
    instances whose behaviour lives in instance attributes.
    """
    if isinstance(objective, str):
        return _digest(repr(("name", objective.lower())))
    if is_dataclass(objective):
        state = list(_dataclass_key(objective))
    else:
        state = [
            (k, v)
            for k, v in sorted(vars(objective).items())
            if not k.startswith("_")
        ] if hasattr(objective, "__dict__") else _simple_state(objective)
    return _digest(repr((type(objective).__name__, objective.name, state)))
