"""Pre-routing floors of a swap candidate's sort key.

The bounded swap search (:mod:`repro.core.mapper`) drops a candidate
before routing when a floor of its sort key already loses to the
bound. Each round's candidates are slot swaps of one base assignment,
so a :class:`SwapFloor` computes the base's totals once and prices a
candidate from the commodities on its two swapped cores alone.

**Hop floor.** No routed path crosses fewer switches than
:meth:`~repro.topology.base.Topology.hop_distance`
(``tests/routing/test_hop_bound.py``), so the bandwidth-weighted hop
distance of the mapped slots bounds the hops objective from below
(cut-off 1), and the flows whose hop distance exceeds a QoS hop bound
are violations under every routing.

**Overflow floor** (cut-off 5). ``bandwidth_overflow`` sums
``max(0, load - capacity)`` over the constrained links. Three parts of
it are known before routing:

* *forced paths* — a commodity routed by MP or SM whose quadrant holds a
  single minimum-hop path (``topology_search(...).unique_eids``) puts
  its whole bandwidth on that path, and a DO route is fixed, so those
  net-edge loads ``F_e`` are exact. With spare room
  ``R_e = max(0, cap_e - F_e)``, the net-link overflow is exactly
  ``sum_e max(0, F_e - cap_e) + sum_e max(0, X_e - R_e)``, where ``X_e``
  is the rest of the traffic;
* *switch cuts* — every other commodity of ``h >= 2`` hops leaves its
  injection switch ``s`` and enters its ejection switch through net
  edges, so the out-edges of ``s`` carry at least ``o_s`` of ``X`` and
  its in-edges at least ``i_s``. MP and SM route on minimum-hop paths,
  so ``X`` sums to exactly ``T = sum bw * (h - 1)`` over the net edges
  (at least that for SA). Each edge has one tail, so with ``R_s`` the
  spare room of ``s``'s out-edges, the overflow of ``X`` is at least
  ``sum_s max(0, o_s - R_s) + max(0, T - sum_s max(o_s, R_s))``: each
  switch overflows by what its own traffic cannot fit, and the traffic
  left over once every switch is filled overflows somewhere. The same
  holds for in-edges; the floor takes the larger side;
* *terminal links*, when constrained, carry their core's injected or
  ejected bandwidth wherever it is mapped, so their overflow is a
  constant of the application.

The floor applies where those facts are proven: forced paths for MP, SM
and DO, the switch cuts for every routing but DO (whose paths are all
forced), and only on fabrics where each terminal has exactly one
injection and one ejection switch. Any other routing function gets the
hop floor only, and so does a search without a QoS bound whose every
link can carry the application's whole bandwidth: nothing can overflow.

**Exact ties.** The search keeps a candidate only if it strictly beats
the bound, so a candidate proven at best to tie it is dropped too:

* hops, on any input: under MP and SM every routed path crosses exactly
  ``hop_distance`` switches (``tests/routing/test_hop_bound.py``), so
  :meth:`SwapFloor.replay_hops`, the same
  :func:`~repro.routing.base.average_hops` expression on the same
  numbers, is the candidate's ``avg_hops`` bit for bit. Cut-off 1 asks
  it when the hop bound lies within its margin of the key's cost;
* overflow, in exact arithmetic: when every bandwidth routing adds (a
  commodity's value, or its ``value / chunks`` for SM and SA) and every
  constrained capacity is a multiple of ``2**-16`` MB/s, every channel
  divisor is 1, and the application's bandwidth times the fabric's node
  count, plus the capacities, stays below ``2**36`` MB/s, every float
  sum of routing and of the floors is an integer count of ``2**-16``
  below ``2**52``, so no sum rounds, whatever its order. The paper's
  four applications qualify. Then, against an infeasible key ``(1, v, o, m)``, a candidate whose floors reach ``v``
  violations and exactly ``o`` of overflow is dropped once a floor of
  its ``max_link_load`` reaches ``m``: the forced-path edge loads, each
  switch's forced out-edge load plus ``o_s`` spread over its out-degree
  (and the same on in-edges), and, when constrained, the terminal link
  loads (:meth:`SwapFloor.peak_reaches`).

Floats: outside exact arithmetic the overflow floors add the same
bandwidths in a different order than routing does, so they are compared
with a 1e-9 margin relative to the largest quantity they sum, far above
their rounding, and a near-tie is routed in full.
"""

from __future__ import annotations

import math

from repro.core.constraints import capacity_table
from repro.errors import TopologyError
from repro.routing.base import average_hops
from repro.routing.dimension_ordered import DimensionOrderedRouting, dor_route
from repro.routing.minimum_path import MinimumPathRouting
from repro.routing.shortest import topology_search
from repro.routing.split import SplitAllPathRouting, SplitMinPathRouting
from repro.topology.base import is_switch, term

#: Routing class -> how its paths are known before routing: "minimum"
#: (minimum-hop paths, forced where a quadrant has one), "dor" (every
#: path fixed) or "cut" (paths at least minimum-hop, none forced).
_KINDS = {
    MinimumPathRouting: "minimum",
    SplitMinPathRouting: "minimum",
    DimensionOrderedRouting: "dor",
    SplitAllPathRouting: "cut",
}

#: A pair row's forced path before it is looked up.
_UNKNOWN = False

#: Bandwidths that are integer multiples of ``1 / _GRID`` MB/s and sum
#: to less than ``_EXACT_LIMIT`` MB/s add without rounding.
_GRID = 2.0 ** 16
_EXACT_LIMIT = 2.0 ** 36


def _on_grid(value: float) -> bool:
    return (value * _GRID).is_integer()


def _fabric(topology):
    """``(inj, ej, tail, head, switches)`` of ``topology`` — each slot's
    injection and ejection switch number, each net edge id's tail and
    head switch number, the switch count — or ``None`` when a terminal
    lacks exactly one injection or one ejection switch. Kept in the
    topology's ``derived("floor")`` table beside the pair rows."""
    cache = topology.derived("floor")
    if "fabric" in cache:
        return cache["fabric"]
    graph = topology.graph
    number = {sw: k for k, sw in enumerate(topology.switches)}
    inj, ej = [], []
    fabric = None
    for slot in range(topology.num_slots):
        node = term(slot)
        out = list(graph.successors(node))
        into = list(graph.predecessors(node))
        if not (len(out) == len(into) == 1
                and is_switch(out[0]) and is_switch(into[0])):
            break
        inj.append(number[out[0]])
        ej.append(number[into[0]])
    else:
        ids, edges = graph.edge_index()
        tail = [-1] * len(edges)
        head = [-1] * len(edges)
        for u, v in topology.net_edges():
            eid = ids[u, v]
            tail[eid] = number[u]
            head[eid] = number[v]
        fabric = (inj, ej, tail, head, len(number))
    cache["fabric"] = fabric
    return fabric


class _Totals:
    """The overflow floor's totals for one base assignment."""

    __slots__ = (
        "fabric", "forced", "ends", "load", "overflow", "room_out",
        "room_in", "demand_out", "demand_in", "traffic", "terminal",
        "terminal_peak", "violations", "infeasible", "margin", "exact",
    )


class SwapFloor:
    """Floors of slot swaps of one base assignment.

    Args:
        core_graph, topology, routing, constraints: the search context.
        base: the round's base assignment (core -> slot), never mutated
            while this floor is in use.

    :meth:`select` names the candidate, ``swap_assignment(base, s1,
    s2)``; :meth:`hop_bound`, :meth:`replay_hops` and :meth:`loses`
    then price it. The overflow floor's totals are built on first use.

    Slot pairs are priced by rows ``[hops, forced net edge ids]`` in
    the topology's ``derived("floor")`` table, one row table per
    routing kind, each row looked up on first use: a row's forced
    path (``None`` when the pair has none) only when an overflow floor
    needs it, since finding it interns the pair's search graph.

    Attributes:
        dropped: whether :meth:`loses` dropped the selected candidate.
    """

    __slots__ = (
        "base", "topology", "table", "kind", "minimum", "chunks",
        "max_hops", "flows", "on", "core_at", "hops", "total", "weighted",
        "dropped", "_rows", "_swap", "_moves", "_floors", "_totals",
        "_loads",
    )

    def __init__(self, core_graph, topology, routing, constraints, base):
        self.base = base
        self.topology = topology
        self.table = capacity_table(topology, constraints)
        kind = _KINDS.get(type(routing))
        self.minimum = kind == "minimum"
        self.chunks = getattr(routing, "chunks", 1)
        if not math.isfinite(constraints.link_capacity_mb_s):
            kind = None
        self.kind = kind
        self._rows = topology.derived("floor").setdefault(
            kind if kind in ("minimum", "dor") else "cut", {}
        )
        self.max_hops = constraints.max_flow_hops
        self.flows = flows = [
            (c.src, c.dst, c.value) for c in core_graph.commodities()
        ]
        #: Per core, the ``(index, src, dst, bandwidth)`` of its flows.
        self.on = on = {core: [] for core in base}
        for k, (u, w, v) in enumerate(flows):
            on[u].append((k, u, w, v))
            on[w].append((k, u, w, v))
        self.core_at = {slot: core for core, slot in base.items()}
        total = weighted = 0.0
        hops = []
        for u, w, v in flows:
            row = self._row(base[u], base[w])
            if row is None:
                hops = None  # a disconnected pair: routing reports it
                break
            hops.append(row[0])
            total += v
            weighted += v * row[0]
        self.hops = hops
        self.total = total
        self.weighted = weighted
        self.dropped = False
        self._swap = None
        self._moves = None
        self._floors = None
        self._totals = None
        self._loads = None

    def _row(self, a: int, b: int):
        """Slot pair ``(a, b)``'s row, or ``None`` if it is disconnected."""
        row = self._rows.get((a, b))
        if row is None:
            try:
                hops = self.topology.hop_distance(a, b)
            except TopologyError:
                return None
            forced = _UNKNOWN if self.kind in ("minimum", "dor") else None
            row = self._rows[a, b] = [hops, forced]
        return row

    def _forced(self, row: list, a: int, b: int):
        """The net edge ids of the path ``row``'s pair ``(a, b)`` is
        forced onto, or ``None``."""
        forced = row[1]
        if forced is _UNKNOWN:
            if self.kind == "dor":
                eids = dor_route(self.topology, a, b)[1]
            else:
                eids = topology_search(self.topology, a, b).unique_eids
            forced = row[1] = None if eids is None else tuple(eids[1:-1])
        return forced

    def select(self, s1: int, s2: int) -> None:
        """Make the slot swap ``(s1, s2)`` of the base the candidate
        (``s1 == s2`` selects the base itself)."""
        self._swap = (s1, s2)
        self._moves = None
        self._floors = None
        self.dropped = False

    def _moved(self):
        """``[(flow index, bandwidth, new src slot, new dst slot, new
        row)]`` of the flows on the selected candidate's swapped cores,
        or ``None`` when a new pair is disconnected (routing then
        reports it)."""
        moves = self._moves
        if moves is not None or self.hops is None:
            return moves
        s1, s2 = self._swap
        c1 = self.core_at.get(s1)
        c2 = self.core_at.get(s2)
        base = self.base
        rows = self._rows
        moves = []
        for core, other in ((c1, None), (c2, c1)):
            if core is None:
                continue
            for k, u, w, v in self.on[core]:
                if other is not None and (u == other or w == other):
                    continue  # a flow between the two: c1's loop moved it
                a = s2 if u == c1 else s1 if u == c2 else base[u]
                b = s2 if w == c1 else s1 if w == c2 else base[w]
                row = rows.get((a, b)) or self._row(a, b)
                if row is None:
                    return None
                moves.append((k, v, a, b, row))
        self._moves = moves
        return moves

    def hop_bound(self) -> float | None:
        """The selected candidate's bandwidth-weighted hop distance (the
        hops objective's ``lower_bound``), updated from the base's by
        the moved flows; ``None`` when a pair is disconnected."""
        moves = self._moved()
        if moves is None:
            return None
        hops = self.hops
        weighted = self.weighted
        for k, v, _, _, row in moves:
            weighted += v * row[0] - v * hops[k]
        return weighted / self.total if self.total > 0 else 0.0

    def replay_hops(self) -> float | None:
        """The selected candidate's ``avg_hops``, bit for bit, under MP
        or SM (routing's own expression on the slots' hop distances);
        ``None`` under other routings or when a pair is disconnected."""
        moves = self._moved() if self.minimum else None
        if moves is None:
            return None
        hops = self.hops[:]
        for k, _, _, _, row in moves:
            hops[k] = row[0]
        return average_hops(hops, [v for _, _, v in self.flows])

    def loses(self, key: tuple) -> bool:
        """Cut-off 5: whether the selected candidate's floors prove its
        sort key does not beat ``key``. Against a feasible key it must
        be provably infeasible: a QoS violation, or an overflow floor
        above what the per-link feasibility tolerances add up to.
        Against an infeasible key ``(1, violations, overflow,
        max_link_load)`` it must be provably no better: more violations,
        or as many and an overflow floor beyond ``overflow`` (and, as an
        overflow within the tolerances may belong to a feasible mapping,
        above them). In exact arithmetic an overflow floor equal to
        ``overflow`` also loses once its max-link-load floor reaches the
        key's ``max_link_load`` (:meth:`peak_reaches`)."""
        floors = self.floors()
        if floors is None:
            return False
        violations, overflow = floors
        t = self._totals
        if violations != key[1]:  # a feasible key has none
            drop = violations > key[1]
        elif not overflow > t.infeasible:
            drop = False
        elif key[0] == 0:
            drop = True
        elif t.exact:
            drop = overflow > key[2] or (
                overflow == key[2] and self.peak_reaches(key[3])
            )
        else:
            drop = overflow > key[2] + max(t.margin, 1e-9 * abs(key[2]))
        self.dropped = drop
        return drop

    def peak_reaches(self, peak: float) -> bool:
        """Whether a floor of the selected candidate's ``max_link_load``
        reaches ``peak``: a forced-path net edge load, a switch whose
        forced out-edge load plus ``o_s`` is at least ``peak`` times its
        out-degree (the same on in-edges), or a constrained terminal
        link's load. Only meaningful when the totals are exact (each
        compared sum is then exact, and no division rounds); call after
        :meth:`floors`."""
        t = self._totals
        if t.terminal_peak >= peak:
            return True
        load, demand_out, demand_in = self._loads
        _, _, tail, head, switches = t.fabric
        out_sum = demand_out[:]
        in_sum = demand_in[:]
        out_deg = [0] * switches
        in_deg = [0] * switches
        for eid in self.table.net:
            value = load[eid]
            if value >= peak:
                return True
            out_sum[tail[eid]] += value
            in_sum[head[eid]] += value
            out_deg[tail[eid]] += 1
            in_deg[head[eid]] += 1
        return any(
            degree and total >= peak * degree
            for sums, degrees in ((out_sum, out_deg), (in_sum, in_deg))
            for total, degree in zip(sums, degrees)
        )

    def _base_totals(self) -> _Totals | None:
        """The base's overflow-floor totals, or ``None`` where the
        overflow floor does not apply."""
        if self._totals is not None:
            return self._totals or None
        self._totals = False
        fabric = _fabric(self.topology)
        if self.kind is None or fabric is None or self.hops is None:
            return None
        inj, ej, tail, head, switches = fabric
        table = self.table
        capacity = table.capacity
        if self.max_hops is None and self.total <= min(
            (capacity[eid] for eid in (*table.net, *table.core)),
            default=math.inf,
        ):
            return None  # no link can carry more than all the traffic
        base = self.base

        t = _Totals()
        t.fabric = fabric
        t.forced = forced = []
        t.ends = ends = []
        t.load = load = [0.0] * len(capacity)
        t.demand_out = demand_out = [0.0] * switches
        t.demand_in = demand_in = [0.0] * switches
        traffic = 0.0
        sent = {}
        received = {}
        for (u, w, v), h in zip(self.flows, self.hops):
            a, b = base[u], base[w]
            sent[u] = sent.get(u, 0.0) + v
            received[w] = received.get(w, 0.0) + v
            path = self._forced(self._rows[a, b], a, b)
            forced.append(path)
            ends.append((inj[a], ej[b]))
            if path is not None:
                for eid in path:
                    load[eid] += v
            elif h >= 2:
                demand_out[inj[a]] += v
                demand_in[ej[b]] += v
                traffic += v * (h - 1)
        t.traffic = traffic

        overflow = 0.0
        t.room_out = room_out = [0.0] * switches
        t.room_in = room_in = [0.0] * switches
        scale = 0.0
        for eid in table.net:
            cap = capacity[eid]
            scale += cap
            if load[eid] > cap:
                overflow += load[eid] - cap
            else:
                room_out[tail[eid]] += cap - load[eid]
                room_in[head[eid]] += cap - load[eid]
        t.overflow = overflow

        terminal = peak = 0.0
        if table.core:
            cap = capacity[table.core[0]]
            for value in (*sent.values(), *received.values()):
                if value > cap:
                    terminal += value - cap
                if value > peak:
                    peak = value
        t.terminal = terminal
        t.terminal_peak = peak
        max_hops = self.max_hops
        t.violations = 0 if max_hops is None else sum(
            h > max_hops for h in self.hops
        )
        # A feasible mapping overflows each constrained link by at most
        # 1e-9 per channel (the CapacityTable limit), so a floor above
        # their sum, plus the rounding margin, proves infeasibility.
        divisor = table.divisor
        constrained = [capacity[eid] for eid in (*table.net, *table.core)]
        chunks = self.chunks
        t.exact = (
            all(divisor[eid] == 1 for eid in table.net)
            and all(map(_on_grid, constrained))
            and all(
                _on_grid(v / chunks) and v / chunks * chunks == v
                for _, _, v in self.flows
            )
            and sum(constrained)
            + self.total * self.topology.graph.number_of_nodes()
            < _EXACT_LIMIT
        )
        t.margin = 1e-9 * max(1.0, scale + self.weighted)
        t.infeasible = t.margin + 1e-9 * (
            sum(divisor[eid] for eid in table.net) + len(table.core)
        )
        self._totals = t
        return t

    def floors(self) -> tuple[int, float] | None:
        """``(QoS violations floor, bandwidth_overflow floor)`` of the
        selected candidate, or ``None`` where no floor applies. The
        overflow floor may exceed the overflow by rounding, by far less
        than the margin :meth:`loses` compares it with."""
        if self._floors is not None:
            return self._floors
        t = self._base_totals()
        moves = self._moved()
        if t is None or moves is None:
            return None
        inj, ej, tail, head, _ = t.fabric
        hops = self.hops
        forced = t.forced
        ends = t.ends
        max_hops = self.max_hops
        violations = t.violations
        demand_out = t.demand_out[:]
        demand_in = t.demand_in[:]
        base_load = t.load
        load = base_load[:]
        touched = []
        traffic = t.traffic
        for k, v, a, b, row in moves:
            path = forced[k]
            if path is not None:
                touched += path
                for eid in path:
                    load[eid] -= v
            elif hops[k] >= 2:
                s, r = ends[k]
                demand_out[s] -= v
                demand_in[r] -= v
                traffic -= v * (hops[k] - 1)
            h, path = row
            if path is _UNKNOWN:
                path = self._forced(row, a, b)
            if path is not None:
                touched += path
                for eid in path:
                    load[eid] += v
            elif h >= 2:
                demand_out[inj[a]] += v
                demand_in[ej[b]] += v
                traffic += v * (h - 1)
            if max_hops is not None:
                violations += (h > max_hops) - (hops[k] > max_hops)

        capacity = self.table.capacity
        overflow = t.overflow
        room_out = t.room_out
        room_in = t.room_in
        if touched:
            room_out = room_out[:]
            room_in = room_in[:]
        for eid in set(touched):
            cap = capacity[eid]
            before = base_load[eid]
            after = load[eid]
            if before > cap:
                overflow -= before - cap
                room = 0.0
            else:
                room = before - cap
            if after > cap:
                overflow += after - cap
            else:
                room += cap - after
            room_out[tail[eid]] += room
            room_in[head[eid]] += room
        cut_out = _cut(demand_out, room_out, traffic)
        cut_in = _cut(demand_in, room_in, traffic)
        cut = cut_out if cut_out > cut_in else cut_in
        self._loads = (load, demand_out, demand_in)
        self._floors = (violations, overflow + cut + t.terminal)
        return self._floors


def _cut(demand: list, room: list, traffic: float) -> float:
    """One side's switch-cut floor,
    ``sum_s max(0, o_s - R_s) + max(0, T - sum_s max(o_s, R_s))``."""
    over = cover = 0.0
    for o, r in zip(demand, room):
        if o > r:
            over += o - r
            cover += o
        else:
            cover += r
    return over + traffic - cover if traffic > cover else over
