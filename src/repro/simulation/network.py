"""Cycle-accurate wormhole NoC simulator.

This is the reproduction's stand-in for the paper's cycle-accurate
SystemC simulation of the generated xpipes design (Sections 6.2 and 6.4):
input-buffered switches, credit-based flow control, round-robin output
arbitration, wormhole switching, and two virtual channels with dateline
VC switching on torus/ring wrap links (the classic deadlock-free
configuration).

Timing model: one cycle per switch traversal (arbitrate + crossbar), a
configurable link latency, one flit per cycle per channel. All state
advances via events scheduled strictly into future cycles, so results do
not depend on iteration order within a cycle.

Kernel design — integer indices + event wheel
---------------------------------------------
The hot loop never hashes a graph-node or edge tuple:

* Switches are interned to contiguous ints in repr-sorted order at
  construction, so the per-cycle "iterate busy switches in a stable,
  hash-seed-independent order" is ``sorted()`` over a small set of ints
  instead of the original per-cycle ``sorted(..., key=repr)`` over node
  tuples (repr-formatting every busy switch every cycle was the single
  most expensive line of the old kernel).
* Every ``(edge, vc)`` pair is interned to a contiguous *channel* id;
  input FIFOs, credits, wormhole locks, round-robin pointers, per-flit
  route requests and per-switch flit counters all live in flat lists
  indexed by channel or switch id.
* Route lookups use dense per-switch arrays precomputed from the
  :class:`~repro.simulation.routes.RouteTable` (candidate order and the
  RNG draw pattern for adaptive Clos middles are preserved exactly).
* The future-event maps (flit arrivals, credit returns) are fixed-size
  ring-buffer event wheels sized ``link_latency + switch_latency + 1``
  — every scheduled offset fits the wheel, so scheduling is a single
  ``list.append`` and delivery a single slot swap, replacing the old
  ``dict.setdefault(cycle, [])`` event maps.

The refactor is bit-identical to the original tuple-keyed kernel: same
per-packet latencies, same ``SimReport`` statistics, same per-switch
load histograms (pinned by ``tests/golden/simulation.json``).

The dict-shaped views (:attr:`Network.inputs`, :attr:`Network.outputs`)
survive for tests and debugging; they are rebuilt on access and never
used by the kernel itself.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from random import Random

from repro.errors import SimulationError, UnsupportedRoutingError
from repro.simulation.flit import Flit, Packet
from repro.simulation.routes import RouteTable
from repro.topology.base import Topology, is_switch, term


@dataclass(frozen=True)
class SimConfig:
    """Simulator parameters.

    Attributes:
        packet_length_flits: flits per packet (header + body + tail).
        buffer_depth_flits: input FIFO depth per virtual channel.
        link_latency: cycles a flit spends on a link.
        switch_latency: pipeline cycles through a switch (arbitration +
            crossbar traversal).
        num_vcs: virtual channels per physical link (2 supports the
            torus dateline scheme).
        seed: RNG seed (adaptive Clos middle choice, traffic).
    """

    packet_length_flits: int = 8
    buffer_depth_flits: int = 8
    link_latency: int = 1
    switch_latency: int = 1
    num_vcs: int = 2
    seed: int = 1

    def __post_init__(self):
        if self.packet_length_flits < 1:
            raise SimulationError("packets need at least one flit")
        if self.buffer_depth_flits < 1:
            raise SimulationError("buffers need at least one flit slot")
        if self.link_latency < 1:
            raise SimulationError("link latency must be >= 1 cycle")
        if self.switch_latency < 0:
            raise SimulationError("switch latency cannot be negative")
        if self.num_vcs < 1:
            raise SimulationError("need at least one virtual channel")


_INFINITE_CREDITS = 1 << 30

#: Sentinels for the flat owner array (any real owner is a channel id).
_FREE = -1
_SOURCE = -2


class _ChannelView:
    """Dict-view adapter exposing one interned channel's live state.

    Only tests and debugging read these; the kernel works on the flat
    arrays directly.
    """

    __slots__ = ("_net", "_ch")

    def __init__(self, net: "Network", ch: int):
        self._net = net
        self._ch = ch

    @property
    def queue(self):
        return self._net._in_queue[self._ch]

    @property
    def request(self):
        rq = self._net._in_request[self._ch]
        return None if rq < 0 else self._net.chan_key[rq]

    @property
    def credits(self) -> int:
        return self._net._out_credits[self._ch]

    @property
    def owner(self):
        owner = self._net._out_owner[self._ch]
        if owner == _FREE:
            return None
        if owner == _SOURCE:
            return "src"
        return self._net.chan_key[owner]

    @property
    def rr(self) -> int:
        return self._net._out_rr[self._ch]

    def __repr__(self) -> str:
        return f"_ChannelView({self._net.chan_key[self._ch]!r})"


class _KernelLayout:
    """Interned, immutable kernel structure for one (topology,
    active slots, VC count) combination.

    Building the layout interns nodes/edges/channels to contiguous ints
    and precomputes the dense next-hop arrays; it also builds the
    :class:`~repro.simulation.routes.RouteTable` (the expensive part —
    all shortest paths per slot pair). Layouts are kept in the
    topology's ``derived("sim_layout")`` table, so the engine's pattern
    of constructing one :class:`Network` per campaign point over the
    same topology pays the construction cost once.
    """

    __slots__ = (
        "routes",
        "wrap_edges",
        "switch_nodes",
        "switch_labels",
        "chan_key",
        "edge_base",
        "chan_vc",
        "chan_dest_switch",
        "next_hop",
        "inject_ch",
    )

    def __init__(self, topology: Topology, active_slots: list[int],
                 num_vcs: int):
        self.routes = RouteTable(topology, active_slots)
        graph = topology.graph
        self.wrap_edges = {
            (u, v)
            for u, v, d in graph.edges(data=True)
            if d.get("wrap", False)
        }

        # Switch interning (repr-sorted: ascending int order == the
        # stable cross-hash-seed order the old kernel re-sorted each
        # cycle).
        self.switch_nodes: list = sorted(topology.switches, key=repr)
        switch_index = {sw: i for i, sw in enumerate(self.switch_nodes)}
        self.switch_labels: tuple[str, ...] = tuple(
            f"sw{sw[1]}" for sw in self.switch_nodes
        )

        # Channel interning: edge-major (graph edge order), vc-minor.
        # Input buffers exist at the downstream end of every edge whose
        # head is a switch; terminal ejection consumes flits immediately.
        self.chan_key: list[tuple] = []  # ch -> ((u, v), vc)
        self.edge_base: dict[tuple, int] = {}  # (u, v) -> first channel
        self.chan_vc: list[int] = []
        self.chan_dest_switch: list[int] = []  # switch id, -1 = terminal
        for u, v in graph.edges():
            self.edge_base[(u, v)] = len(self.chan_key)
            dest_switch = switch_index[v] if is_switch(v) else -1
            for vc in range(num_vcs):
                self.chan_key.append(((u, v), vc))
                self.chan_vc.append(vc)
                self.chan_dest_switch.append(dest_switch)

        # Dense next-hop arrays: next_hop[si][dst] is a tuple of
        # (vc0_out_channel, vc1plus_out_channel) pairs, one per candidate
        # next hop, in the RouteTable's candidate order. The pair folds
        # the dateline VC rule: a flit on VC 0 stays on VC 0 unless the
        # chosen edge wraps; a flit already on VC >= 1 stays on VC 1.
        self.next_hop: list[list[tuple | None]] = []
        for si, candidate_row in enumerate(
            self.routes.switch_candidate_arrays(
                self.switch_nodes, topology.num_slots
            )
        ):
            sw = self.switch_nodes[si]
            row: list[tuple | None] = [None] * topology.num_slots
            for dst, candidates in enumerate(candidate_row):
                if candidates is None:
                    continue
                pairs = []
                for nxt in candidates:
                    base = self.edge_base[(sw, nxt)]
                    vc0 = (
                        1
                        if num_vcs > 1 and (sw, nxt) in self.wrap_edges
                        else 0
                    )
                    vc1 = 1 if num_vcs > 1 else 0
                    pairs.append((base + vc0, base + vc1))
                row[dst] = tuple(pairs)
            self.next_hop.append(row)

        self.inject_ch = {
            s: self.edge_base[(term(s), topology.switch_of(s))]
            for s in active_slots
        }


def _kernel_layout(
    topology: Topology, active_slots: list[int], num_vcs: int
) -> _KernelLayout:
    """Fetch (or build and cache) the interned layout for a topology."""
    cache = topology.derived("sim_layout")
    key = (tuple(active_slots), num_vcs)
    layout = cache.get(key)
    if layout is None:
        layout = cache[key] = _KernelLayout(topology, active_slots, num_vcs)
    return layout


class Network:
    """A simulatable NoC instance.

    Args:
        topology: any library topology.
        config: simulator parameters.
        active_slots: terminal slots hosting traffic endpoints (defaults
            to all slots; pass the mapped slots for trace-driven runs).
    """

    def __init__(
        self,
        topology: Topology,
        config: SimConfig | None = None,
        active_slots: list[int] | None = None,
    ):
        self.topology = topology
        self.config = config or SimConfig()
        self.active_slots = (
            list(range(topology.num_slots))
            if active_slots is None
            else sorted(active_slots)
        )
        self.rng = Random(self.config.seed)
        layout = _kernel_layout(
            topology, self.active_slots, self.config.num_vcs
        )
        self._layout = layout
        self.routes = layout.routes
        self._wrap_edges = layout.wrap_edges
        self._switch_nodes = layout.switch_nodes
        self.switch_labels = layout.switch_labels
        self.chan_key = layout.chan_key
        self._edge_base = layout.edge_base
        self._chan_vc = layout.chan_vc
        self._chan_dest_switch = layout.chan_dest_switch
        self._next_hop = layout.next_hop
        self._inject_ch = layout.inject_ch

        # Per-instance mutable channel state, indexed by channel id.
        buffer_depth = self.config.buffer_depth_flits
        self._in_queue: list[deque | None] = [
            deque() if dest >= 0 else None
            for dest in layout.chan_dest_switch
        ]
        self._in_request = [-1] * len(layout.chan_key)
        self._out_credits = [
            buffer_depth if dest >= 0 else _INFINITE_CREDITS
            for dest in layout.chan_dest_switch
        ]
        self._out_owner = [_FREE] * len(layout.chan_key)
        self._out_owner_pid = [-1] * len(layout.chan_key)
        self._out_rr = [0] * len(layout.chan_key)
        # Non-empty input channels per switch, kept sorted ascending —
        # channel ids are assigned in the same edge-major order the old
        # kernel scanned, so ascending id == the legacy scan order.
        self._active_in: list[list[int]] = [
            [] for _ in layout.switch_nodes
        ]

        self.source_queues: dict[int, deque[Flit]] = {
            s: deque() for s in self.active_slots
        }

        # --- degraded channels (fault overlays): a per-channel
        # forwarding period (inverse capacity factor) and extra per-hop
        # latency. All ``None`` on pristine fabrics, keeping the fused
        # loop's exact fast path (and its bit-identical goldens) intact.
        degradations = getattr(topology, "channel_degradations", None)
        degradations = (
            degradations() if callable(degradations) else None
        )
        self._chan_period: list[int] | None = None
        self._chan_extra: list[int] | None = None
        self._chan_free_at: list[int] | None = None
        max_extra = 0
        if degradations:
            nchan = len(layout.chan_key)
            periods = [1] * nchan
            extras = [0] * nchan
            for edge, (cap_factor, extra_latency) in degradations.items():
                base = layout.edge_base.get(edge)
                if base is None:
                    continue
                period = max(1, round(1.0 / float(cap_factor)))
                for vc in range(self.config.num_vcs):
                    periods[base + vc] = period
                    extras[base + vc] = int(extra_latency)
            if any(p != 1 for p in periods) or any(extras):
                self._chan_period = periods
                self._chan_extra = extras
                self._chan_free_at = [0] * nchan
                max_extra = max(extras)

        # --- event wheels: every scheduled offset (forward = link +
        # switch latency + per-channel extra, injection = link latency,
        # credit = 1) is at most horizon - 1, so slots never collide.
        self._horizon = (
            self.config.link_latency + self.config.switch_latency + 1
            + max_extra
        )
        self._forward_delay = (
            self.config.link_latency + self.config.switch_latency
        )
        self._arrival_wheel: list[list] = [[] for _ in range(self._horizon)]
        self._credit_wheel: list[list[int]] = [
            [] for _ in range(self._horizon)
        ]

        self.cycle = 0
        self._busy_switches: set[int] = set()
        self._queued_flits = 0

        self.delivered: list[Packet] = []
        self.packets: list[Packet] = []  # every packet ever created
        self.injected_packets = 0
        self.injected_flits = 0
        self.ejected_flits = 0
        #: Flits forwarded per switch id (crossbar traversals) — the raw
        #: material of the campaign's per-switch load histograms.
        self._switch_flits: list[int] = [0] * len(self._switch_nodes)
        self._next_pid = 0
        self._in_flight = 0

    # ------------------------------------------------------------------
    # traffic entry point
    # ------------------------------------------------------------------
    def create_packet(self, src_slot: int, dst_slot: int) -> Packet:
        """Queue a new packet at a source terminal."""
        if src_slot == dst_slot:
            raise SimulationError("packet source equals destination")
        if src_slot not in self.source_queues:
            raise SimulationError(f"slot {src_slot} is not active")
        packet = Packet(
            pid=self._next_pid,
            src=src_slot,
            dst=dst_slot,
            length=self.config.packet_length_flits,
            created=self.cycle,
        )
        self._next_pid += 1
        self.source_queues[src_slot].extend(packet.flits())
        self._queued_flits += packet.length
        self.packets.append(packet)
        self.injected_packets += 1
        self._in_flight += 1
        return packet

    @property
    def in_flight(self) -> int:
        """Packets created but not yet fully ejected."""
        return self._in_flight

    # ------------------------------------------------------------------
    # cycle loop
    # ------------------------------------------------------------------
    def step(self, traffic=None) -> None:
        """Advance one cycle."""
        self._advance(1, traffic)

    def run(self, cycles: int, traffic=None) -> None:
        self._advance(cycles, traffic)

    def drain(self, max_cycles: int = 100000) -> bool:
        """Run without new traffic until every packet is delivered."""
        return self._advance(max_cycles, None, stop_on_drain=True)

    # ------------------------------------------------------------------
    def _schedule_arrival(self, when: int, ch: int, flit: Flit) -> None:
        self._arrival_wheel[when % self._horizon].append((ch, flit))

    def _advance(self, cycles: int, traffic, stop_on_drain: bool = False):
        """The fused cycle loop: arrivals, credits, switch phases and
        injection inlined into one frame so the per-cycle state (flat
        channel arrays, event wheels) binds once per call instead of
        once per cycle. Returns the drained flag in ``stop_on_drain``
        mode, else ``None``.

        Per-cycle order (same as the original split methods): deliver
        this cycle's arrivals, apply credit returns, run the switch
        phases, inject from source queues, then call ``traffic``. All
        events schedule strictly into future cycles, so within-cycle
        iteration order never influences results.
        """
        horizon = self._horizon
        arrival_wheel = self._arrival_wheel
        credit_wheel = self._credit_wheel
        in_queue = self._in_queue
        in_request = self._in_request
        out_owner = self._out_owner
        out_owner_pid = self._out_owner_pid
        out_credits = self._out_credits
        out_rr = self._out_rr
        chan_vc = self._chan_vc
        chan_dest = self._chan_dest_switch
        switch_flits = self._switch_flits
        next_hop = self._next_hop
        active_in = self._active_in
        inject_ch = self._inject_ch
        active_slots = self.active_slots
        source_queues = self.source_queues
        delivered_append = self.delivered.append
        forward_delay = self._forward_delay
        link_latency = self.config.link_latency
        chan_period = self._chan_period
        chan_extra = self._chan_extra
        chan_free_at = self._chan_free_at
        rng = self.rng
        # Tests may monkeypatch ``_schedule_arrival`` to spy on events;
        # route every scheduled arrival through the method in that case
        # instead of appending straight to the wheel slot.
        patched = (
            "_schedule_arrival" in self.__dict__
            or type(self)._schedule_arrival is not Network._schedule_arrival
        )

        for _ in range(cycles):
            if stop_on_drain and self._in_flight == 0:
                return True
            cycle = self.cycle + 1
            self.cycle = cycle
            busy = self._busy_switches

            # --- deliver this cycle's flit arrivals
            slot = cycle % horizon
            events = arrival_wheel[slot]
            if events:
                arrival_wheel[slot] = []
                for ch, flit in events:
                    si = chan_dest[ch]
                    if si < 0:
                        self.ejected_flits += 1
                        if flit.is_tail:
                            flit.packet.ejected = cycle
                            delivered_append(flit.packet)
                            self._in_flight -= 1
                        continue
                    queue = in_queue[ch]
                    if not queue:
                        insort(active_in[si], ch)
                    queue.append(flit)
                    busy.add(si)

            # --- apply credit returns
            events = credit_wheel[slot]
            if events:
                credit_wheel[slot] = []
                for ch in events:
                    out_credits[ch] += 1

            # --- switch phases
            if busy:
                arrive_at = cycle + forward_delay
                arrival_append = (
                    None
                    if patched
                    else arrival_wheel[arrive_at % horizon].append
                )
                credit_append = credit_wheel[(cycle + 1) % horizon].append
                still_busy = set()
                # Ascending switch-id iteration == the stable repr order
                # (ids were assigned repr-sorted): the RNG draws below
                # (adaptive middle choice) consume in a reproducible
                # order regardless of hash seed or activity history.
                for si in sorted(busy):
                    active = active_in[si]
                    if not active:
                        continue  # had flits last cycle; drops out now
                    # Phase A: collect route requests of head flits.
                    requests: dict[int, list[int]] | None = None
                    for ch in active:
                        flit = in_queue[ch][0]
                        if flit.is_head:
                            rq = in_request[ch]
                            if rq < 0:
                                candidates = next_hop[si][flit.packet.dst]
                                if candidates is None:
                                    raise UnsupportedRoutingError(
                                        f"no route from "
                                        f"{self._switch_nodes[si]} to "
                                        f"slot {flit.packet.dst}"
                                    )
                                pair = (
                                    candidates[0]
                                    if len(candidates) == 1
                                    else candidates[
                                        rng.randrange(len(candidates))
                                    ]
                                )
                                rq = pair[1] if chan_vc[ch] else pair[0]
                                in_request[ch] = rq
                            if out_owner[rq] == _FREE:
                                if requests is None:
                                    requests = {rq: [ch]}
                                elif rq in requests:
                                    requests[rq].append(ch)
                                else:
                                    requests[rq] = [ch]
                    # Phase B: round-robin arbitration per output.
                    if requests is not None:
                        for rq, askers in requests.items():
                            if out_owner[rq] != _FREE:
                                continue
                            winner = askers[out_rr[rq] % len(askers)]
                            out_rr[rq] += 1
                            out_owner[rq] = winner
                            out_owner_pid[rq] = (
                                in_queue[winner][0].packet.pid
                            )
                    # Phase C: forward one flit per locked output with
                    # credit.
                    emptied = False
                    for ch in active:
                        rq = in_request[ch]
                        if rq < 0:
                            continue
                        if out_owner[rq] != ch or out_credits[rq] <= 0:
                            continue
                        if (
                            chan_period is not None
                            and cycle < chan_free_at[rq]
                        ):
                            continue  # degraded channel still busy
                        queue = in_queue[ch]
                        flit = queue[0]
                        if flit.packet.pid != out_owner_pid[rq]:
                            continue  # next packet must re-arbitrate
                        queue.popleft()
                        out_credits[rq] -= 1
                        switch_flits[si] += 1
                        if chan_period is not None:
                            chan_free_at[rq] = cycle + chan_period[rq]
                            self._schedule_arrival(
                                arrive_at + chan_extra[rq], rq, flit
                            )
                        elif arrival_append is not None:
                            arrival_append((rq, flit))
                        else:
                            self._schedule_arrival(arrive_at, rq, flit)
                        # Return a credit upstream for the freed slot.
                        credit_append(ch)
                        if not queue:
                            emptied = True
                        if flit.is_tail:
                            out_owner[rq] = _FREE
                            out_owner_pid[rq] = -1
                            in_request[ch] = -1
                    if emptied:
                        active_in[si] = [
                            ch for ch in active if in_queue[ch]
                        ]
                    still_busy.add(si)
                self._busy_switches = still_busy

            # --- inject from source queues
            if self._queued_flits:
                when = cycle + link_latency
                inject_append = (
                    None
                    if patched
                    else arrival_wheel[when % horizon].append
                )
                for src_slot in active_slots:
                    queue = source_queues[src_slot]
                    if not queue:
                        continue
                    ch = inject_ch[src_slot]
                    flit = queue[0]
                    if flit.is_head and out_owner[ch] == _FREE:
                        out_owner[ch] = _SOURCE
                        out_owner_pid[ch] = flit.packet.pid
                    if (
                        out_owner[ch] != _SOURCE
                        or out_owner_pid[ch] != flit.packet.pid
                    ):
                        continue
                    if out_credits[ch] <= 0:
                        continue
                    queue.popleft()
                    self._queued_flits -= 1
                    out_credits[ch] -= 1
                    self.injected_flits += 1
                    if inject_append is not None:
                        inject_append((ch, flit))
                    else:
                        self._schedule_arrival(when, ch, flit)
                    if flit.is_tail:
                        out_owner[ch] = _FREE
                        out_owner_pid[ch] = -1

            if traffic is not None:
                traffic(self)

        if stop_on_drain:
            return self._in_flight == 0
        return None

    # ------------------------------------------------------------------
    # measurement accessors and debug views
    # ------------------------------------------------------------------
    def switch_flit_counts(self) -> list[int]:
        """Per-switch forwarded-flit counters, aligned with
        :attr:`switch_labels` (a copy; cheap to snapshot around a
        measurement window)."""
        return list(self._switch_flits)

    @property
    def inputs(self) -> dict:
        """``(edge, vc) -> input buffer`` view over interned channels."""
        return {
            key: _ChannelView(self, ch)
            for ch, key in enumerate(self.chan_key)
            if self._in_queue[ch] is not None
        }

    @property
    def outputs(self) -> dict:
        """``(edge, vc) -> output state`` view over interned channels."""
        return {
            key: _ChannelView(self, ch)
            for ch, key in enumerate(self.chan_key)
        }
