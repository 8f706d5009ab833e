"""Vectorized batched wormhole simulation: a campaign as one array program.

The exact kernel (:mod:`repro.simulation.network`) advances one network
at a time, one event at a time, in pure CPython; PR 3's integer-indexed
rewrite (~3.2x) is the ceiling of that shape. This module advances
*many* networks in lockstep instead: every campaign point that shares a
topology (different injection rates, traffic patterns and seeds — the
lanes of one batch) becomes a row of one flat state vector over the
same interned channel layout PR 3 built, and one pass of array ops
advances all ``B`` lanes by one cycle.

Model fidelity
--------------
The batch kernel simulates the *same system* as the exact kernel —
input-buffered wormhole switches, credit-based flow control, per-output
round-robin arbitration, two virtual channels with dateline switching,
identical per-hop timing (``link_latency + switch_latency``), identical
warmup/measure/drain protocol and statistics formulas. What differs is
the *random streams*: traffic draws come from a per-lane counter-based
``Philox`` generator and adaptive route choices from a per-lane
``splitmix64`` hash instead of the exact kernel's single sequential
``random.Random``. Distributions match; sequences do not. The batch
engine is therefore **statistically equivalent, not bit-identical** —
gated by ``tests/simulation/test_batch_equivalence.py`` (same detected
saturation rate per curve, pre-saturation latency within tolerance,
exact flit-conservation invariants) while the exact kernel keeps its
bit-exact goldens.

Determinism contract
--------------------
Every lane's randomness is derived from the lane's *content* (pattern,
rate, traffic seed, simulator seed) and all per-lane state is
row-independent, so a point produces byte-identical results no matter
which other lanes share its batch, in what order, or how the campaign
was chunked — the property the per-point ``("bsim", …)`` cache keys
rely on (asserted in the equivalence suite).

Vectorization shape
-------------------
* Per-lane channel state — queue ring buffers, head/length, credits,
  wormhole owners, round-robin pointers, route requests — lives in
  flat ``lane * C + channel`` vectors; each cycle runs one dense scan
  for occupied channel fronts plus short sparse gather/scatter chains
  over only the active indices (flat 1-D indexing throughout: the 2-D
  ``take_along_axis``/``nonzero`` forms cost ~10x more per call).
* The future-event maps become per-slot event *lists* (arrays of flat
  channel ids + flit codes appended in phase C, concatenated at
  delivery) and a one-cycle credit buffer.
* Open-loop traffic is *precomputed*: synthetic and trace generators
  are pure functions of (lane seed, cycle, node), so the whole run's
  packet creations are materialized up front as per-slot FIFOs — the
  per-cycle traffic cost collapses to two gathers.
* Per-lane warmup/measure/drain boundaries are tracked independently,
  so heterogeneous lanes retire on their own cycle without stalling
  the batch.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError, UnsupportedRoutingError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.simulation.network import SimConfig, _kernel_layout
from repro.simulation.patterns import APP_PATTERN, HOTSPOT_FRACTION, PATTERNS
from repro.simulation.stats import SimReport, _quantile
from repro.simulation.traffic import TraceTraffic
from repro.topology.base import Topology

_FREE = -1
_SOURCE = -2
_INFINITE_CREDITS = 1 << 30
_NEVER = 1 << 40

#: Most recent batch-lane kernel throughput. Set where the simulation
#: runs — under a process executor that is the worker process, so the
#: parent's registry only sees serial/in-thread batches (documented in
#: docs/OBSERVABILITY.md).
_CYCLES_PER_SEC = obs_metrics.REGISTRY.gauge(
    "repro_batch_cycles_per_sec",
    "Simulated lane-cycles per wall second of the last batch kernel run",
)

#: Synthetic patterns whose destination is a pure function of the
#: source index (vectorized as a precomputed destination map).
_DETERMINISTIC_PATTERNS = frozenset(
    ("bit_complement", "bit_reverse", "transpose", "tornado", "neighbor",
     "shuffle")
)

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_T_STRIDE = np.uint64(0x9E3779B97F4A7C15)
_C_STRIDE = np.uint64(0xD1B54A32D192ED03)


def _mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (uint64 in, uint64 out)."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _lane_digest(sim_seed: int, traffic_seed: int, pattern: str,
                 rate: float) -> bytes:
    """Content digest seeding one lane's random streams.

    A pure function of the lane's own coordinates — never of batch
    composition — so the same campaign point draws the same streams in
    every batch it ever rides in.
    """
    payload = repr(("bsim-lane", sim_seed, traffic_seed, pattern, rate))
    return hashlib.sha256(payload.encode("utf-8")).digest()


@dataclass(frozen=True)
class BatchLane:
    """One campaign point's coordinates inside a batch.

    Attributes mirror the per-point fields of
    :class:`~repro.engine.jobs.SimulationJob`; everything the lanes of a
    batch must *share* (topology, simulator config, active slots) lives
    on the :class:`BatchSimulator` instead.
    """

    pattern: str
    rate: float
    traffic_seed: int
    warmup: int
    measure: int
    drain: int
    core_graph: object | None = None
    assignment: tuple[tuple[int, int], ...] | None = None
    flit_width_bits: int = 32
    clock_mhz: float = 500.0

    @property
    def cycles(self) -> int:
        """Total simulated cycles of this lane's protocol."""
        return self.warmup + self.measure + self.drain


class _LaneTraffic:
    """One lane's precomputed open-loop packet-creation schedule."""

    __slots__ = ("created", "dst_slot", "src_index", "error")

    def __init__(self, created, dst_slot, src_index, error=None):
        self.created = created      # (P,) creation cycle, ascending
        self.dst_slot = dst_slot    # (P,) destination slot value
        self.src_index = src_index  # (P,) source index into active_slots
        self.error = error          # SimulationError for unusable lanes


def _precompute_traffic(lane: BatchLane, slots: np.ndarray,
                        slot_index: dict[int, int], plen: int,
                        sim_seed: int) -> _LaneTraffic:
    """Materialize every packet a lane will ever create.

    All generators here are open loop (injection never depends on
    network state), so the full ``(cycle, source, destination)``
    schedule is a pure function of the lane content — computed once,
    vectorized over all cycles.
    """
    digest = _lane_digest(sim_seed, lane.traffic_seed, lane.pattern,
                          lane.rate)
    rng = np.random.Generator(
        np.random.Philox(key=int.from_bytes(digest[:16], "little"))
    )
    empty = _LaneTraffic(
        np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64)
    )
    T = lane.cycles
    n = len(slots)
    if T <= 0 or n < 2:
        return empty

    if lane.pattern == APP_PATTERN:
        return _precompute_trace(lane, rng, T, plen, slot_index)

    p = lane.rate / plen
    inj = rng.random((T, n)) < p
    src = np.arange(n)
    if lane.pattern == "uniform":
        d = rng.integers(0, n - 1, size=(T, n))
        dst = (d + (d >= src)).astype(np.int64)
    elif lane.pattern == "hotspot":
        d = rng.integers(0, n - 1, size=(T, n))
        dst = (d + (d >= src)).astype(np.int64)
        hot = n // 2
        hotm = (rng.random((T, n)) < HOTSPOT_FRACTION) & (src != hot)
        dst = np.where(hotm, hot, dst)
    elif lane.pattern in _DETERMINISTIC_PATTERNS:
        fn = PATTERNS[lane.pattern]
        dvec = np.array([fn(i, n, None) for i in range(n)], dtype=np.int64)
        inj &= dvec != src  # pattern fixed points never send
        dst = np.broadcast_to(dvec, (T, n))
    else:
        return _LaneTraffic(
            empty.created, empty.dst_slot, empty.src_index,
            error=SimulationError(
                f"the batch sim engine cannot vectorize pattern "
                f"{lane.pattern!r}; run it on the exact engine"
            ),
        )
    t_idx, s_idx = np.nonzero(inj)  # row-major: by cycle, then slot order
    return _LaneTraffic(
        (t_idx + 1).astype(np.int64),
        slots[dst[t_idx, s_idx]].astype(np.int64),
        s_idx.astype(np.int64),
    )


def _precompute_trace(lane: BatchLane, rng, T: int, plen: int,
                      slot_index: dict[int, int]) -> _LaneTraffic:
    """Application-trace schedule (the ``"app"`` pattern).

    Reuses :class:`~repro.simulation.traffic.TraceTraffic` for the
    MB/s -> flits/cycle conversion and the average-per-node rescaling,
    so the offered load matches the exact engine's by construction.
    """
    empty = np.empty(0, np.int64)
    if lane.core_graph is None or lane.assignment is None:
        return _LaneTraffic(empty, empty, empty, error=SimulationError(
            "the 'app' traffic pattern needs a core graph and a "
            "core -> slot assignment"
        ))
    assignment = dict(lane.assignment)
    nominal = TraceTraffic(
        lane.core_graph, assignment,
        flit_width_bits=lane.flit_width_bits, clock_mhz=lane.clock_mhz,
    ).offered_load()
    if nominal <= 0:
        return _LaneTraffic(empty, empty, empty, error=SimulationError(
            f"{lane.core_graph.name}: application offers no traffic"
        ))
    scale = lane.rate * len(assignment) / nominal
    flows = TraceTraffic(
        lane.core_graph, assignment,
        flit_width_bits=lane.flit_width_bits, clock_mhz=lane.clock_mhz,
        scale=scale,
    ).flows
    # Flow endpoints are slot *values*; the simulator wants indices into
    # the active-slot list for its per-source FIFOs.
    src_idx = np.array([slot_index[s] for s, _, _ in flows],
                       dtype=np.int64)
    dsts = np.array([d for _, d, _ in flows], dtype=np.int64)
    rates = np.array([r for _, _, r in flows], dtype=np.float64)
    inj = rng.random((T, len(flows))) < rates / plen
    t_idx, f_idx = np.nonzero(inj)  # by cycle, then flow-list order
    return _LaneTraffic(
        (t_idx + 1).astype(np.int64), dsts[f_idx], src_idx[f_idx]
    )


class _BatchLayout:
    """Numpy view of one topology's interned kernel layout.

    Built from the exact kernel's
    :class:`~repro.simulation.network._KernelLayout` and kept beside it
    (the topology's ``derived("batch_layout")`` table), so the expensive
    route-table construction is shared between engines.
    """

    __slots__ = (
        "num_channels", "num_switches", "chan_dest", "chan_vc",
        "route_n", "route_first", "cand_vc0", "cand_vc1", "has_adaptive",
        "inject_ch", "switch_labels", "switch_names",
    )

    def __init__(self, topology: Topology, active_slots: list[int],
                 num_vcs: int):
        base = _kernel_layout(topology, active_slots, num_vcs)
        C = len(base.chan_key)
        S = len(base.switch_nodes)
        self.num_channels = C
        self.num_switches = S
        self.chan_dest = np.array(base.chan_dest_switch, dtype=np.int64)
        self.chan_vc = np.array(base.chan_vc, dtype=np.int64)
        num_slots = topology.num_slots
        self.route_n = np.zeros((S, num_slots), dtype=np.int64)
        self.route_first = np.zeros((S, num_slots), dtype=np.int64)
        flat0: list[int] = []
        flat1: list[int] = []
        for si, row in enumerate(base.next_hop):
            for dst, pairs in enumerate(row):
                if pairs is None:
                    continue
                self.route_first[si, dst] = len(flat0)
                self.route_n[si, dst] = len(pairs)
                for vc0_ch, vc1_ch in pairs:
                    flat0.append(vc0_ch)
                    flat1.append(vc1_ch)
        self.cand_vc0 = np.array(flat0 or [0], dtype=np.int64)
        self.cand_vc1 = np.array(flat1 or [0], dtype=np.int64)
        self.has_adaptive = bool((self.route_n > 1).any())
        self.inject_ch = np.array(
            [base.inject_ch[s] for s in active_slots], dtype=np.int64
        )
        self.switch_labels = base.switch_labels
        self.switch_names = base.switch_nodes


def _batch_layout(topology: Topology, active_slots: list[int],
                  num_vcs: int) -> _BatchLayout:
    """Fetch (or build and cache) the numpy layout for a topology."""
    cache = topology.derived("batch_layout")
    key = (tuple(active_slots), num_vcs)
    layout = cache.get(key)
    if layout is None:
        layout = cache[key] = _BatchLayout(topology, active_slots, num_vcs)
    return layout


class BatchSimulator:
    """Advance B same-topology campaign points in numpy lockstep.

    Args:
        topology: the shared fabric of every lane.
        lanes: per-point coordinates (pattern, rate, seed, protocol).
        config: shared simulator parameters (``None`` = defaults).
        active_slots: shared traffic endpoints (defaults to all slots).

    Call :meth:`run` once; it returns one
    :class:`~repro.simulation.stats.SimReport` (or a captured
    :class:`~repro.errors.SimulationError`) per lane, in lane order.
    After the run the per-lane conservation counters
    (:attr:`injected_flits`, :attr:`ejected_flits`,
    :meth:`in_network_flits`) stay readable for invariant checks.
    """

    def __init__(
        self,
        topology: Topology,
        lanes: list[BatchLane],
        config: SimConfig | None = None,
        active_slots: list[int] | None = None,
    ):
        if not lanes:
            raise SimulationError("batch simulation needs at least one lane")
        self.topology = topology
        self.config = config or SimConfig()
        self.lanes = list(lanes)
        self.active_slots = (
            list(range(topology.num_slots))
            if active_slots is None
            else sorted(active_slots)
        )
        self.layout = _batch_layout(
            topology, self.active_slots, self.config.num_vcs
        )
        self._ran = False

    # ------------------------------------------------------------------
    def run(self) -> list[SimReport | SimulationError]:
        """Simulate every lane to the end of its protocol."""
        if self._ran:
            raise SimulationError("BatchSimulator.run is single-shot")
        self._ran = True
        start = time.perf_counter()
        self._setup()
        self._advance_all()
        self._finalize_counters()
        results = self._collect()
        # Observability (passive): gauge + retrospective span only; the
        # reports themselves are untouched.
        elapsed = time.perf_counter() - start
        cycles = sum(int(lane.cycles) for lane in self.lanes)
        if elapsed > 0:
            _CYCLES_PER_SEC.set(cycles / elapsed)
        obs_trace.emit(
            "batch.simulate", elapsed, lanes=len(self.lanes), cycles=cycles
        )
        return results

    # ------------------------------------------------------------------
    # construction of the flat lane-major state
    # ------------------------------------------------------------------
    def _setup(self) -> None:
        cfg = self.config
        lay = self.layout
        B = len(self.lanes)
        C = lay.num_channels
        S = len(self.active_slots)
        Ssw = lay.num_switches
        plen = cfg.packet_length_flits
        self.B, self.C, self.S, self.plen = B, C, S, plen
        BC = B * C

        slots = np.array(self.active_slots, dtype=np.int64)
        slot_index = {int(s): i for i, s in enumerate(slots)}

        # --- per-lane traffic schedules + packet tables
        self.lane_T = np.array([ln.cycles for ln in self.lanes],
                               dtype=np.int64)
        self.lane_error: list[SimulationError | None] = [None] * B
        schedules = []
        for b, lane in enumerate(self.lanes):
            sched = _precompute_traffic(lane, slots, slot_index, plen,
                                        cfg.seed)
            if sched.error is not None:
                self.lane_error[b] = sched.error
                self.lane_T[b] = 0
                sched = _LaneTraffic(np.empty(0, np.int64),
                                     np.empty(0, np.int64),
                                     np.empty(0, np.int64))
            schedules.append(sched)

        self.pkt_count = np.array([s.created.size for s in schedules],
                                  dtype=np.int64)
        P = max(1, int(self.pkt_count.max()))
        self.P = P
        self.pkt_created = np.full((B, P), _NEVER, dtype=np.int64)
        self.pkt_dst = np.zeros((B, P), dtype=np.int64)
        self.pkt_ejected = np.full((B, P), -1, dtype=np.int64)
        for b, s in enumerate(schedules):
            k = s.created.size
            if k:
                self.pkt_created[b, :k] = s.created
                self.pkt_dst[b, :k] = s.dst_slot
        self.pkt_dst_flat = self.pkt_dst.ravel()
        self.pkt_ejected_flat = self.pkt_ejected.ravel()

        # --- per-(lane, slot) source FIFOs (pids in creation order)
        counts = np.zeros((B, S), dtype=np.int64)
        for b, s in enumerate(schedules):
            if s.created.size:
                counts[b] = np.bincount(s.src_index, minlength=S)
        Q = max(1, int(counts.max())) + 1
        self.Q = Q
        fifo_pid = np.full((B, S, Q), -1, dtype=np.int64)
        fifo_created = np.full((B, S, Q), _NEVER, dtype=np.int64)
        for b, s in enumerate(schedules):
            if not s.created.size:
                continue
            order = np.argsort(s.src_index, kind="stable")
            src_sorted = s.src_index[order]
            starts = np.searchsorted(src_sorted, np.arange(S))
            ends = np.searchsorted(src_sorted, np.arange(S), side="right")
            for sl in range(S):
                seg = order[starts[sl]:ends[sl]]
                fifo_pid[b, sl, :seg.size] = seg
                fifo_created[b, sl, :seg.size] = s.created[seg]
        self.fifo_pid_flat = fifo_pid.ravel()
        self.fifo_created_flat = fifo_created.ravel()
        self.fifo_len = counts.ravel()              # (B*S,)
        self.src_head = np.zeros(B * S, dtype=np.int64)
        self.src_prog = np.zeros(B * S, dtype=np.int64)
        self.fifo_base = np.arange(B * S, dtype=np.int64) * Q
        # Incrementally maintained FIFO heads: creation cycle and pid of
        # each source's next uninjected packet (_NEVER when exhausted —
        # the sentinel rows in fifo_created provide it for free). Updated
        # only when a tail flit retires a packet, so the per-cycle
        # injection test is a single compare instead of a gather chain.
        self.next_created = self.fifo_created_flat[self.fifo_base].copy()
        self.next_pid = self.fifo_pid_flat[self.fifo_base].copy()

        # --- flat channel state (index = lane * C + channel)
        depth = cfg.buffer_depth_flits
        self.depth = depth
        self.q_buf = np.full(BC * depth, -1, dtype=np.int64)
        self.q_head = np.zeros(BC, dtype=np.int64)
        self.q_len = np.zeros(BC, dtype=np.int64)
        self.front_code = np.full(BC, -1, dtype=np.int64)
        self.in_request = np.full(BC, _FREE, dtype=np.int64)
        is_net = lay.chan_dest >= 0
        self.out_credits = np.tile(
            np.where(is_net, depth, _INFINITE_CREDITS).astype(np.int64), B
        )
        self.out_owner = np.full(BC, _FREE, dtype=np.int64)
        # Flit codes are unique per lane (pid * plen + k, pids never
        # reused), so the single "expected next code" per output replaces
        # an (owner input, owner pid) pair: a front matches iff it holds
        # exactly the owning stream's next flit.
        self.out_expected = np.full(BC, -1, dtype=np.int64)
        self.out_rr = np.zeros(BC, dtype=np.int64)
        # Ring arithmetic: queues and the event wheel use & mask instead
        # of % when their size is a power of two (the common case).
        self.dmask = depth - 1 if depth & (depth - 1) == 0 else None

        # --- precomputed flat index helpers
        lanes_arange = np.arange(B, dtype=np.int64)
        self.chan_dest_t = np.tile(lay.chan_dest, B)          # (BC,)
        self.chan_vc_t = np.tile(lay.chan_vc, B)
        self.chan_local_t = np.tile(np.arange(C, dtype=np.int64), B)
        self.chan_lane = np.repeat(lanes_arange, C)
        self.chan_lane_base = self.chan_lane * C
        self.chan_pkt_base = self.chan_lane * P
        self.chan_qbase = np.arange(BC, dtype=np.int64) * depth
        # lane * Ssw + dest_switch: one gather maps a forwarding channel
        # to its (lane, switch) load-histogram bin.
        self.chan_swflat = self.chan_lane * Ssw + self.chan_dest_t
        self.inj_ch_bs = (
            lanes_arange[:, None] * C + lay.inject_ch[None, :]
        ).ravel()                                             # (B*S,)
        self.slot_lane = np.repeat(lanes_arange, S)

        # --- degraded channels (fault overlays), mirroring Network
        degradations = getattr(self.topology, "channel_degradations", None)
        degradations = degradations() if callable(degradations) else None
        self.chan_period_t = None
        self.chan_extra_t = None
        self.free_at = None
        max_extra = 0
        if degradations:
            base = _kernel_layout(self.topology, self.active_slots,
                                  cfg.num_vcs)
            periods = np.ones(C, dtype=np.int64)
            extras = np.zeros(C, dtype=np.int64)
            for edge, (cap_factor, extra_latency) in degradations.items():
                first = base.edge_base.get(edge)
                if first is None:
                    continue
                period = max(1, round(1.0 / float(cap_factor)))
                for vc in range(cfg.num_vcs):
                    periods[first + vc] = period
                    extras[first + vc] = int(extra_latency)
            if (periods != 1).any() or extras.any():
                self.chan_period_t = np.tile(periods, B)
                self.chan_extra_t = np.tile(extras, B)
                self.free_at = np.zeros(BC, dtype=np.int64)
                max_extra = int(extras.max())

        # --- event wheel: one list of (flat channel ids, codes) pairs
        # per future cycle slot. Offsets never exceed horizon - 1, so a
        # slot is always fully drained before it is refilled. Only
        # switch-bound flits ride the wheel: ejection at a terminal is a
        # pure sink (no queue, no credits, no feedback), so terminal
        # deliveries accumulate as (channels, codes, when) triples and
        # are tallied wholesale after the loop.
        self.forward_delay = cfg.link_latency + cfg.switch_latency
        self.H = self.forward_delay + 1 + max_extra
        self.wheel: list[list] = [[] for _ in range(self.H)]
        self.eject_events: list[tuple] = []
        self._inj_pending: list[np.ndarray] = []
        self._postmortem_flits = np.zeros(B, dtype=np.int64)

        # Cumulative packet creations per cycle (all lanes): the cheap
        # scalar gate that skips the injection phase while no source
        # holds an uninjected packet.
        T_all = int(self.lane_T.max()) if B else 0
        by_cycle = np.zeros(max(T_all, 1) + 1, dtype=np.int64)
        for s in schedules:
            if s.created.size:
                by_cycle += np.bincount(s.created, minlength=T_all + 1)
        self.cum_create = np.cumsum(by_cycle).tolist()

        # --- measurement counters
        self.injected_flits = np.zeros(B, dtype=np.int64)
        self.ejected_flits = np.zeros(B, dtype=np.int64)
        self.switch_flits = np.zeros((B, Ssw), dtype=np.int64)
        self.switch_flits_flat = self.switch_flits.ravel()
        self.loads_before = np.zeros_like(self.switch_flits)
        self.loads_after = np.zeros_like(self.switch_flits)

        self.live = self.lane_T > 0
        self.live_chan = np.repeat(self.live, C)
        self.live_slot = np.repeat(self.live, S)

        self._snap_before: dict[int, list[int]] = {}
        self._snap_after: dict[int, list[int]] = {}
        self._retire: dict[int, list[int]] = {}
        for b, lane in enumerate(self.lanes):
            if not self.live[b]:
                continue
            self._snap_before.setdefault(lane.warmup, []).append(b)
            self._snap_after.setdefault(
                lane.warmup + lane.measure, []).append(b)
            self._retire.setdefault(lane.cycles + 1, []).append(b)
        # warmup == 0 snapshots happen before the loop (all-zero loads).
        self._snap_before.pop(0, None)
        self._snap_after.pop(0, None)

        digests = [
            _lane_digest(cfg.seed, ln.traffic_seed, ln.pattern, ln.rate)
            for ln in self.lanes
        ]
        self.route_key_t = np.repeat(np.array(
            [int.from_bytes(d[16:24], "little") for d in digests],
            dtype=np.uint64,
        ), C)

    # ------------------------------------------------------------------
    def _kill_lane(self, b: int) -> None:
        """Freeze a lane mid-run (retired, or failed on a route error)."""
        C, S = self.C, self.S
        self.live[b] = False
        self.live_chan[b * C:(b + 1) * C] = False
        self.live_slot[b * S:(b + 1) * S] = False
        # Clearing the fronts removes the lane from the per-cycle front
        # scan; queue lengths stay readable for conservation accounting.
        # _NEVER heads drop the lane's sources from the injection test.
        self.front_code[b * C:(b + 1) * C] = -1
        self.next_created[b * S:(b + 1) * S] = _NEVER

    # ------------------------------------------------------------------
    # the lockstep cycle loop
    # ------------------------------------------------------------------
    def _advance_all(self) -> None:
        lay = self.layout
        B, plen = self.B, self.plen
        depth = self.depth
        H = self.H
        plen_m1 = plen - 1
        link_latency = self.config.link_latency
        forward_delay = self.forward_delay
        route_n, route_first = lay.route_n, lay.route_first
        cand_vc0, cand_vc1 = lay.cand_vc0, lay.cand_vc1
        has_adaptive = lay.has_adaptive
        chan_dest_t = self.chan_dest_t
        chan_vc_t = self.chan_vc_t
        chan_local_t = self.chan_local_t
        chan_lane = self.chan_lane
        chan_lane_base = self.chan_lane_base
        chan_pkt_base = self.chan_pkt_base
        chan_qbase = self.chan_qbase
        chan_swflat = self.chan_swflat
        q_buf, q_head, q_len = self.q_buf, self.q_head, self.q_len
        front_code = self.front_code
        in_request = self.in_request
        out_credits, out_owner = self.out_credits, self.out_owner
        out_expected, out_rr = self.out_expected, self.out_rr
        dmask = self.dmask
        wheel = self.wheel
        eject_events = self.eject_events
        inj_pending = self._inj_pending
        pkt_dst_flat = self.pkt_dst_flat
        fifo_pid_flat = self.fifo_pid_flat
        fifo_created_flat = self.fifo_created_flat
        fifo_base = self.fifo_base
        src_head, src_prog = self.src_head, self.src_prog
        next_created, next_pid = self.next_created, self.next_pid
        inj_ch_bs = self.inj_ch_bs
        slot_lane = self.slot_lane
        switch_flits_flat = self.switch_flits_flat
        live_chan = self.live_chan
        route_key_t = self.route_key_t
        chan_period_t = self.chan_period_t
        chan_extra_t = self.chan_extra_t
        free_at = self.free_at
        degraded = chan_period_t is not None
        Ssw = lay.num_switches
        BSsw = B * Ssw
        cum_create = self.cum_create
        snap_before, snap_after = self._snap_before, self._snap_after
        retire = self._retire

        live_count = int(self.live.sum())
        T_max = int(self.lane_T.max()) if live_count else 0
        queued = 0             # flits sitting in switch input queues
        consumed = 0           # packets fully injected so far
        credit_pending = None  # input channels credited back next cycle
        sw_pending: list[np.ndarray] = []  # deferred switch-load tallies
        # Masking is only needed once lanes diverge (a lane retired or
        # failed mid-run); until then every row is live.
        masked = live_count != B

        for t in range(1, T_max + 1):
            if t in retire:
                for b in retire[t]:
                    self._kill_lane(b)
                    live_count -= 1
                masked = True
                if not live_count:
                    break

            # --- apply credits sent last cycle
            if credit_pending is not None:
                out_credits[credit_pending] += 1
                credit_pending = None

            # --- deliver this cycle's switch-bound arrivals
            events = wheel[t % H]
            if events:
                wheel[t % H] = []
                if len(events) == 1:
                    idx, codes = events[0]
                else:
                    idx = np.concatenate([e[0] for e in events])
                    codes = np.concatenate([e[1] for e in events])
                if masked:
                    keep = live_chan[idx]
                    if not keep.all():
                        idx, codes = idx[keep], codes[keep]
                if idx.size:
                    qh = q_head[idx]
                    ql = q_len[idx]
                    if dmask is not None:
                        pos = (qh + ql) & dmask
                    else:
                        pos = (qh + ql) % depth
                    q_buf[chan_qbase[idx] + pos] = codes
                    q_len[idx] = ql + 1
                    was_empty = ql == 0
                    front_code[idx[was_empty]] = codes[was_empty]
                    queued += int(idx.size)

            # --- switch phases over occupied channel fronts
            if queued:
                af = np.flatnonzero(front_code >= 0)
            else:
                af = None
            if af is not None and af.size:
                fcode = front_code[af]
                ishead = fcode % plen == 0
                freq = in_request[af]

                # Phase A: route requests for fresh head flits.
                need = np.flatnonzero(ishead & (freq < 0))
                if need.size:
                    na = af[need]
                    pid_n = fcode[need] // plen
                    si = chan_dest_t[na]
                    dst = pkt_dst_flat[chan_pkt_base[na] + pid_n]
                    n = route_n[si, dst]
                    filtered = not n.all()
                    if filtered:
                        bad = n == 0
                        for ch, s, d in zip(na[bad], si[bad], dst[bad]):
                            b = int(chan_lane[ch])
                            if self.lane_error[b] is None:
                                self.lane_error[b] = (
                                    UnsupportedRoutingError(
                                        f"no route from "
                                        f"{lay.switch_names[int(s)]} to "
                                        f"slot {int(d)}"
                                    )
                                )
                            if self.live[b]:
                                self._kill_lane(b)
                                live_count -= 1
                        masked = True
                        ok = ~bad
                        na, si, dst, n = na[ok], si[ok], dst[ok], n[ok]
                        if not live_count:
                            break
                    if na.size:
                        sel = route_first[si, dst]
                        if has_adaptive:
                            multi = n > 1
                            if multi.any():
                                # Wraparound is the point of the golden
                                # -ratio stride, so fold t in Python
                                # ints (numpy warns on scalar uint64
                                # overflow, unlike array ops).
                                t_hash = np.uint64(
                                    (t * int(_T_STRIDE))
                                    & 0xFFFFFFFFFFFFFFFF
                                )
                                r = _mix64(
                                    route_key_t[na]
                                    ^ t_hash
                                    ^ (chan_local_t[na].astype(np.uint64)
                                       * _C_STRIDE)
                                )
                                sel = sel + np.where(
                                    multi,
                                    (r % n.astype(np.uint64)).astype(
                                        np.int64),
                                    0,
                                )
                        rqf = chan_lane_base[na] + np.where(
                            chan_vc_t[na] == 0, cand_vc0[sel],
                            cand_vc1[sel],
                        )
                        in_request[na] = rqf
                        if filtered:
                            freq = in_request[af]  # full refresh
                        else:
                            freq[need] = rqf  # patch the sparse copy

                # Phase B: round-robin arbitration per free output.
                have = freq >= 0
                ia = np.flatnonzero(ishead & have)
                if ia.size:
                    arq = freq[ia]
                    is_free = np.flatnonzero(out_owner[arq] == _FREE)
                    if is_free.size:
                        ia = ia[is_free]
                        arq = arq[is_free]
                        aidx = af[ia]
                        acode = fcode[ia]
                        # Flat request ids embed the lane, so one stable
                        # sort groups contenders per (lane, output) in
                        # ascending input-channel order — the exact
                        # kernel's scan order.
                        order = np.argsort(arq, kind="stable")
                        ks = arq[order]
                        first = np.empty(ks.size, dtype=bool)
                        first[0] = True
                        np.not_equal(ks[1:], ks[:-1], out=first[1:])
                        starts = np.flatnonzero(first)
                        counts = np.empty(starts.size, dtype=np.int64)
                        counts[:-1] = starts[1:] - starts[:-1]
                        counts[-1] = ks.size - starts[-1]
                        grq = ks[starts]
                        rr = out_rr[grq]
                        winners = order[starts + (rr % counts)]
                        out_owner[grq] = aidx[winners]
                        out_expected[grq] = acode[winners]
                        out_rr[grq] = rr + 1

                # Phase C: forward one flit per owned output with credit.
                hv = np.flatnonzero(have)
                if hv.size:
                    rqc = freq[hv]
                    # The front that holds exactly the owning stream's
                    # next flit is (uniquely) allowed to forward.
                    ok = (
                        (out_expected[rqc] == fcode[hv])
                        & (out_credits[rqc] > 0)
                    )
                    if degraded:
                        ok &= free_at[rqc] <= t
                    w = np.flatnonzero(ok)
                    if w.size:
                        sel = hv[w]
                        fidx = af[sel]
                        frq = rqc[w]
                        code = fcode[sel]
                        if dmask is not None:
                            qh = (q_head[fidx] + 1) & dmask
                        else:
                            qh = (q_head[fidx] + 1) % depth
                        q_head[fidx] = qh
                        ql = q_len[fidx] - 1
                        q_len[fidx] = ql
                        nf = q_buf[chan_qbase[fidx] + qh]
                        nf[ql == 0] = -1
                        front_code[fidx] = nf
                        queued -= int(fidx.size)
                        out_credits[frq] -= 1
                        out_expected[frq] = code + 1
                        sw_pending.append(chan_swflat[fidx])
                        extra = None
                        if degraded:
                            free_at[frq] = t + chan_period_t[frq]
                            extra = chan_extra_t[frq]
                            if not extra.any():
                                extra = None
                        term = chan_dest_t[frq] < 0
                        if term.any():
                            eject_events.append((
                                frq[term], code[term],
                                t + forward_delay + (
                                    extra[term] if extra is not None
                                    else 0
                                ),
                            ))
                            fwd = ~term
                            frq_n, code_n = frq[fwd], code[fwd]
                            if extra is not None:
                                extra = extra[fwd]
                        else:
                            frq_n, code_n = frq, code
                        if frq_n.size:
                            if extra is not None and extra.any():
                                for off in np.unique(extra):
                                    sub = extra == off
                                    wheel[
                                        (t + forward_delay + int(off)) % H
                                    ].append((frq_n[sub], code_n[sub]))
                            else:
                                wheel[(t + forward_delay) % H].append(
                                    (frq_n, code_n))
                        credit_pending = fidx
                        tail = code % plen == plen_m1
                        trq = frq[tail]
                        if trq.size:
                            out_owner[trq] = _FREE
                            out_expected[trq] = -1
                            in_request[fidx[tail]] = -1

            # --- inject from source FIFOs (packets created before t)
            if cum_create[t - 1] > consumed:
                ii = np.flatnonzero(next_created < t)
            else:
                ii = None
            if ii is not None and ii.size:
                pids = next_pid[ii]
                ch = inj_ch_bs[ii]
                prog = src_prog[ii]
                code = pids * plen + prog
                lockm = (prog == 0) & (out_owner[ch] == _FREE)
                lch = ch[lockm]
                if lch.size:
                    out_owner[lch] = _SOURCE
                    out_expected[lch] = code[lockm]
                can_inj = np.flatnonzero(
                    (out_expected[ch] == code)
                    & (out_credits[ch] > 0)
                )
                if can_inj.size:
                    js = ii[can_inj]
                    jch = ch[can_inj]
                    jp = prog[can_inj]
                    jcode = code[can_inj]
                    out_credits[jch] -= 1
                    out_expected[jch] = jcode + 1
                    inj_pending.append(slot_lane[js])
                    wheel[(t + link_latency) % H].append((jch, jcode))
                    tail = jp == plen_m1
                    jp1 = jp + 1
                    jp1[tail] = 0
                    src_prog[js] = jp1
                    ts = js[tail]
                    if ts.size:
                        tch = jch[tail]
                        src_head[ts] += 1
                        out_owner[tch] = _FREE
                        out_expected[tch] = -1
                        nb = fifo_base[ts] + src_head[ts]
                        next_created[ts] = fifo_created_flat[nb]
                        next_pid[ts] = fifo_pid_flat[nb]
                        consumed += int(ts.size)

            # --- per-lane measurement snapshots (flush deferred switch
            # tallies only when a lane's window boundary lands here)
            if t in snap_before or t in snap_after:
                if sw_pending:
                    switch_flits_flat += np.bincount(
                        np.concatenate(sw_pending), minlength=BSsw)
                    sw_pending.clear()
                if t in snap_before:
                    idx = snap_before[t]
                    self.loads_before[idx] = self.switch_flits[idx]
                if t in snap_after:
                    idx = snap_after[t]
                    self.loads_after[idx] = self.switch_flits[idx]

    # ------------------------------------------------------------------
    def _finalize_counters(self) -> None:
        """Tally the deferred sinks once, after the cycle loop.

        Ejection has no feedback into the simulation, so terminal
        deliveries were only *recorded* during the loop; here they are
        validated against each lane's own end-of-run cycle (a lane that
        retired at ``T`` never sees flits landing after ``T``) and
        folded into the per-lane counters and packet eject times.
        """
        B, plen = self.B, self.plen
        if self._inj_pending:
            self.injected_flits += np.bincount(
                np.concatenate(self._inj_pending), minlength=B)
            self._inj_pending.clear()
        if not self.eject_events:
            return
        idx = np.concatenate([e[0] for e in self.eject_events])
        codes = np.concatenate([e[1] for e in self.eject_events])
        whens = np.concatenate([
            e[2] if isinstance(e[2], np.ndarray)
            else np.full(e[0].size, e[2], dtype=np.int64)
            for e in self.eject_events
        ])
        self.eject_events.clear()
        lanes = idx // self.C
        valid = whens <= self.lane_T[lanes]
        if not valid.all():
            # Flits that would have landed after their lane's last
            # simulated cycle stay "in the network" for conservation.
            self._postmortem_flits += np.bincount(
                lanes[~valid], minlength=B)
            idx, codes = idx[valid], codes[valid]
            whens, lanes = whens[valid], lanes[valid]
        self.ejected_flits += np.bincount(lanes, minlength=B)
        tails = codes % plen == plen - 1
        self.pkt_ejected_flat[
            self.chan_pkt_base[idx[tails]] + codes[tails] // plen
        ] = whens[tails]

    # ------------------------------------------------------------------
    # statistics (formulas identical to stats.run_measurement)
    # ------------------------------------------------------------------
    def _collect(self) -> list[SimReport | SimulationError]:
        labels = self.layout.switch_labels
        results: list[SimReport | SimulationError] = []
        for b, lane in enumerate(self.lanes):
            err = self.lane_error[b]
            if err is not None:
                results.append(err)
                continue
            P = int(self.pkt_count[b])
            created = self.pkt_created[b, :P]
            ejected = self.pkt_ejected[b, :P]
            start, end = lane.warmup, lane.warmup + lane.measure
            window = (created >= start) & (created < end)
            delivered = window & (ejected >= 0)
            latencies = [
                int(v) for v in (ejected[delivered] - created[delivered])
            ]
            n_created = int(window.sum())
            n_window = int(delivered.sum())
            diffs = self.loads_after[b] - self.loads_before[b]
            switch_loads = tuple(
                sorted(zip(labels, (int(d) for d in diffs)))
            )
            results.append(SimReport(
                cycles=lane.cycles,
                offered_rate=lane.rate,
                measured_packets=n_window,
                delivered_fraction=(
                    (n_window / n_created) if n_created else 1.0
                ),
                avg_latency=(
                    statistics.fmean(latencies) if latencies
                    else float("inf")
                ),
                p95_latency=(
                    _quantile(latencies, 0.95) if latencies
                    else float("inf")
                ),
                min_latency=min(latencies) if latencies else float("inf"),
                throughput_flits_per_cycle=(
                    int(self.ejected_flits[b]) / max(1, lane.cycles)
                ),
                switch_loads=switch_loads,
            ))
        return results

    # ------------------------------------------------------------------
    # conservation accounting (read by the equivalence suite)
    # ------------------------------------------------------------------
    def in_network_flits(self) -> np.ndarray:
        """Flits per lane still inside the network after the run.

        Queued in switch input buffers plus in flight on the arrival
        wheel; together with the ejected count this must exactly equal
        every flit ever injected (asserted by the equivalence tests).
        """
        queued = self.q_len.reshape(self.B, self.C).sum(axis=1)
        in_flight = np.zeros(self.B, dtype=np.int64)
        for slot_events in self.wheel:
            for idx, _codes in slot_events:
                in_flight += np.bincount(
                    self.chan_lane[idx], minlength=self.B)
        return queued + in_flight + self._postmortem_flits


def simulate_batch(
    points,
    config: SimConfig | None = None,
    active_slots: list[int] | None = None,
) -> list[SimReport | SimulationError]:
    """Run many same-topology campaign points as one batch.

    ``points`` duck-types :class:`~repro.engine.jobs.SimulationJob` —
    each needs ``pattern``, ``rate``, ``traffic_seed``, the
    warmup/measure/drain protocol, and the optional app-traffic fields.
    All points must share one topology, simulator config and active-slot
    set (the engine's batch job builder groups them that way); the
    shared values default to the first point's.

    Returns one entry per point, in order: a
    :class:`~repro.simulation.stats.SimReport`, or the
    :class:`~repro.errors.SimulationError` that disqualified just that
    lane (unvectorizable pattern, no route) while the rest of the batch
    completed.
    """
    points = list(points)
    if not points:
        return []
    first = points[0]
    topology = first.topology
    if config is None:
        config = first.sim or SimConfig()
    if active_slots is None and first.active_slots is not None:
        active_slots = list(first.active_slots)
    for p in points[1:]:
        if p.topology is not topology:
            raise SimulationError(
                "simulate_batch points must share one topology object; "
                "group campaign points per fabric before batching"
            )
        if (p.sim or SimConfig()) != config:
            raise SimulationError(
                "simulate_batch points must share one simulator config"
            )
        if (
            None if p.active_slots is None else list(p.active_slots)
        ) != active_slots:
            raise SimulationError(
                "simulate_batch points must share one active-slot set"
            )
    lanes = [
        BatchLane(
            pattern=p.pattern,
            rate=p.rate,
            traffic_seed=p.traffic_seed,
            warmup=p.warmup,
            measure=p.measure,
            drain=p.drain,
            core_graph=p.core_graph,
            assignment=p.assignment,
            flit_width_bits=p.flit_width_bits,
            clock_mhz=p.clock_mhz,
        )
        for p in points
    ]
    return BatchSimulator(
        topology, lanes, config=config, active_slots=active_slots
    ).run()
