"""Network-level area and power estimation.

Bridges the per-switch analytical models to whole-design numbers: given a
topology, a routing result (which switch/link carries how much traffic)
and physical link lengths, produce the "des area" / "des pow" columns of
the paper's tables (Figures 3(d), 6(c,d), 7(b), 8(c,d)).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.physical.library import AreaPowerLibrary
from repro.physical.link_power import link_leakage_power_mw
from repro.physical.switch_area import SwitchConfig, channel_area_mm2
from repro.physical.switch_power import BITS_PER_MB
from repro.physical.technology import TECH_100NM, Technology
from repro.routing.base import RoutingResult
from repro.routing.loads import edge_index
from repro.topology.base import SW, Topology, is_switch


@dataclass
class PowerBreakdown:
    """Network power split by mechanism (all mW)."""

    switch_dynamic: float = 0.0
    link_dynamic: float = 0.0
    clock: float = 0.0
    leakage: float = 0.0

    @property
    def total_mw(self) -> float:
        return self.switch_dynamic + self.link_dynamic + self.clock + self.leakage


def switch_config(topology: Topology, sw, tech: Technology) -> SwitchConfig:
    """The configuration of switch ``sw``: its port counts at the
    technology's flit width and buffer depth."""
    n_in, n_out = topology.switch_ports(sw)
    return SwitchConfig(
        n_in=n_in,
        n_out=n_out,
        flit_width_bits=tech.flit_width_bits,
        buffer_depth_flits=tech.buffer_depth_flits,
    )


class NetworkEstimator:
    """Computes network area/power for an evaluated mapping."""

    def __init__(self, tech: Technology = TECH_100NM):
        self.tech = tech
        self.library = AreaPowerLibrary(tech)

    # ------------------------------------------------------------------
    def _physical_tables(self, topology: Topology) -> tuple[dict, dict]:
        """Per-topology lookup tables for the power/area walks.

        Returns ``(entry_by_switch, nominal_length_by_edge)``: the
        library entry of every switch and the nominal ``length``
        attribute of every edge. Both depend only on the topology and
        the technology point, so they are kept in the topology's
        ``derived("physical")`` table, keyed by technology — topologies
        outlive estimator instances (and estimators get re-created per
        engine job).
        """
        cache = topology.derived("physical")
        key = (type(self).__name__, self.tech)
        tables = cache.get(key)
        if tables is None:
            entries = {
                sw: self.library.entry(switch_config(topology, sw, self.tech))
                for sw in topology.switches
            }
            lengths = {
                (u, v): d["length"]
                for u, v, d in topology.graph.edges(data=True)
            }
            tables = cache[key] = (entries, lengths)
        return tables

    def used_switches(
        self, topology: Topology, result: RoutingResult | None
    ) -> set:
        """Switches that must be instantiated, as a set (its order varies
        with the hash seed: sums run over ``topology.switches`` by it).

        Direct topologies instantiate every switch (each hosts a core
        slot); multistage topologies prune switches no route touches —
        the paper's DSP butterfly keeps 4 of 6 switches (Fig. 10(b)).
        """
        if topology.kind == "direct" or result is None:
            return set(topology.switches)
        return {
            node
            for path in result.all_paths()
            for node in path
            if is_switch(node)
        }

    # ------------------------------------------------------------------
    def _wire_energy_by_id(
        self, topology: Topology, lengths_mm: dict | None, pitch_mm: float
    ) -> list[float]:
        """Per edge id, ``link_energy * length`` (pJ/bit) with the
        floorplanned length when known, else the nominal one.

        The nominal table depends only on (topology, tech, pitch), so it
        is kept beside the physical tables.
        """
        cache = None
        if lengths_mm is None:
            cache = topology.derived("physical")
            key = ("wire", type(self).__name__, self.tech, pitch_mm)
            wire = cache.get(key)
            if wire is not None:
                return wire
        _, nominal = self._physical_tables(topology)
        link_energy = self.tech.link_energy_pj_per_bit_mm
        wire = []
        for edge in edge_index(topology)[1]:
            if lengths_mm is not None and edge in lengths_mm:
                length = lengths_mm[edge]
            else:
                length = nominal[edge] * pitch_mm
            wire.append(link_energy * length)
        if cache is not None:
            cache[key] = wire
        return wire

    def _head_energy_by_id(self, topology: Topology) -> list:
        """Per edge id, the switching energy (pJ/bit) of the edge's head
        switch, or ``None`` when the head is a terminal."""
        cache = topology.derived("physical")
        key = ("head", type(self).__name__, self.tech)
        heads = cache.get(key)
        if heads is None:
            entries, _ = self._physical_tables(topology)
            heads = cache[key] = [
                entries[v].energy_pj_per_bit if v[0] == SW else None
                for _, v in edge_index(topology)[1]
            ]
        return heads

    def dynamic_power_terms(
        self,
        topology: Topology,
        routed,
        lengths_mm: dict | None = None,
        pitch_mm: float = 2.0,
    ) -> tuple[float, float]:
        """Accumulate switch/link dynamic power over routed commodities.

        Walks every path of ``routed`` (an iterable of
        :class:`~repro.routing.base.RoutedCommodity`) by edge id,
        charging switch and wire energy per bit (Section 5: "power
        dissipation for the switches and links are calculated based on
        the average traffic"). A path starts at a terminal, so its
        switches are the heads of its edges, in path order. The wire
        term inlines link_dynamic_power_mw with the identical operation
        order (bit-identical floats).

        Accumulation is two-level — each commodity's terms fold into a
        per-commodity subtotal (starting at 0.0) which is then added to
        the running total; the golden power figures pin that order.
        """
        heads = self._head_energy_by_id(topology)
        wire = self._wire_energy_by_id(topology, lengths_mm, pitch_mm)
        ids = edge_index(topology)[0]
        switch_dynamic = 0.0
        link_dynamic = 0.0
        for rc in routed:
            rc_switch = 0.0
            rc_link = 0.0
            edge_ids = rc.edge_ids
            for i, (path, bw) in enumerate(rc.paths):
                eids = (
                    edge_ids[i] if edge_ids is not None
                    else [ids[edge] for edge in zip(path, path[1:])]
                )
                bits_per_s = bw * BITS_PER_MB
                for eid in eids:
                    energy = heads[eid]
                    if energy is not None:
                        rc_switch += bits_per_s * energy * 1e-9
                    rc_link += bits_per_s * wire[eid] * 1e-12 * 1e3
            switch_dynamic += rc_switch
            link_dynamic += rc_link
        return switch_dynamic, link_dynamic

    def static_power_terms(
        self,
        topology: Topology,
        result: RoutingResult,
        lengths_mm: dict | None = None,
        pitch_mm: float = 2.0,
    ) -> tuple[float, float]:
        """(clock, leakage) mW over instantiated switches and channels.

        Every instantiated switch clocks and leaks, and instantiated
        channels leak through their repeaters. For direct topologies
        with nominal lengths this is mapping-independent (every switch
        hosts a slot), so the two loops' results are kept per
        (estimator type, tech, pitch) in the topology's
        ``derived("physical")`` table — computed once by the exact
        legacy accumulation order.
        """
        tech = self.tech
        static_cache = None
        static_key = None
        if topology.kind == "direct" and lengths_mm is None:
            static_cache = topology.derived("physical")
            static_key = ("static", type(self).__name__, tech, pitch_mm)
            cached = static_cache.get(static_key)
            if cached is not None:
                return cached
        entries, nominal = self._physical_tables(topology)
        used = self.used_switches(topology, result)
        clock = 0.0
        leakage = 0.0
        for sw in filter(used.__contains__, topology.switches):
            entry = entries[sw]
            clock += (
                tech.clock_power_mw_per_port
                * (entry.config.n_in + entry.config.n_out)
                / 2.0
            )
            leakage += tech.leakage_mw_per_mm2 * entry.area_mm2
        # Link repeater leakage over instantiated channels; every
        # parallel physical channel of a fat link leaks independently.
        mults = topology.channel_multiplicities()
        for u, v in topology.net_edges():
            if u in used and v in used:
                if lengths_mm is not None and (u, v) in lengths_mm:
                    length = lengths_mm[(u, v)]
                else:
                    length = nominal[(u, v)] * pitch_mm
                m = mults.get((u, v), 1) if mults else 1
                leakage += link_leakage_power_mw(length, tech) * m
        if static_cache is not None:
            static_cache[static_key] = (clock, leakage)
        return clock, leakage

    def network_power_mw(
        self,
        topology: Topology,
        result: RoutingResult,
        lengths_mm: dict | None = None,
        pitch_mm: float = 2.0,
    ) -> PowerBreakdown:
        """Total network power for a routed mapping.

        Args:
            lengths_mm: optional ``{(u, v): mm}`` floorplanned lengths.
            pitch_mm: tile pitch used with nominal lengths when a link is
                not in ``lengths_mm``.
        """
        breakdown = PowerBreakdown()
        breakdown.switch_dynamic, breakdown.link_dynamic = (
            self.dynamic_power_terms(
                topology, result.routed, lengths_mm, pitch_mm
            )
        )
        breakdown.clock, breakdown.leakage = self.static_power_terms(
            topology, result, lengths_mm, pitch_mm
        )
        return breakdown

    # ------------------------------------------------------------------
    def switches_area_mm2(
        self, topology: Topology, result: RoutingResult | None = None
    ) -> float:
        """Total silicon area of the instantiated switches."""
        entries, _ = self._physical_tables(topology)
        used = self.used_switches(topology, result)
        return sum(
            entries[sw].area_mm2
            for sw in filter(used.__contains__, topology.switches)
        )

    def channels_area_mm2(
        self,
        topology: Topology,
        result: RoutingResult | None = None,
        lengths_mm: dict | None = None,
        pitch_mm: float = 2.0,
    ) -> float:
        """Total wiring area of the instantiated inter-switch channels.

        A fat link instantiates one physical channel per unit of its
        multiplicity, so its wiring area scales accordingly.
        """
        _, nominal = self._physical_tables(topology)
        used = self.used_switches(topology, result)
        mults = topology.channel_multiplicities()
        total = 0.0
        for u, v in topology.net_edges():
            if u in used and v in used:
                if lengths_mm is not None and (u, v) in lengths_mm:
                    length = lengths_mm[(u, v)]
                else:
                    length = nominal[(u, v)] * pitch_mm
                m = mults.get((u, v), 1) if mults else 1
                total += channel_area_mm2(
                    length, self.tech.flit_width_bits, self.tech
                ) * m
        return total
