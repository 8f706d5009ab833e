"""Netlist construction: from a mapped topology to xpipes instances.

The netlist is the bridge between SUNMAP's abstract result (topology +
mapping + floorplan) and the generated SystemC: one switch instance per
(used) switch, one network interface per core, one pipelined link per
topology edge between instantiated endpoints.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field

from repro.core.coregraph import CoreGraph
from repro.errors import GenerationError
from repro.physical.technology import TECH_100NM, Technology
from repro.topology.base import Topology, term
from repro.xpipes.components import (
    LinkSpec,
    NISpec,
    SwitchSpec,
    pipeline_stages_for_length,
)


def _sanitize(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]", "_", text)


@dataclass
class Netlist:
    """A complete xpipes design."""

    design_name: str
    switches: list[SwitchSpec] = field(default_factory=list)
    nis: list[NISpec] = field(default_factory=list)
    links: list[LinkSpec] = field(default_factory=list)
    #: topology-graph node -> instance name
    node_instance: dict = field(default_factory=dict)

    def instance_ports(self) -> dict[str, tuple[int, int]]:
        """Declared (in, out) port counts per instance."""
        ports = {s.instance: (s.n_in, s.n_out) for s in self.switches}
        ports.update({ni.instance: (1, 1) for ni in self.nis})
        return ports

    def validate(self) -> None:
        """Structural consistency: ports exist and are used at most once."""
        ports = self.instance_ports()
        used_in: set[tuple[str, int]] = set()
        used_out: set[tuple[str, int]] = set()
        for link in self.links:
            if link.src_instance not in ports:
                raise GenerationError(f"{link.instance}: unknown source")
            if link.dst_instance not in ports:
                raise GenerationError(f"{link.instance}: unknown sink")
            if not 0 <= link.src_port < ports[link.src_instance][1]:
                raise GenerationError(f"{link.instance}: bad source port")
            if not 0 <= link.dst_port < ports[link.dst_instance][0]:
                raise GenerationError(f"{link.instance}: bad sink port")
            okey = (link.src_instance, link.src_port)
            ikey = (link.dst_instance, link.dst_port)
            if okey in used_out:
                raise GenerationError(f"output port reused: {okey}")
            if ikey in used_in:
                raise GenerationError(f"input port reused: {ikey}")
            used_out.add(okey)
            used_in.add(ikey)
        names = [s.instance for s in self.switches] + [n.instance for n in self.nis]
        if len(set(names)) != len(names):
            raise GenerationError("duplicate instance names")

    def to_json(self) -> str:
        payload = {
            "design": self.design_name,
            "switches": [asdict(s) for s in self.switches],
            "network_interfaces": [asdict(n) for n in self.nis],
            "links": [asdict(link) for link in self.links],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def build_netlist(
    core_graph: CoreGraph,
    topology: Topology,
    assignment: dict[int, int],
    lengths_mm: dict | None = None,
    used_switches: set | None = None,
    tech: Technology = TECH_100NM,
    design_name: str | None = None,
) -> Netlist:
    """Instantiate the chosen network (Figure 4, phase 3).

    Args:
        assignment: core index -> terminal slot.
        lengths_mm: floorplanned link lengths (drives link pipelining);
            nominal lengths are used when absent.
        used_switches: optional pruning set for multistage topologies.
    """
    netlist = Netlist(design_name or f"{core_graph.name}_{topology.name}")

    switches = topology.switches
    if used_switches is not None:
        switches = [sw for sw in switches if sw in used_switches]

    for sw in sorted(switches, key=repr):
        n_in, n_out = topology.switch_ports(sw)
        name = f"sw_{_sanitize(str(sw[1]))}"
        netlist.switches.append(
            SwitchSpec(
                instance=name,
                n_in=n_in,
                n_out=n_out,
                flit_width_bits=tech.flit_width_bits,
                buffer_depth_flits=tech.buffer_depth_flits,
            )
        )
        netlist.node_instance[sw] = name

    for core_index, slot in sorted(assignment.items()):
        core = core_graph.core(core_index)
        name = f"ni_{_sanitize(core.name)}"
        netlist.nis.append(
            NISpec(
                instance=name,
                core_name=core.name,
                flit_width_bits=tech.flit_width_bits,
            )
        )
        netlist.node_instance[term(slot)] = name

    # Port numbering: stable sort of each switch's graph edges. A fat
    # link (``mult`` channels) reserves one port per physical channel.
    graph = topology.graph
    in_port: dict[tuple, int] = {}
    out_port: dict[tuple, int] = {}
    for sw in switches:
        idx = 0
        for edge in sorted(((u, sw) for u in graph.predecessors(sw)), key=repr):
            in_port[edge] = idx
            idx += int(graph.attrs(*edge).get("mult", 1))
        idx = 0
        for edge in sorted(((sw, v) for v in graph.successors(sw)), key=repr):
            out_port[edge] = idx
            idx += int(graph.attrs(*edge).get("mult", 1))

    link_id = 0
    for u, v, data in sorted(graph.edges(data=True), key=repr):
        src = netlist.node_instance.get(u)
        dst = netlist.node_instance.get(v)
        if src is None or dst is None:
            continue  # unmapped terminal or pruned switch
        if lengths_mm is not None and (u, v) in lengths_mm:
            length = lengths_mm[(u, v)]
        else:
            length = data["length"]
        # One pipelined link instance per physical channel.
        for channel in range(int(data.get("mult", 1))):
            netlist.links.append(
                LinkSpec(
                    instance=f"link_{link_id}",
                    src_instance=src,
                    src_port=out_port.get((u, v), 0) + channel,
                    dst_instance=dst,
                    dst_port=in_port.get((u, v), 0) + channel,
                    flit_width_bits=tech.flit_width_bits,
                    length_mm=round(float(length), 3),
                    pipeline_stages=pipeline_stages_for_length(float(length)),
                )
            )
            link_id += 1

    netlist.validate()
    return netlist
