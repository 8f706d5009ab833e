"""Relative block positions from a topology and a mapping.

"For a particular mapping that needs to be evaluated for
area-power-latency, the relative positions of the cores and switches are
known. Thus the floorplanning problem is reduced to the one of finding
the exact positions and sizes" (Section 5). This module computes those
relative positions as an ordered *column structure*: a list of columns
(left to right), each an ordered list of blocks (bottom to top), which is
exactly the partial order the LP floorplanner consumes.

Direct topologies use their natural grid (core and switch share a tile).
Multistage topologies follow the paper's Figure 10(b) layout: half of the
cores on the left, the switch stages as thin middle columns, the
remaining cores on the right.
"""

from __future__ import annotations

import math
from operator import itemgetter

from repro.core.coregraph import CoreGraph
from repro.errors import FloorplanError
from repro.floorplan.blocks import Block
from repro.physical.estimate import switch_config
from repro.physical.library import AreaPowerLibrary
from repro.physical.technology import TECH_100NM, Technology
from repro.topology.base import Topology, term

#: Maximum core blocks stacked in one generated column (indirect layout).
MAX_CORES_PER_COLUMN = 4


def core_block(core_graph: CoreGraph, core_index: int) -> Block:
    core = core_graph.core(core_index)
    return Block(
        key=("core", core_index),
        name=core.name,
        area_mm2=core.area_mm2,
        is_soft=core.is_soft,
        aspect_min=core.aspect_min,
        aspect_max=core.aspect_max,
    )


def switch_areas(topology: Topology, tech: Technology) -> dict:
    """Area (mm^2) of every switch by the switch area model.

    Depends only on the topology and the technology point, so the table
    is kept beside the estimator's physical tables (the topology's
    ``derived("physical")`` table).
    """
    cache = topology.derived("physical")
    key = ("switch_areas", tech)
    areas = cache.get(key)
    if areas is None:
        library = AreaPowerLibrary(tech)
        areas = cache[key] = {
            sw: library.entry(switch_config(topology, sw, tech)).area_mm2
            for sw in topology.switches
        }
    return areas


def switch_sides(topology: Topology, tech: Technology) -> dict:
    """Side (mm) of every switch's square block, kept beside
    :func:`switch_areas`."""
    cache = topology.derived("physical")
    key = ("switch_sides", tech)
    sides = cache.get(key)
    if sides is None:
        sides = cache[key] = {
            sw: math.sqrt(area)
            for sw, area in switch_areas(topology, tech).items()
        }
    return sides


def _switch_block(sw, areas: dict) -> Block:
    # A fresh block per floorplan: floorplans pickled together (a
    # collected search) then share no block objects, so a result's
    # pickled bytes do not depend on the cached table.
    return Block(key=sw, name=f"sw{sw[1]}", area_mm2=areas[sw], is_soft=False)


def _chunk_columns(blocks: list[Block], per_column: int) -> list[list[Block]]:
    """Split a block list into balanced columns of at most ``per_column``."""
    if not blocks:
        return []
    n_cols = math.ceil(len(blocks) / per_column)
    rows = math.ceil(len(blocks) / n_cols)
    return [blocks[i : i + rows] for i in range(0, len(blocks), rows)]


def _direct_layout(topology: Topology) -> list[list[tuple]]:
    """A direct topology's columns, by the x coordinate of their
    topology positions (rounded), left to right: per column its cells,
    bottom to top (a slot's core below a switch at the same height).

    A cell is ``(switch, ())`` or ``(None, slots)``, the slots sharing
    one position, ordered when floorplanning by the mapping's core
    order. Kept in the topology's ``derived("physical")`` table.
    """
    cache = topology.derived("physical")
    layout = cache.get("columns")
    if layout is None:
        cells = {}  # (x, y, order, switch) -> cell
        for sw in topology.switches:
            x, y = topology.position(sw)
            cells[round(x, 6), y, 1, sw] = (sw, ())
        for slot in range(topology.num_slots):
            x, y = topology.position(term(slot))
            group = cells.setdefault((round(x, 6), y, 0, None), (None, []))
            group[1].append(slot)
        columns = {}
        for (x, y, order, sw), cell in cells.items():
            columns.setdefault(x, []).append(((y, order), cell))
        layout = cache["columns"] = [
            [cell for _, cell in sorted(columns[x], key=itemgetter(0))]
            for x in sorted(columns)
        ]
    return layout


def _direct_columns(
    topology: Topology,
    slot_to_core: dict[int, int],
    core_graph: CoreGraph,
    areas: dict,
) -> list[list[Block]]:
    """Group blocks by the x coordinate of their topology position."""
    columns = []
    for cells in _direct_layout(topology):
        column = []
        for sw, slots in cells:
            if sw is not None:
                column.append(_switch_block(sw, areas))
            elif len(slots) == 1:
                core = slot_to_core.get(slots[0])
                if core is not None:
                    column.append(core_block(core_graph, core))
            else:
                # Co-located slots keep the mapping's core order.
                column += [
                    core_block(core_graph, core)
                    for slot, core in slot_to_core.items() if slot in slots
                ]
        if column:
            columns.append(column)
    return columns


def _indirect_columns(
    topology: Topology,
    slot_to_core: dict[int, int],
    core_graph: CoreGraph,
    areas: dict,
    used_switches: set | None,
) -> list[list[Block]]:
    """Figure 10(b)-style layout: cores split around the switch stages
    (``stages()``, kept in the topology's ``derived("physical")``
    table)."""
    slots = sorted(slot_to_core)
    half = math.ceil(len(slots) / 2)
    left = [core_block(core_graph, slot_to_core[s]) for s in slots[:half]]
    right = [core_block(core_graph, slot_to_core[s]) for s in slots[half:]]

    cache = topology.derived("physical")
    stages = cache.get("columns")
    if stages is None:
        if getattr(topology, "stages", None) is None:
            raise FloorplanError(
                f"indirect topology {topology.name} lacks a stages() layout"
            )
        stages = cache["columns"] = topology.stages()
    stage_columns = []
    for stage in stages:
        column = [
            _switch_block(sw, areas)
            for sw in stage
            if used_switches is None or sw in used_switches
        ]
        if column:
            stage_columns.append(column)

    columns = _chunk_columns(left, MAX_CORES_PER_COLUMN)
    columns += stage_columns
    columns += _chunk_columns(right, MAX_CORES_PER_COLUMN)
    return columns


def derive_columns(
    topology: Topology,
    assignment: dict[int, int],
    core_graph: CoreGraph,
    used_switches: set | None = None,
    tech: Technology = TECH_100NM,
) -> list[list[Block]]:
    """Column structure for a mapping.

    Args:
        assignment: core index -> terminal slot (the ``map`` function).
        used_switches: optional pruning set for multistage topologies.
    """
    areas = switch_areas(topology, tech)
    slot_to_core = {slot: core for core, slot in assignment.items()}
    if len(slot_to_core) != len(assignment):
        raise FloorplanError("assignment maps two cores to one slot")
    if topology.kind == "direct":
        return _direct_columns(topology, slot_to_core, core_graph, areas)
    return _indirect_columns(
        topology, slot_to_core, core_graph, areas, used_switches
    )
