"""Initial greedy mapping (Figure 5, step 1).

"First the core that has maximum communication is placed on to the NoC
node with maximum neighbors. Then the core that communicates the most
with placed cores is chosen. This core is placed onto the NoC node that
minimizes the cost function and this procedure is repeated until all the
cores are placed."

The placement cost used here is the communication-weighted hop distance
to the already-placed cores — a routing-free proxy that all objectives
share (the swap phase then optimizes the true objective).
"""

from __future__ import annotations

from repro.core.coregraph import CoreGraph
from repro.errors import MappingInfeasibleError
from repro.topology.base import Topology


def _slot_degree(topology: Topology, slot: int) -> int:
    """Network degree of the switch a slot injects into."""
    sw = topology.switch_of(slot)
    graph = topology.graph
    return sum(
        1 for v in graph.successors(sw) if graph.attrs(sw, v)["kind"] == "net"
    )


def initial_greedy_mapping(
    core_graph: CoreGraph, topology: Topology
) -> dict[int, int]:
    """Greedy seed assignment of cores to terminal slots."""
    n = core_graph.num_cores
    if not topology.fits(n):
        raise MappingInfeasibleError(
            f"{core_graph.name}: {n} cores exceed the {topology.num_slots} "
            f"slots of {topology.name}"
        )

    # Core order: total communication, heaviest first (deterministic ties).
    unplaced = sorted(
        range(n), key=lambda c: (-core_graph.core_traffic(c), c)
    )
    free_slots = list(range(topology.num_slots))
    assignment: dict[int, int] = {}
    # Bandwidth between two cores in either direction, as
    # ``CoreGraph.comm_between`` gives it: 0.0 plus each direction's
    # flow, and two positive terms add to the same float in any order.
    comm = [[0.0] * n for _ in range(n)]
    for (src, dst), bandwidth in core_graph.flows().items():
        comm[src][dst] += bandwidth
        comm[dst][src] += bandwidth

    # Seed: heaviest core on the best-connected slot.
    first = unplaced.pop(0)
    seed_slot = max(free_slots, key=lambda s: (_slot_degree(topology, s), -s))
    assignment[first] = seed_slot
    free_slots.remove(seed_slot)

    while unplaced:
        # Core talking the most with already-placed cores.
        core = max(
            unplaced,
            key=lambda c: (sum(comm[c][p] for p in assignment), -c),
        )
        unplaced.remove(core)
        # Slot minimizing communication-weighted distance to placed cores.
        row = comm[core]

        def placement_cost(slot: int) -> tuple:
            cost = sum(
                row[placed] * topology.hop_distance(slot, placed_slot)
                for placed, placed_slot in assignment.items()
            )
            return (cost, slot)

        best_slot = min(free_slots, key=placement_cost)
        assignment[core] = best_slot
        free_slots.remove(best_slot)
    return assignment
