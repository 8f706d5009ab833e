"""Extensions walk-through: heterogeneous topologies and QoS bounds.

The paper's conclusions name two future-work items: "automatic
heterogeneous topology modeling and guaranteeing Quality-of-Service for
applications". This example exercises both extensions of the
reproduction:

  1. a custom heterogeneous fabric (two hubs with different radices,
     bridged) competing against the standard library for the VOPD
     decoder;
  2. a QoS per-flow hop guarantee that disqualifies the 3-stage Clos
     and steers selection toward 2-hop-capable networks.

Run:  python examples/heterogeneous_qos.py
"""

from repro import Constraints, MapperConfig, select_topology, vopd
from repro.topology import CustomTopology, standard_library


def build_dual_cluster() -> CustomTopology:
    """VOPD-sized heterogeneous fabric: a 7-core hub and a 5-core hub,
    tied by a two-switch bridge (hub radices differ: 9x9 vs 7x7)."""
    return CustomTopology(
        name="dual-cluster",
        slot_switch=[0] * 7 + [1] * 5,
        links=[(0, 2), (2, 3), (3, 1), (0, 3), (2, 1)],
        positions={0: (0.0, 0.5), 2: (1.0, 0.0), 3: (1.0, 1.0), 1: (2.0, 0.5)},
    )


def main() -> None:
    app = vopd()
    config = MapperConfig(max_rounds=8)

    print("== 1. heterogeneous fabric vs the standard library ==")
    topologies = standard_library(app.num_cores) + [build_dual_cluster()]
    selection = select_topology(
        app, topologies=topologies, routing="MP", objective="power",
        config=config,
    )
    print(selection.format_table())
    print(f"-> best: {selection.best_name}")
    print()

    print("== 2. QoS: guarantee every flow at most 2 switch hops ==")
    qos = Constraints(max_flow_hops=2)
    selection = select_topology(
        app, routing="MP", objective="hops", constraints=qos, config=config
    )
    print(selection.format_table())
    print(f"-> best under 2-hop guarantee: {selection.best_name}")
    clos_rows = [
        row for row in selection.table() if row["topology"].startswith("clos")
    ]
    print(f"   (clos feasible? {clos_rows[0]['feasible']} — every Clos "
          f"route is 3 stages)")


if __name__ == "__main__":
    main()
