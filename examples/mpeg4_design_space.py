"""Section 6.3 walk-through: exploring a chosen topology (MPEG4 / mesh).

Two explorations of the paper's Figure 9:
  (a) the effect of the routing function — minimum link bandwidth each
      of DO/MP/SM/SA needs for the MPEG4 decoder on a mesh;
  (b) the area-power Pareto points across the mappings the swap phase
      evaluates.

Also demonstrates the Section 6.1 narrative: minimum-path routing fails
on every topology (910 MB/s SDRAM flow vs 500 MB/s links) and the flow
escalates to split-traffic routing, under which only the butterfly
remains infeasible.

Run:  python examples/mpeg4_design_space.py
"""

from repro import MapperConfig, mpeg4, run_sunmap
from repro.core import area_power_exploration, minimum_bandwidth_per_routing
from repro.topology import make_topology


def main() -> None:
    app = mpeg4()
    config = MapperConfig(max_rounds=8)
    mesh = make_topology("mesh", app.num_cores)

    print("== Figure 9(a): minimum link bandwidth per routing function ==")
    sweep = minimum_bandwidth_per_routing(app, mesh, config=config)
    for code, value in sweep.items():
        status = "FITS 500 MB/s" if value and value <= 500 else "needs more"
        print(f"  {code}: {value:7.1f} MB/s   ({status})")
    print()

    print("== Figure 9(b): area-power Pareto points (mesh, SM routing) ==")
    points, front = area_power_exploration(app, mesh, routing="SM",
                                           config=config)
    print(f"  evaluated feasible mappings: {len(points)}")
    print(f"  Pareto-optimal points:       {len(front)}")
    for p in front:
        print(f"    area {p.area_mm2:7.2f} mm2  power {p.power_mw:7.1f} mW"
              f"  hops {p.avg_hops:.2f}")
    print()

    print("== Full flow with routing fallback (Section 6.1) ==")
    report = run_sunmap(app, routing="MP", objective="power", config=config)
    print(f"  attempted routings: {report.attempted_routings}")
    print(report.selection.format_table())
    print(f"  -> best: {report.best_topology_name}")


if __name__ == "__main__":
    main()
