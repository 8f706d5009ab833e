"""Section 6.1 walk-through: VOPD topology selection.

Maps the Video Object Plane Decoder onto the five library topologies
under minimum-path routing and prints the comparison table of the
paper's Figure 6 — the butterfly (4-ary 2-fly) wins on delay, area and
power, because VOPD's bandwidth demands fit its diversity-free links.

Run:  python examples/vopd_topology_selection.py
"""

from repro import MapperConfig, select_topology, vopd


def main() -> None:
    app = vopd()
    print(f"application: {app}")
    print(f"flows >= 300 MB/s: "
          f"{sum(1 for v in app.flows().values() if v >= 300)}")
    print()

    config = MapperConfig(max_rounds=10)
    for objective in ("hops", "area", "power"):
        selection = select_topology(
            app, routing="MP", objective=objective, config=config
        )
        print(f"== objective: {objective} ==")
        print(selection.format_table())
        print(f"-> best: {selection.best_name}")
        print()

    print(
        "The paper's conclusion (Section 6.1): 'butterfly is the best\n"
        "topology for VOPD' — it trades path diversity for fewer, smaller\n"
        "switches and a uniform two-hop delay."
    )


if __name__ == "__main__":
    main()
