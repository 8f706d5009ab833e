"""VOPD claims: Figure 3(d), Figure 6 (Section 6.1) and the swap-phase
and technology-node ablations.

Every claim is one row read from the shared VOPD selection (MP routing,
hops objective) or a fixture built on it.
"""

import pytest

#: Figure 3(d): VOPD design parameters on the mesh and the torus.
PAPER_FIG3D = {
    "mesh": {"avg hops": 2.25, "area mm2": 54.59, "power mW": 372.1},
    "torus": {"avg hops": 2.03, "area mm2": 57.91, "power mW": 454.9},
}
METRICS = {"avg hops": "avg_hops", "area mm2": "area_mm2", "power mW": "power_mw"}


def torus_over_mesh(evs, attr):
    return getattr(evs["torus"], attr) / getattr(evs["mesh"], attr)


#: The torus trades ~10% lower delay for more area and power (paper
#: ratios 0.90 / 1.06 / 1.22).
FIG3D = {
    "both-feasible": lambda e: e["mesh"].feasible and e["torus"].feasible,
    "torus-fewer-hops": lambda e: 0.85 <= torus_over_mesh(e, "avg_hops") < 1.0,
    "torus-more-area": lambda e: 1.0 < torus_over_mesh(e, "area_mm2") < 1.25,
    "torus-more-power": lambda e: 1.02 < torus_over_mesh(e, "power_mw") < 1.5,
}

OTHERS = ("mesh", "torus", "hypercube", "clos")

FIG6 = {
    "all-five-feasible": lambda e: all(ev.feasible for ev in e.values()),
    # (a) hop delay: butterfly 2, Clos 3, the direct topologies between.
    "a-butterfly-2-hops": lambda e: e["butterfly"].avg_hops == 2.0,
    "a-clos-3-hops": lambda e: e["clos"].avg_hops == 3.0,
    "a-direct-topologies-between": lambda e: all(
        2.0 <= e[n].avg_hops < 3.0 for n in ("mesh", "torus", "hypercube")
    ),
    "a-torus-within-mesh": lambda e: (
        e["butterfly"].avg_hops <= e["torus"].avg_hops
        <= e["mesh"].avg_hops + 0.2
    ),
    # (b) resources: fewest switches, but more links than the mesh.
    "b-butterfly-fewest-switches": lambda e: e["butterfly"].resources.num_switches
    == min(ev.resources.num_switches for ev in e.values()),
    "b-butterfly-more-links-than-mesh": lambda e: (
        e["butterfly"].resources.num_links > e["mesh"].resources.num_links
    ),
    # (c) and (d): the butterfly is the cheapest design.
    "c-butterfly-least-area": lambda e: e["butterfly"].area_mm2
    == min(ev.area_mm2 for ev in e.values()),
    "d-butterfly-least-power": lambda e: all(
        e["butterfly"].power_mw < e[n].power_mw for n in OTHERS
    ),
}

#: (greedy seed, single swap pass, converged search) per topology.
SWAP = {
    "mesh-one-pass-no-worse-than-greedy": lambda s: (
        s["mesh"][1].sort_key() <= s["mesh"][0].sort_key()
    ),
    "mesh-converged-no-worse-than-one-pass": lambda s: (
        s["mesh"][2].sort_key() <= s["mesh"][1].sort_key()
    ),
    "butterfly-one-pass-no-worse-than-greedy": lambda s: (
        s["butterfly"][1].sort_key() <= s["butterfly"][0].sort_key()
    ),
    "butterfly-converged-no-worse-than-one-pass": lambda s: (
        s["butterfly"][2].sort_key() <= s["butterfly"][1].sort_key()
    ),
    # Only the converged search finds a bandwidth-feasible butterfly.
    "butterfly-feasible-only-when-converged": lambda s: (
        not s["butterfly"][1].feasible and s["butterfly"][2].feasible
    ),
}


def shrinks(rows, name, attr):
    """Whether ``attr`` falls as the feature size shrinks."""
    values = [getattr(rows[f][name], attr) for f in sorted(rows, reverse=True)]
    return values == sorted(values, reverse=True)


#: Section 5's area-power libraries at 130, 100 and 65 nm; ``r`` maps a
#: feature size to the mesh and butterfly mappings at that node.
TECHNOLOGY = {
    "mesh-power-shrinks": lambda r: shrinks(r, "mesh", "power_mw"),
    "butterfly-power-shrinks": lambda r: shrinks(r, "butterfly", "power_mw"),
    "mesh-area-shrinks": lambda r: shrinks(r, "mesh", "area_mm2"),
    "butterfly-area-shrinks": lambda r: shrinks(r, "butterfly", "area_mm2"),
    "butterfly-wins-power-at-every-node": lambda r: all(
        r[f]["butterfly"].power_mw < r[f]["mesh"].power_mw for f in r
    ),
    "butterfly-wins-area-at-every-node": lambda r: all(
        r[f]["butterfly"].area_mm2 < r[f]["mesh"].area_mm2 for f in r
    ),
}


@pytest.mark.parametrize("claim", FIG3D)
def test_fig3d(claim, vopd_flow, vopd_evs):
    assert FIG3D[claim](vopd_evs), vopd_flow.selection.format_table()


@pytest.mark.parametrize("claim", FIG6)
def test_fig6(claim, vopd_flow, vopd_evs):
    assert FIG6[claim](vopd_evs), vopd_flow.selection.format_table()


def test_fig6_butterfly_selected(vopd_flow):
    assert vopd_flow.attempted_routings == ["MP"]
    assert vopd_flow.best_topology_name.startswith("butterfly")


@pytest.mark.parametrize("claim", SWAP)
def test_swap_ablation(claim, vopd_swap_stages):
    assert SWAP[claim](vopd_swap_stages), {
        name: [(ev.avg_hops, ev.max_link_load, ev.feasible) for ev in stages]
        for name, stages in vopd_swap_stages.items()
    }


@pytest.mark.parametrize("claim", TECHNOLOGY)
def test_technology_ablation(claim, vopd_technology):
    assert TECHNOLOGY[claim](vopd_technology), {
        f: {n: (ev.area_mm2, ev.power_mw) for n, ev in row.items()}
        for f, row in vopd_technology.items()
    }


@pytest.mark.parametrize(
    "topology, metric",
    [(t, m) for t in PAPER_FIG3D for m in METRICS],
)
def test_readme_quotes_fig3d(topology, metric, vopd_evs, readme_table):
    """README's table quotes the paper and the reproduced value."""
    ours = getattr(vopd_evs[topology], METRICS[metric])
    row = readme_table[f"Fig. 3(d) VOPD {topology}, {metric}"]
    assert row == (f"{PAPER_FIG3D[topology][metric]}", f"{ours:.2f}")
