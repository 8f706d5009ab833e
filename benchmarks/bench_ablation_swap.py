"""Experiment abl-swap — value of the pairwise-swap phase (Fig. 5 steps
9-10) and of the convergent extension.

Compares, on VOPD x {mesh, butterfly}:
  greedy seed only  ->  single swap pass (the paper's algorithm)
  ->  swap-until-converged (this reproduction's default).

Expected: each stage is no worse than the previous; the converged search
is what finds the bandwidth-feasible butterfly placement.

Alongside the quality numbers the experiment reports the search's
mapping-evaluations/sec (candidates evaluated per wall second by the
swap search with a collector, so every candidate is measured), so regressions in evaluation throughput
are visible in the ablation output too. ``--smoke`` restricts the run
to the mesh case for CI.
"""

import time

from conftest import once, write_artifact

from repro.core.constraints import Constraints
from repro.core.evaluate import evaluate_mapping
from repro.core.greedy import initial_greedy_mapping
from repro.core.mapper import MapperConfig, map_onto
from repro.routing.library import make_routing
from repro.topology.library import make_topology


def _timed_search(app, topo, config):
    """(evaluation, evaluations/sec) of one swap search."""
    evaluated = []
    start = time.perf_counter()
    ev = map_onto(
        app, topo, routing="MP", objective="hops",
        config=config, collector=evaluated,
    )
    wall = time.perf_counter() - start
    rate = len(evaluated) / wall if wall > 0 else 0.0
    return ev, rate


def run_experiment(vopd_app, smoke):
    rows = {}
    for name in ("mesh",) if smoke else ("mesh", "butterfly"):
        topo = make_topology(name, vopd_app.num_cores)
        greedy_ev = evaluate_mapping(
            vopd_app, topo, initial_greedy_mapping(vopd_app, topo),
            make_routing("MP"), Constraints(),
        )
        single = _timed_search(
            vopd_app, topo, MapperConfig(converge=False, swap_rounds=1)
        )
        converged = _timed_search(
            vopd_app, topo, MapperConfig(converge=True, max_rounds=10)
        )
        rows[name] = ((greedy_ev, None), single, converged)
    return rows


def test_ablation_swap_improvement(benchmark, vopd_app, smoke):
    rows = once(benchmark, lambda: run_experiment(vopd_app, smoke))

    lines = [
        f"{'topology':<12}{'stage':<14}{'avg hops':>9}{'max load':>10}"
        f"{'feasible':>9}{'evals/s':>10}"
    ]
    for name, stages in rows.items():
        for label, (ev, rate) in zip(
            ("greedy", "one-pass", "converged"), stages
        ):
            rate_s = "-" if rate is None else f"{rate:,.0f}"
            lines.append(
                f"{name:<12}{label:<14}{ev.avg_hops:>9.3f}"
                f"{ev.max_link_load:>10.1f}{str(ev.feasible):>9}"
                f"{rate_s:>10}"
            )
    write_artifact("ablation_swap", "\n".join(lines))

    for name, ((greedy_ev, _), (single, _), (converged, _)) in rows.items():
        assert single.sort_key() <= greedy_ev.sort_key()
        assert converged.sort_key() <= single.sort_key()
    # The converged search is what makes the butterfly feasible.
    if "butterfly" in rows:
        assert rows["butterfly"][2][0].feasible
