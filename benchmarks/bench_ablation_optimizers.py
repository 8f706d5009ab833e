"""Experiment abl-optimizers — mapping-search strategies compared.

Greedy seed -> the paper's swap descent -> simulated annealing, against
a uniform random-search baseline with the same evaluation budget, on the
hardest structured case in the suite: MPEG4 on the mesh with split
routing (feasibility requires coordinated diagonal placements).

Expected: the structured searches dominate random search; annealing
matches or slightly betters swap descent; the paper's algorithm is
within a few percent of the best found.

Each strategy also reports its mapping-evaluations/sec (assignments
evaluated per wall second — swap descent and annealing through the
memoized swap evaluator, random search through plain memoized
evaluation), so throughput wins and regressions show up next to
the quality numbers. ``--smoke`` shrinks the evaluation budget for CI.
"""

import time

from conftest import once, write_artifact

from repro.core.annealing import (
    AnnealingConfig,
    random_search_map,
    simulated_annealing_map,
)
from repro.core.constraints import Constraints
from repro.core.evaluate import evaluate_mapping
from repro.core.greedy import initial_greedy_mapping
from repro.core.mapper import MapperConfig, map_onto
from repro.routing.library import make_routing
from repro.topology.library import make_topology

#: Evaluations for annealing / random search (full budget).
BUDGET = 1200
#: Reduced budget under --smoke.
SMOKE_BUDGET = 300


def _timed(fn, evaluations):
    """Run ``fn``; return (result, evaluations/sec)."""
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    count = evaluations() if callable(evaluations) else evaluations
    return result, (count / wall if wall > 0 else 0.0)


def run_experiment(mpeg4_app, smoke):
    budget = SMOKE_BUDGET if smoke else BUDGET
    topo = make_topology("mesh", mpeg4_app.num_cores)
    constraints = Constraints()
    rows = {}
    rows["greedy"] = (
        evaluate_mapping(
            mpeg4_app, topo, initial_greedy_mapping(mpeg4_app, topo),
            make_routing("SM"), constraints,
        ),
        None,
    )
    evaluated = []
    rows["swap (paper)"] = _timed(
        lambda: map_onto(
            mpeg4_app, topo, routing="SM", objective="hops",
            constraints=constraints,
            config=MapperConfig(converge=False, swap_rounds=1),
            collector=evaluated,
        ),
        lambda: len(evaluated),
    )
    evaluated_conv = []
    rows["swap converged"] = _timed(
        lambda: map_onto(
            mpeg4_app, topo, routing="SM", objective="hops",
            constraints=constraints,
            config=MapperConfig(converge=True, max_rounds=10),
            collector=evaluated_conv,
        ),
        lambda: len(evaluated_conv),
    )
    # Annealing evaluates 1 seed + up to 15 calibration probes + one
    # candidate per iteration (mesh has >= 2 slots: no skipped moves).
    rows["annealing solo"] = _timed(
        lambda: simulated_annealing_map(
            mpeg4_app, topo, routing="SM", objective="hops",
            constraints=constraints,
            config=AnnealingConfig(iterations=budget, seed=3),
        ),
        budget + 16,
    )
    rows["anneal refine"] = _timed(
        lambda: simulated_annealing_map(
            mpeg4_app, topo, routing="SM", objective="hops",
            constraints=constraints,
            config=AnnealingConfig(iterations=budget, seed=3),
            initial_assignment=rows["swap converged"][0].assignment,
        ),
        budget + 16,
    )
    rows["random search"] = _timed(
        lambda: random_search_map(
            mpeg4_app, topo, routing="SM", objective="hops",
            constraints=constraints, iterations=budget, seed=3,
        ),
        budget,
    )
    return budget, rows


def test_ablation_optimizers(benchmark, mpeg4_app, smoke):
    budget, rows = once(
        benchmark, lambda: run_experiment(mpeg4_app, smoke)
    )

    lines = [
        f"MPEG4 on mesh-3x4, SM routing, hops objective "
        f"(budget {budget} evals)"
    ]
    lines.append(
        f"{'strategy':<16}{'feasible':>9}{'avg hops':>9}{'max load':>10}"
        f"{'evals/s':>10}"
    )
    for name, (ev, rate) in rows.items():
        rate_s = "-" if rate is None else f"{rate:,.0f}"
        lines.append(
            f"{name:<16}{str(ev.feasible):>9}{ev.avg_hops:>9.3f}"
            f"{ev.max_link_load:>10.1f}{rate_s:>10}"
        )
    write_artifact("ablation_optimizers", "\n".join(lines))

    # The converged swap search reaches feasibility; annealing seeded
    # from it stays feasible and can only match or improve it.
    assert rows["swap converged"][0].feasible
    assert rows["anneal refine"][0].feasible
    assert (
        rows["anneal refine"][0].sort_key()
        <= rows["swap converged"][0].sort_key()
    )
    # Every structured search beats the unstructured baselines under the
    # feasibility-first ordering.
    for name in ("swap converged", "anneal refine", "annealing solo"):
        assert rows[name][0].sort_key() <= rows["greedy"][0].sort_key()
    for name in ("swap converged", "anneal refine"):
        assert rows[name][0].sort_key() <= rows["random search"][0].sort_key()
    # Finding worth recording: within this budget the stochastic solo
    # anneal does NOT reliably reach feasibility on this instance —
    # the paper's steepest-descent swap phase is the stronger search
    # for coordinated placement constraints (see EXPERIMENTS.md).
