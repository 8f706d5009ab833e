"""Mapping-evaluation throughput benchmark with a committed record.

Two streams, best of N repetitions per case:

* **evals_per_sec** — mapping evaluations per second over a
  pairwise-swap candidate stream per app x topology x routing, through
  ``MemoizedMappingEvaluator.evaluate_swap`` (the swap search's entry
  point) with a fresh evaluator per repetition and no bound, so every
  candidate is routed and measured. The case matrix
  spans the paper's benchmark applications and synthetic scale points
  from ``repro.apps.synthetic``.
* **search_candidates_per_sec** — swap candidates resolved per second
  by a whole ``map_onto`` search (netproc with the hops objective on
  its hypercube and on its Clos, VOPD with power), where the bounded
  swap search resolves most candidates without a full evaluation. The
  netproc Clos search races an infeasible bound that every candidate
  ties, so its swap phase is all pre-routing tie drops (cut-off 5);
  **search_pruned_share** is that
  deterministic fraction: candidates dropped part-way by the bound plus
  visited revisits skipped before routing.

Results land in ``BENCH_mapping.json`` at the repo root with the
machine-speed calibration they were measured at.

Usage::

    python benchmarks/bench_mapping.py            # full run, rewrites the record
    python benchmarks/bench_mapping.py --smoke    # reduced budget (CI)
    python benchmarks/bench_mapping.py --smoke --check
        # exit 1 if evals/sec or search candidates/sec regressed > 30%,
        # or the pruned share fell, vs the committed record

``--check`` compares freshly measured evals/sec and search
candidates/sec against the committed record *before* writing,
normalized by the recorded machine-speed calibration, so a routing or
pruning regression fails CI while machine-to-machine variance does not.

Re-recording one entry after a change that moves only that entry
keeps the rest of the record and its calibration. The change is timed
in ten pairs, alternating which side runs first: the previous commit
measures its MP/SM ``evals_per_sec`` cases (full budget), and the
change measures the entry. Each pair scales the change's rate by the
geomean of recorded over measured MP/SM rates of the previous commit
in the same pair, which puts it on the record's machine speed; the
entry is the median of the ten scaled rates. A ``search_candidates_per_sec``
entry is re-recorded the same way, except that the previous commit
also measures both search cases and the change's rate is scaled by the
geomean of recorded over measured search rates: the two streams do not
move together, so one cannot calibrate the other.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_kernel import _calibrate, _geomean  # noqa: E402

from repro.apps import load_application  # noqa: E402
from repro.apps.synthetic import random_core_graph  # noqa: E402
from repro.core.constraints import Constraints  # noqa: E402
from repro.core import mapper  # noqa: E402
from repro.core.greedy import initial_greedy_mapping  # noqa: E402
from repro.core.memo import MemoizedMappingEvaluator  # noqa: E402
from repro.physical.estimate import NetworkEstimator  # noqa: E402
from repro.routing.library import make_routing  # noqa: E402
from repro.topology.library import make_topology  # noqa: E402

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_mapping.json"

#: Acceptable evals/sec ratio vs the committed numbers before --check
#: fails (a >30% regression), after machine-speed normalization.
MIN_CHECK_RATIO = 0.7


def _app(name: str):
    if name.startswith("syn"):
        cores = int(name[3:])
        return random_core_graph(cores, seed=5)
    return load_application(name)


#: (case label, app, topology, routing); label encodes app-topo-routing.
EVAL_CASES = [
    ("vopd-mesh-MP", "vopd", "mesh", "MP"),
    ("vopd-torus-MP", "vopd", "torus", "MP"),
    ("vopd-mesh-SM", "vopd", "mesh", "SM"),
    ("mpeg4-mesh-SM", "mpeg4", "mesh", "SM"),
    ("mpeg4-torus-SM", "mpeg4", "torus", "SM"),
    ("dsp-mesh-MP", "dsp", "mesh", "MP"),
    ("vopd-mesh-DO", "vopd", "mesh", "DO"),
    ("syn32-mesh-MP", "syn32", "mesh", "MP"),
    ("syn32-torus-MP", "syn32", "torus", "MP"),
    ("syn32-mesh-SM", "syn32", "mesh", "SM"),
    ("syn32-torus-SM", "syn32", "torus", "SM"),
    ("syn32-mesh-DO", "syn32", "mesh", "DO"),
    ("syn48-mesh-MP", "syn48", "mesh", "MP"),
    ("syn48-torus-MP", "syn48", "torus", "MP"),
    ("syn48-mesh-DO", "syn48", "mesh", "DO"),
]

SMOKE_EVAL_CASES = ["vopd-mesh-MP", "mpeg4-mesh-SM", "syn32-mesh-DO"]

#: (case label, app, topology, routing, objective) of the map_onto
#: stream: the flow's netproc searches (one racing feasible bounds, one
#: an infeasible bound its candidates tie) and a floorplanned power
#: search.
SEARCH_CASES = [
    ("netproc-hypercube-SM-hops", "netproc", "hypercube", "SM", "hops"),
    ("vopd-mesh-MP-power", "vopd", "mesh", "MP", "power"),
    ("netproc-clos-SM-hops", "netproc", "clos", "SM", "hops"),
]


def _candidates(base: dict, num_slots: int, limit: int) -> list:
    occupied = sorted(base.values())
    free = sorted(set(range(num_slots)) - set(occupied))
    cands = list(combinations(occupied, 2))
    cands += [(s, f) for s in occupied for f in free]
    return cands[:limit]


def measure_evals(
    app_name: str, topo_name: str, code: str, reps: int, limit: int
) -> float:
    """Evaluations/sec of one swap stream (best of ``reps``)."""
    app = _app(app_name)
    topology = make_topology(topo_name, app.num_cores)
    routing = make_routing(code)
    constraints = Constraints()
    estimator = NetworkEstimator()
    base = initial_greedy_mapping(app, topology)
    cands = _candidates(base, topology.num_slots, limit)
    best = math.inf
    # One unmeasured pass warms the topology-resident caches.
    for rep in range(reps + 1):
        memo = MemoizedMappingEvaluator(
            app, topology, routing, constraints, estimator
        )
        start = time.perf_counter()
        for s1, s2 in cands:
            memo.finish(memo.evaluate_swap(base, s1, s2, with_floorplan=False))
        if rep:
            best = min(best, time.perf_counter() - start)
    return round(len(cands) / best, 1)


class _CountingMemo(MemoizedMappingEvaluator):
    """The search's memo, counting the swap candidates it is handed."""

    def __init__(self, *args):
        super().__init__(*args)
        self.swaps = 0

    def evaluate_swap(self, *args, **kwargs):
        self.swaps += 1
        return super().evaluate_swap(*args, **kwargs)


def measure_search(
    app_name: str, topo_name: str, code: str, objective: str, reps: int
) -> tuple[float, float]:
    """(candidates/sec, pruned share) of one ``map_onto`` search, best
    of ``reps`` after one unmeasured warm-up pass."""
    app = _app(app_name)
    topology = make_topology(topo_name, app.num_cores)
    memos: list[_CountingMemo] = []

    def counting_memo(*args):
        memos.append(_CountingMemo(*args))
        return memos[-1]

    best = math.inf
    original = mapper.MemoizedMappingEvaluator
    mapper.MemoizedMappingEvaluator = counting_memo
    try:
        for rep in range(reps + 1):
            start = time.perf_counter()
            mapper.map_onto(app, topology, code, objective)
            if rep:
                best = min(best, time.perf_counter() - start)
    finally:
        mapper.MemoizedMappingEvaluator = original
    memo = memos[-1]
    return (
        round(memo.swaps / best, 1),
        round((memo.stats.pruned + memo.stats.hits) / memo.swaps, 4),
    )


def measure(smoke: bool = False, reps: int = 4) -> dict:
    if smoke:
        cases = [c for c in EVAL_CASES if c[0] in SMOKE_EVAL_CASES]
        reps, limit = 2, 60
    else:
        cases, limit = EVAL_CASES, 200
    evals = {
        label: measure_evals(app_name, topo_name, code, reps, limit)
        for label, app_name, topo_name, code in cases
    }
    searches = {
        label: measure_search(app_name, topo_name, code, objective, reps)
        for label, app_name, topo_name, code, objective in SEARCH_CASES
    }
    return {
        "evals_per_sec": evals,
        "search_candidates_per_sec": {
            label: rate for label, (rate, _) in searches.items()
        },
        "search_pruned_share": {
            label: share for label, (_, share) in searches.items()
        },
        "calibration_ops_per_sec": _calibrate(),
    }


def _normalized_ratio(
    fresh: dict, committed: dict, metric: str = "evals_per_sec"
) -> float | None:
    """Geomean fresh/committed ``metric`` over shared cases, divided by
    the machine-speed ratio of the two calibrations."""
    ratios = [
        value / committed[metric][case]
        for case, value in fresh[metric].items()
        if committed.get(metric, {}).get(case)
    ]
    ratio = _geomean(ratios)
    if ratio is None:
        return None
    committed_cal = committed.get("calibration_ops_per_sec")
    fresh_cal = fresh.get("calibration_ops_per_sec")
    machine = fresh_cal / committed_cal if committed_cal and fresh_cal else 1.0
    print(
        f"{metric} vs committed: {ratio:.2f}x raw, machine speed "
        f"{machine:.2f}x, normalized {ratio / machine:.2f}x "
        f"(gate: >= {MIN_CHECK_RATIO})"
    )
    return ratio / machine


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced budget: three eval cases, two reps",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if evals/sec or search candidates/sec regressed "
        "more than 30%%, or the pruned share fell, versus the committed "
        "BENCH_mapping.json",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="output path (default: BENCH_mapping.json at the repo root; "
        "--smoke writes BENCH_mapping.smoke.json so a reduced-budget run "
        "never clobbers the committed record)",
    )
    args = parser.parse_args(argv)

    if args.json is not None:
        out_path = Path(args.json)
    elif args.smoke:
        out_path = BENCH_PATH.with_name("BENCH_mapping.smoke.json")
    else:
        out_path = BENCH_PATH

    committed = {}
    if BENCH_PATH.exists():
        committed = json.loads(BENCH_PATH.read_text(encoding="utf-8"))

    fresh = measure(smoke=args.smoke)

    check_failed = False
    if args.check and committed:
        for metric in ("evals_per_sec", "search_candidates_per_sec"):
            normalized = _normalized_ratio(fresh, committed, metric)
            if normalized is not None and normalized < MIN_CHECK_RATIO:
                print(f"PERF REGRESSION: mapping {metric} dropped >30%")
                check_failed = True
        for case, share in fresh["search_pruned_share"].items():
            recorded = committed.get("search_pruned_share", {}).get(case)
            if recorded is not None and share < recorded:
                print(
                    f"PRUNING REGRESSION: {case} resolves {share:.1%} of its "
                    f"candidates early, the record {recorded:.1%}"
                )
                check_failed = True

    record = {"schema": 2, **fresh, "smoke": args.smoke}
    out_path.write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {out_path}")
    for case, value in fresh["evals_per_sec"].items():
        print(f"evals {case:16s} {value:9,.0f}/s")
    for case, value in fresh["search_candidates_per_sec"].items():
        share = fresh["search_pruned_share"][case]
        print(
            f"search {case:26s} {value:9,.0f} candidates/s, "
            f"{share:.1%} pruned"
        )
    return 1 if check_failed else 0


if __name__ == "__main__":
    sys.exit(main())
