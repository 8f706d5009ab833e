"""Synthesis determinism and golden regression tests.

Two guarantees pinned here:

* **Determinism across parallelism** — the same core graph +
  :class:`~repro.synthesis.SynthesisConfig` reproduces the identical
  candidate set bit-for-bit at ``jobs=1`` and ``jobs=4`` (engine cache
  keys are content-derived, reduction is by submission order), for
  both the standalone sweep and the synthesize-enabled selection flow.
  A synthesized fabric is one more evaluation job, so selecting over
  the sweep's fabrics is served from the sweep's cache entries.
* **Golden candidate sets** — the ranked vopd/dsp candidates (names,
  feasibility, costs) stay exactly what was committed; regenerate
  deliberately with ``--update-goldens`` and review the diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.apps import load_application
from repro.core.selector import select_topology
from repro.engine.engine import ExplorationEngine
from repro.synthesis import SynthesisConfig, synthesize_topologies

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "synthesis.json"

#: Small sweep used by the parallel-identity tests (fast, still >1 job).
SMALL = SynthesisConfig(
    strategies=("greedy", "bisect"),
    concentrations=(3, 4),
    max_switch_degrees=(4,),
    max_candidates=4,
)


def _candidate_record(result) -> list[dict]:
    """Bit-exact comparable digest of a synthesis result."""
    return [
        {
            "name": cand.name,
            "feasible": cand.feasible,
            "cost": cand.cost,
            "avg_hops": (
                None if cand.evaluation is None else cand.evaluation.avg_hops
            ),
            "power_mw": (
                None if cand.evaluation is None else cand.evaluation.power_mw
            ),
            "max_link_load": (
                None
                if cand.evaluation is None
                else cand.evaluation.max_link_load
            ),
            "assignment": (
                None
                if cand.evaluation is None
                else sorted(cand.evaluation.assignment.items())
            ),
            "error": cand.error,
        }
        for cand in result.ranked
    ]


class TestParallelIdentity:
    def test_jobs1_equals_jobs4_synthesize(self, vopd_app):
        serial = synthesize_topologies(vopd_app, config=SMALL, jobs=1)
        parallel = synthesize_topologies(vopd_app, config=SMALL, jobs=4)
        assert _candidate_record(serial) == _candidate_record(parallel)

    def test_jobs1_equals_jobs4_selection(self, vopd_app):
        outcomes = []
        for jobs in (1, 4):
            selection = select_topology(
                vopd_app, routing="MP", jobs=jobs, synthesize=SMALL
            )
            outcomes.append(
                (
                    selection.best_name,
                    selection.synthesized,
                    {
                        name: (ev.cost, ev.avg_hops, ev.power_mw)
                        for name, ev in selection.evaluations.items()
                    },
                    selection.errors,
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_engine_cache_serves_repeat_sweep(self, vopd_app):
        engine = ExplorationEngine()
        synthesize_topologies(vopd_app, config=SMALL, engine=engine)
        hits_before = engine.cache.stats.hits
        again = synthesize_topologies(vopd_app, config=SMALL, engine=engine)
        assert engine.cache.stats.hits > hits_before
        assert all(c.evaluation is not None or c.error for c in again.candidates)

    def test_selection_over_synthesized_fabrics_hits_the_sweep_cache(
        self, vopd_app
    ):
        engine = ExplorationEngine()
        sweep = synthesize_topologies(vopd_app, config=SMALL, engine=engine)
        hits, misses = engine.cache.stats.hits, engine.cache.stats.misses
        selection = select_topology(
            vopd_app,
            topologies=[c.topology for c in sweep.candidates],
            engine=engine,
        )
        assert engine.cache.stats.misses == misses
        assert engine.cache.stats.hits - hits == len(sweep.candidates)
        assert {
            c.name: _evaluation_digest(c.evaluation)
            for c in sweep.candidates
            if c.evaluation is not None
        } == {
            name: _evaluation_digest(ev)
            for name, ev in selection.evaluations.items()
        }
        assert selection.errors == {
            c.name: c.error for c in sweep.candidates if c.error is not None
        }


def _evaluation_digest(ev) -> tuple:
    """Bit-exact comparable fields of one mapping evaluation."""
    return (
        ev.feasible,
        ev.cost.hex(),
        ev.avg_hops.hex(),
        ev.max_link_load.hex(),
        sorted(ev.assignment.items()),
    )


@pytest.fixture(scope="module")
def goldens() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


GRID = [("vopd", "hops"), ("dsp", "hops"), ("mpeg4", "power")]


@pytest.mark.parametrize(
    ("app_name", "objective"), GRID, ids=[f"{a}-{o}" for a, o in GRID]
)
def test_synthesis_matches_golden(request, goldens, app_name, objective):
    key = f"{app_name}/{objective}"
    result = synthesize_topologies(
        load_application(app_name), objective=objective
    )
    outcome = {
        "best": None if result.best is None else result.best.name,
        "candidates": [
            {
                "name": cand.name,
                "feasible": cand.feasible,
                "cost": None if cand.evaluation is None else round(cand.cost, 6),
            }
            for cand in result.ranked
        ],
    }
    if request.config.getoption("--update-goldens"):
        stored = (
            json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
            if GOLDEN_PATH.exists()
            else {}
        )
        stored[key] = outcome
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(stored, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return
    assert key in goldens, (
        f"no golden for {key}; run pytest with --update-goldens and "
        f"commit {GOLDEN_PATH}"
    )
    assert outcome == goldens[key], (
        f"synthesis outcome for {key} drifted from the committed golden "
        f"(rerun with --update-goldens only if the change is intended)"
    )


def test_synthesized_candidate_beats_library_on_vopd(vopd_app):
    """The subsystem's reason to exist, pinned: on vopd a synthesized
    fabric must achieve an objective cost no worse than the best
    standard-library topology under identical constraints."""
    library = select_topology(vopd_app, routing="MP", objective="hops")
    synthesized = synthesize_topologies(
        vopd_app, routing="MP", objective="hops"
    )
    assert library.best is not None
    assert synthesized.best is not None
    assert synthesized.best.cost <= library.best.cost
