"""Batch fast lane vs the exact kernel: the statistical-equivalence gate.

The batched simulator (:mod:`repro.simulation.batch`) is deliberately
**not** bit-identical to the exact kernel — its random streams are
content-keyed per lane instead of sequential — so its contract is
statistical: same detected saturation per curve, pre-saturation
latency within tolerance, and flit conservation holding *exactly*.
Both lanes are deterministic given the seed set, so every assertion
here is exact-reproducible, never flaky.

Also covered: the determinism contract the ``("bsim", …)`` cache keys
rely on (a point's payload is independent of its batch mates and
order), the engine's per-point cache/resume handling of
:class:`~repro.engine.jobs.BatchSimulationJob` groups, per-lane error
isolation, and the order-stable ``_mean`` the curves are averaged
with.
"""

from __future__ import annotations

import math

import pytest

from repro.engine import ExplorationEngine
from repro.engine.cache import EvaluationCache
from repro.engine.jobs import BatchSimulationJob, SimulationJob
from repro.errors import SimulationError
from repro.simulation.batch import BatchLane, BatchSimulator, simulate_batch
from repro.simulation.campaign import CampaignConfig, _mean, run_campaign
from repro.topology.library import make_topology

#: Pre-saturation latency agreement between the lanes (the bench gate
#: uses the same bound; measured agreement on these sweeps is <= 13%).
LATENCY_TOLERANCE = 0.20

#: Bench-protocol measurement window, long enough to saturate mpeg4.
PROTOCOL = dict(warmup=200, measure=800, drain=600)

#: Sweep reaching past mpeg4's knee (saturates at 0.3 on these seeds).
RATES = tuple(round(0.05 * i, 2) for i in range(1, 11))
SEEDS = (1, 2)


def _campaign(app, sim_engine, **overrides):
    topology = make_topology("mesh", app.num_cores)
    assignment = {i: i for i in range(app.num_cores)}
    settings = dict(
        rates=RATES, patterns=("app",), seeds=SEEDS,
        sim_engine=sim_engine, **PROTOCOL,
    )
    settings.update(overrides)
    return run_campaign(
        topology,
        core_graph=app,
        assignment=assignment,
        config=CampaignConfig(**settings),
    )


@pytest.fixture(scope="module")
def lanes(mpeg4_app):
    """The exact and batch sweeps of one knee-crossing app campaign."""
    return (
        _campaign(mpeg4_app, "exact"),
        _campaign(mpeg4_app, "batch"),
    )


class TestStatisticalEquivalence:
    def test_same_detected_saturation(self, lanes):
        exact, batch = lanes
        assert exact.saturation_rates() == batch.saturation_rates()
        # The sweep actually crosses the knee — the match is not an
        # empty None == None statement.
        assert exact.curves["app"].saturation_rate is not None

    def test_pre_saturation_latency_within_tolerance(self, lanes):
        exact, batch = lanes
        compared = 0
        for pattern, exact_curve in exact.curves.items():
            batch_curve = batch.curves[pattern]
            sat = exact_curve.saturation_rate
            base = exact_curve.avg_latency[0]
            for i, rate in enumerate(exact_curve.rates):
                exact_lat = exact_curve.avg_latency[i]
                near_knee = (
                    (sat is not None and rate >= 0.8 * sat)
                    or (sat is None
                        and rate >= 0.8 * exact_curve.rates[-1])
                    or exact_curve.delivered[i] < 0.99
                    or batch_curve.delivered[i] < 0.99
                    or not math.isfinite(exact_lat)
                    or exact_lat > 3.0 * base
                )
                if near_knee:
                    continue
                compared += 1
                assert batch_curve.avg_latency[i] == pytest.approx(
                    exact_lat, rel=LATENCY_TOLERANCE
                ), f"{pattern}@{rate:g}"
        assert compared >= 3  # the knee filter left a real comparison

    def test_throughput_and_delivery_agree_pre_knee(self, lanes):
        exact, batch = lanes
        for pattern, exact_curve in exact.curves.items():
            batch_curve = batch.curves[pattern]
            for i, rate in enumerate(exact_curve.rates):
                if exact_curve.delivered[i] < 0.99:
                    break
                assert batch_curve.delivered[i] >= 0.97
                assert batch_curve.throughput[i] == pytest.approx(
                    exact_curve.throughput[i], rel=0.10
                ), f"{pattern}@{rate:g}"


class TestConservation:
    """Every injected flit is ejected or still queued — exactly."""

    def test_flit_conservation_per_lane(self, vopd_app):
        topology = make_topology("mesh", vopd_app.num_cores)
        assignment = tuple(
            (i, i) for i in range(vopd_app.num_cores)
        )
        lanes = [
            BatchLane(
                pattern=pattern, rate=rate, traffic_seed=seed,
                core_graph=vopd_app if pattern == "app" else None,
                assignment=assignment if pattern == "app" else None,
                **PROTOCOL,
            )
            for pattern, rate, seed in (
                ("uniform", 0.1, 1),
                ("uniform", 0.45, 2),   # deep congestion
                ("transpose", 0.3, 1),
                ("app", 0.2, 3),
            )
        ]
        sim = BatchSimulator(topology, lanes)
        sim.run()
        injected = sim.injected_flits
        balance = sim.ejected_flits + sim.in_network_flits()
        assert injected.tolist() == balance.tolist()
        assert int(injected.min()) > 0  # every lane really injected


class TestCompositionIndependence:
    """A point's payload never depends on its batch mates or order."""

    def _point(self, topology, pattern="uniform", rate=0.2, seed=1):
        return SimulationJob(
            topology=topology, pattern=pattern, rate=rate,
            traffic_seed=seed, **PROTOCOL,
        )

    def test_payload_independent_of_batch_mates(self, vopd_app):
        topology = make_topology("mesh", vopd_app.num_cores)
        probe = self._point(topology)
        mates = [
            self._point(topology, "transpose", 0.35, 2),
            self._point(topology, "uniform", 0.05, 3),
            self._point(topology, "hotspot", 0.15, 1),
        ]
        solo = simulate_batch([probe])[0]
        first, *_ = simulate_batch([probe] + mates)
        *_, last = simulate_batch(mates + [probe])
        assert solo == first == last

    def test_group_subsets_reproduce_the_full_group(self, vopd_app):
        topology = make_topology("mesh", vopd_app.num_cores)
        points = tuple(
            self._point(topology, "uniform", rate, seed)
            for rate in (0.1, 0.3)
            for seed in (1, 2)
        )
        group = BatchSimulationJob(points=points)
        full = simulate_batch(group.points)
        for i in range(len(points)):
            (alone,) = simulate_batch(group.subset([i]).points)
            assert alone == full[i]


class TestEngineGroupPath:
    """Per-point cache semantics of BatchSimulationJob groups."""

    def _group(self, vopd_app, rates=(0.1, 0.2, 0.3, 0.4)):
        topology = make_topology("mesh", vopd_app.num_cores)
        return BatchSimulationJob(points=tuple(
            SimulationJob(
                topology=topology, pattern="uniform", rate=rate,
                traffic_seed=1, tag=f"r{rate:g}", **PROTOCOL,
            )
            for rate in rates
        ))

    def test_point_keys_are_namespaced_per_engine_lane(self, vopd_app):
        group = self._group(vopd_app)
        for point, key in zip(group.points, group.point_keys()):
            assert key[0] == "bsim"
            assert key[1:] == point.cache_key()[1:]
            assert point.cache_key()[0] == "sim"

    def test_exact_cache_entries_never_serve_batch_points(self, vopd_app):
        cache = EvaluationCache()
        engine = ExplorationEngine(cache=cache)
        group = self._group(vopd_app)
        engine.run(list(group.points))  # warm the ("sim", …) keys
        warm_misses = cache.stats.misses
        (outcome,) = engine.run([group])
        assert cache.stats.hits == 0
        assert cache.stats.misses == warm_misses + len(group.points)
        assert all(not r.cached for r in outcome.value)

    def test_cache_hits_shrink_the_group(self, vopd_app):
        cache = EvaluationCache()
        engine = ExplorationEngine(cache=cache)
        group = self._group(vopd_app)
        warm = engine.run([group.subset([0, 2])])[0]
        (outcome,) = engine.run([group])
        assert cache.stats.hits == 2
        cached_flags = [r.cached for r in outcome.value]
        assert cached_flags == [True, False, True, False]
        assert outcome.value[0].value == warm.value[0].value
        assert outcome.value[2].value == warm.value[1].value
        # Point tags survive the cache round-trip.
        assert [r.tag for r in outcome.value] == [
            p.tag for p in group.points
        ]
        # A fully warm rerun short-circuits without executing anything.
        (rerun,) = engine.run([group])
        assert rerun.cached
        assert [r.value for r in rerun.value] == [
            r.value for r in outcome.value
        ]

    def test_journal_resume_replays_points_exactly(self, vopd_app, tmp_path):
        group = self._group(vopd_app)
        store = f"sqlite:{tmp_path / 'store.db'}"
        (original,) = ExplorationEngine(cache_backend=store).run([group])
        # A fresh engine on the same persistent store (a rerun after a
        # kill) serves every point and executes none: the whole group
        # short-circuits as a cached hit.
        replay_engine = ExplorationEngine(cache_backend=store)
        (replayed,) = replay_engine.run([group])
        assert replay_engine.cache.stats.hits == len(group.points)
        assert replay_engine.cache.stats.misses == 0
        assert replayed.cached
        assert all(r.cached for r in replayed.value)
        assert [r.value for r in replayed.value] == [
            r.value for r in original.value
        ]

    def test_error_lanes_fail_alone(self, vopd_app):
        topology = make_topology("mesh", vopd_app.num_cores)
        good = SimulationJob(
            topology=topology, pattern="uniform", rate=0.2,
            traffic_seed=1, **PROTOCOL,
        )
        # "app" without a core graph is a per-lane configuration error.
        bad = SimulationJob(
            topology=topology, pattern="app", rate=0.2,
            traffic_seed=1, **PROTOCOL,
        )
        good_report, bad_error = simulate_batch([good, bad])
        assert bad_error.__class__ is SimulationError
        (solo,) = simulate_batch([good])
        assert good_report == solo  # the bad lane perturbed nothing
        (outcome,) = ExplorationEngine().run(
            [BatchSimulationJob(points=(good, bad))]
        )
        good_result, bad_result = outcome.value
        assert good_result.ok and good_result.value == solo
        assert not bad_result.ok
        assert bad_result.error_type == "SimulationError"


class TestRuntimeRecording:
    def test_runtime_block_and_per_point_engine(self, vopd_app):
        result = _campaign(
            vopd_app, "batch", rates=(0.05, 0.1), seeds=(1,),
        )
        runtime = result.to_dict()["runtime"]
        assert set(runtime) == {
            "sim_engine", "wall_clock_s", "points_per_sec",
        }
        assert runtime["sim_engine"] == "batch"
        assert runtime["wall_clock_s"] > 0
        assert runtime["points_per_sec"] > 0
        payload = result.to_dict()
        assert payload["config"]["sim_engine"] == "batch"
        assert all(p["sim_engine"] == "batch" for p in payload["points"])
        assert any(
            line.startswith("runtime") for line in
            result.summary().splitlines()
        )

    def test_exact_payloads_stay_byte_stable(self, vopd_app):
        result = _campaign(
            vopd_app, "exact", rates=(0.05,), seeds=(1,),
        )
        payload = result.to_dict()
        assert "sim_engine" not in payload["config"]
        assert all("sim_engine" not in p for p in payload["points"])


class TestMeanIsOrderStable:
    """``_mean`` uses ``math.fsum``: exact, order-independent sums."""

    def test_catastrophic_cancellation(self):
        assert _mean([1e16, 1.0, -1e16]) == pytest.approx(1.0 / 3.0)

    def test_permutation_invariance(self):
        values = [0.1 * i for i in range(1, 100)] + [1e12, -1e12]
        assert _mean(values) == _mean(list(reversed(values)))
        assert _mean(values) == _mean(sorted(values))
