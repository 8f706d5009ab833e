"""Closed-loop simulation campaigns: determinism, curves, saturation."""

from __future__ import annotations

import math

import pytest

from repro.apps import dsp_filter, mpeg4, network_processor, vopd
from repro.core.greedy import initial_greedy_mapping
from repro.engine import ExplorationEngine, SimulationJob
from repro.errors import SimulationError
from repro.simulation.campaign import (
    CampaignConfig,
    campaign_jobs,
    detect_saturation,
    run_campaign,
    strip_runtime,
)
from repro.sunmap import run_sunmap
from repro.topology.library import make_topology

#: Tolerated relative latency dip between consecutive pre-saturation
#: points (finite-sample noise at low load).
MONOTONE_SLACK = 0.10

TINY = dict(warmup=200, measure=800, drain=600)


def _mesh_setup(build):
    app = build()
    topology = make_topology("mesh", app.num_cores)
    assignment = initial_greedy_mapping(app, topology)
    return app, topology, assignment


class TestCampaignConfig:
    def test_defaults_are_valid(self):
        config = CampaignConfig()
        assert config.num_points == len(config.rates) * len(
            config.patterns
        ) * len(config.seeds)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rates": ()},
            {"rates": (0.2, 0.1)},
            {"rates": (-0.1, 0.2)},
            {"rates": (0.1, 0.1)},
            {"patterns": ()},
            {"patterns": ("warp_speed",)},
            {"patterns": ("uniform", "uniform")},
            {"seeds": ()},
            {"seeds": (1, 1)},
            {"saturation_threshold": 0.0},
            {"saturation_threshold": 1.5},
            {"latency_blowup": 1.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            CampaignConfig(**kwargs)

    def test_app_pattern_requires_mapping(self):
        topology = make_topology("mesh", 12)
        with pytest.raises(SimulationError, match="'app'"):
            run_campaign(topology, config=CampaignConfig(rates=(0.1,)))


class TestSaturationDetection:
    def test_no_saturation(self):
        assert (
            detect_saturation(
                (0.1, 0.2), (10.0, 12.0), (1.0, 1.0)
            )
            is None
        )

    def test_delivery_collapse(self):
        rate = detect_saturation(
            (0.1, 0.2, 0.3), (10.0, 12.0, 14.0), (1.0, 1.0, 0.5)
        )
        assert rate == 0.3

    def test_latency_blowup(self):
        rate = detect_saturation(
            (0.1, 0.2, 0.3), (10.0, 12.0, 100.0), (1.0, 1.0, 1.0)
        )
        assert rate == 0.3

    def test_unbounded_latency(self):
        rate = detect_saturation(
            (0.1, 0.2), (10.0, math.inf), (1.0, 1.0)
        )
        assert rate == 0.2

    def test_all_unbounded(self):
        # No finite baseline: only delivery/unboundedness can trigger.
        assert detect_saturation((0.1,), (math.inf,), (1.0,)) == 0.1


class TestCampaignDeterminism:
    def test_jobs1_and_jobs4_bit_identical(self):
        """Acceptance: serial and process-pool campaigns match bit for
        bit, including curve statistics and switch histograms."""
        app, topology, assignment = _mesh_setup(vopd)
        config = CampaignConfig(
            rates=(0.1, 0.4),
            patterns=("app", "uniform"),
            seeds=(1, 2),
            **TINY,
        )
        serial = run_campaign(
            topology, app, assignment, config=config, jobs=1
        )
        parallel = run_campaign(
            topology, app, assignment, config=config, jobs=4
        )
        assert strip_runtime(serial.to_dict()) == strip_runtime(
            parallel.to_dict()
        )

    def test_rerun_with_same_engine_hits_cache(self):
        app, topology, assignment = _mesh_setup(dsp_filter)
        config = CampaignConfig(
            rates=(0.1, 0.3), patterns=("uniform",), **TINY
        )
        engine = ExplorationEngine()
        first = run_campaign(
            topology, app, assignment, config=config, engine=engine
        )
        hits_before = engine.cache.stats.hits
        second = run_campaign(
            topology, app, assignment, config=config, engine=engine
        )
        assert engine.cache.stats.hits >= hits_before + config.num_points
        assert strip_runtime(first.to_dict()) == strip_runtime(
            second.to_dict()
        )

    def test_simulation_jobs_coexist_with_evaluation_jobs(self):
        """One engine batch can mix mapping searches and sim points."""
        app, topology, assignment = _mesh_setup(dsp_filter)
        engine = ExplorationEngine()
        sim_job = campaign_jobs(
            topology,
            CampaignConfig(rates=(0.1,), patterns=("uniform",), **TINY),
            assignment=assignment,
        )[0]
        eval_job = engine.selection_jobs(app, topologies=[topology])[0]
        results = engine.run([sim_job, eval_job])
        assert results[0].value is not None
        assert results[1].evaluation is not None


class TestCampaignCurves:
    @pytest.mark.parametrize(
        "build", [vopd, mpeg4, dsp_filter, network_processor]
    )
    def test_benchmark_apps_monotone_until_saturation(self, build):
        """Acceptance: every benchmark app's trace-driven latency curve
        rises monotonically (within noise) up to a detected saturation
        rate."""
        app, topology, assignment = _mesh_setup(build)
        config = CampaignConfig(
            rates=(0.05, 0.15, 0.3, 0.5, 0.8),
            patterns=("app",),
            seeds=(1,),
            warmup=300,
            measure=1500,
            drain=1200,
        )
        result = run_campaign(topology, app, assignment, config=config)
        curve = result.curves["app"]
        assert curve.saturation_rate is not None
        pre = curve.pre_saturation()
        assert pre, "curve saturated at the lowest swept rate"
        for (_, lat0), (_, lat1) in zip(pre, pre[1:]):
            assert lat1 >= lat0 * (1 - MONOTONE_SLACK)

    def test_switch_load_histograms(self):
        app, topology, assignment = _mesh_setup(vopd)
        config = CampaignConfig(
            rates=(0.2,), patterns=("uniform", "hotspot"), **TINY
        )
        result = run_campaign(topology, app, assignment, config=config)
        assert set(result.switch_loads) == {"uniform", "hotspot"}
        for loads in result.switch_loads.values():
            assert loads  # every pattern produced traffic
            assert all(flits >= 0 for flits in loads.values())
            assert sum(loads.values()) > 0
        # Hotspot traffic concentrates harder than uniform traffic: its
        # hottest switch carries a larger share of the total load.
        def peak_share(loads):
            return max(loads.values()) / sum(loads.values())

        assert peak_share(result.switch_loads["hotspot"]) > peak_share(
            result.switch_loads["uniform"]
        )

    def test_seed_averaging_covers_all_rates(self):
        app, topology, assignment = _mesh_setup(dsp_filter)
        config = CampaignConfig(
            rates=(0.1, 0.3), patterns=("uniform",), seeds=(1, 2, 3),
            **TINY,
        )
        result = run_campaign(topology, app, assignment, config=config)
        assert len(result.points) == 6
        curve = result.curves["uniform"]
        assert curve.rates == (0.1, 0.3)
        assert all(math.isfinite(v) for v in curve.avg_latency)

    def test_summary_and_to_dict(self):
        app, topology, assignment = _mesh_setup(dsp_filter)
        config = CampaignConfig(
            rates=(0.1,), patterns=("app", "uniform"), **TINY
        )
        result = run_campaign(topology, app, assignment, config=config)
        text = result.summary()
        assert "campaign: dsp-filter" in text
        assert "saturation rates" in text
        assert "hottest switches" in text
        payload = result.to_dict()
        assert payload["topology"] == topology.name
        assert set(payload["curves"]) == {"app", "uniform"}
        assert len(payload["points"]) == 2


class TestSunmapIntegration:
    def test_run_sunmap_attaches_campaign(self, dsp_app):
        config = CampaignConfig(
            rates=(0.1, 0.3), patterns=("app", "uniform"), **TINY
        )
        report = run_sunmap(
            dsp_app,
            topologies=[make_topology("mesh", dsp_app.num_cores)],
            generate=False,
            simulate=config,
        )
        assert report.campaign is not None
        assert report.campaign.application == dsp_app.name
        assert report.campaign.topology_name == report.best_topology_name
        assert "campaign:" in report.summary()

    def test_run_sunmap_simulate_true_uses_defaults(self, dsp_app):
        # simulate=True runs the default sweep; cap it via topologies to
        # one topology but keep the assertion on wiring only.
        report = run_sunmap(
            dsp_app,
            topologies=[make_topology("mesh", dsp_app.num_cores)],
            generate=False,
            simulate=CampaignConfig(
                rates=(0.1,), patterns=("uniform",), **TINY
            ),
        )
        assert report.campaign is not None
        assert report.campaign.curves["uniform"].rates == (0.1,)

    def test_campaign_active_slots_follow_mapping(self):
        """Synthetic campaign traffic runs between the mapped slots."""
        app, topology, assignment = _mesh_setup(dsp_filter)
        jobs = campaign_jobs(
            topology,
            CampaignConfig(rates=(0.1,), patterns=("uniform",), **TINY),
            core_graph=app,
            assignment=assignment,
        )
        assert jobs[0].active_slots == tuple(sorted(assignment.values()))

    def test_simulation_job_is_picklable(self):
        import pickle

        app, topology, assignment = _mesh_setup(dsp_filter)
        job = campaign_jobs(
            topology,
            CampaignConfig(rates=(0.1,), patterns=("app",), **TINY),
            core_graph=app,
            assignment=assignment,
        )[0]
        clone = pickle.loads(pickle.dumps(job))
        assert isinstance(clone, SimulationJob)
        assert clone.cache_key() == job.cache_key()

    def test_topology_pickle_drops_simulator_layouts(self):
        """Engine jobs ship topologies to workers: a topology that ran on
        both simulator lanes pickles its derived tables exactly as a
        pristine one does (the lane layouts rebuild on the other side)."""
        import pickle

        topology = make_topology("mesh", 12)
        for lane in ("exact", "batch"):
            run_campaign(
                topology,
                config=CampaignConfig(
                    rates=(0.1,), patterns=("uniform",), seeds=(1,),
                    sim_engine=lane, **TINY,
                ),
            )
        assert topology.derived("sim_layout")
        assert topology.derived("batch_layout")

        pristine = make_topology("mesh", 12)
        assert topology.__getstate__()["_derived"] == {}
        assert pristine.__getstate__()["_derived"] == {}
        clone = pickle.loads(pickle.dumps(topology))
        assert clone._derived == {}
