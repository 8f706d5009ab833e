"""The parallel exploration engine: determinism, caching, errors.

The engine's contract is that results are bit-identical to the serial
path no matter which executor runs the jobs or in which order they
finish — same winners, same costs, same assignments — and
no matter how many threads call ``run`` on one engine at once.
"""

import random
import sys
import threading

import pytest

from repro.apps import dsp_filter, mpeg4, network_processor, vopd
from repro.core.coregraph import CoreGraph
from repro.core.exploration import minimum_bandwidth_per_routing
from repro.core.mapper import MapperConfig
from repro.core.selector import select_topology
from repro.engine import (
    EvaluationCache,
    EvaluationJob,
    ExplorationEngine,
    JobResult,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from repro.engine.backends import MEMORY_MAX_ENTRIES
from repro.errors import ReproError, UnsupportedRoutingError
from repro.service import DesignService
from repro.simulation.campaign import CampaignConfig, run_campaign
from repro.sunmap import run_sunmap
from repro.synthesis import synthesize_topologies
from repro.topology.library import make_topology

#: Single-pass swap search keeps engine tests fast; determinism holds for
#: any config because the search draws no random numbers and results
#: are reduced in submission order.
FAST = MapperConfig(max_rounds=1)

APPS = {
    "vopd": vopd,
    "mpeg4": mpeg4,
    "dsp": dsp_filter,
    "netproc": network_processor,
}


def job_for(app, topology_name="mesh", **kwargs) -> EvaluationJob:
    topology = make_topology(topology_name, app.num_cores)
    kwargs.setdefault("config", FAST)
    return EvaluationJob(
        core_graph=app, topology=topology, tag=topology.name, **kwargs
    )


def selection_digest(selection) -> list:
    """Everything observable about a selection outcome."""
    rows = []
    for name, ev in selection.evaluations.items():
        rows.append(
            (
                name,
                round(ev.cost, 9),
                ev.feasible,
                None if ev.area_mm2 is None else round(ev.area_mm2, 9),
                None if ev.power_mw is None else round(ev.power_mw, 9),
                tuple(sorted(ev.assignment.items())),
            )
        )
    rows.append(("errors", tuple(sorted(selection.errors.items()))))
    rows.append(("best", selection.best_name))
    return rows


class TestExecutors:
    def test_make_executor_mapping(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(4), ProcessExecutor)
        assert make_executor(4).max_workers == 4
        assert isinstance(make_executor(0), ProcessExecutor)

    def test_make_executor_rejects_negative(self):
        with pytest.raises(ReproError):
            make_executor(-2)


class TestCache:
    def test_second_run_is_served_from_cache(self, tiny_app):
        engine = ExplorationEngine()
        job = job_for(tiny_app)
        first = engine.run_one(job)
        second = engine.run_one(job)
        assert not first.cached
        assert second.cached
        assert second.evaluation.cost == first.evaluation.cost
        assert engine.cache.stats.hits == 1
        assert engine.cache.stats.misses == 1

    def test_duplicate_jobs_in_one_batch_execute_once(self, tiny_app):
        engine = ExplorationEngine()
        job = job_for(tiny_app)
        results = engine.run([job, job, job])
        assert [r.cached for r in results] == [False, True, True]
        assert engine.cache.stats.misses == 1
        assert engine.cache.stats.hits == 2
        costs = {r.evaluation.cost for r in results}
        assert len(costs) == 1

    def test_cache_shared_across_engines(self, tiny_app):
        cache = EvaluationCache()
        job = job_for(tiny_app)
        ExplorationEngine(cache=cache).run_one(job)
        result = ExplorationEngine(cache=cache).run_one(job)
        assert result.cached

    def test_placement_variants_do_not_share_cache_keys(self, tiny_app):
        # Same connectivity, different placement: the floorplanner groups
        # blocks into columns by x coordinate, so these must not collide.
        from repro.topology.custom import CustomTopology

        row = CustomTopology(
            "t", [0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)],
            positions={0: (0, 0), 1: (1, 0), 2: (2, 0), 3: (3, 0)},
        )
        column = CustomTopology(
            "t", [0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)],
            positions={0: (0, 0), 1: (0, 1), 2: (0, 2), 3: (0, 3)},
        )
        a = EvaluationJob(core_graph=tiny_app, topology=row, config=FAST)
        b = EvaluationJob(core_graph=tiny_app, topology=column, config=FAST)
        assert a.cache_key() != b.cache_key()

    def test_tag_does_not_affect_cache_key(self, tiny_app):
        a = job_for(tiny_app)
        b = EvaluationJob(
            core_graph=a.core_graph,
            topology=a.topology,
            config=FAST,
            tag="other-tag",
        )
        assert a.cache_key() == b.cache_key()

    def test_mutating_a_result_does_not_poison_the_cache(self, tiny_app):
        engine = ExplorationEngine()
        job = job_for(tiny_app, collect=True)
        first = engine.run_one(job)
        assert first.collected
        first.collected.clear()
        second = engine.run_one(job)
        assert second.cached
        assert second.collected

    def test_bounded_cache_evicts_oldest(self, tiny_app):
        cache = EvaluationCache()
        engine = ExplorationEngine(cache=cache)
        engine.run_one(job_for(tiny_app, "mesh"))
        for i in range(MEMORY_MAX_ENTRIES):  # cheap entries push it out
            cache.put(("filler", i), i)
        assert len(cache) == MEMORY_MAX_ENTRIES
        assert cache.evictions == 1
        assert not engine.run_one(job_for(tiny_app, "mesh")).cached

    def test_parameterized_estimator_subclasses_do_not_collide(self, tiny_app):
        from repro.physical.estimate import NetworkEstimator

        class ScaledEstimator(NetworkEstimator):
            def __init__(self, derate):
                super().__init__()
                self.derate = derate

        a = job_for(tiny_app, estimator=ScaledEstimator(0.8))
        b = job_for(tiny_app, estimator=ScaledEstimator(0.5))
        c = job_for(tiny_app, estimator=NetworkEstimator())
        assert a.cache_key() != b.cache_key()
        assert a.cache_key() != c.cache_key()

    @pytest.mark.parametrize(
        "build",
        [
            lambda app, spec: ExplorationEngine(
                cache=EvaluationCache(), cache_backend=spec
            ),
            lambda app, spec: select_topology(
                app, engine=ExplorationEngine(), cache_backend=spec
            ),
            lambda app, spec: run_sunmap(
                app, engine=ExplorationEngine(), cache_backend=spec
            ),
            lambda app, spec: run_campaign(
                make_topology("mesh", app.num_cores),
                config=CampaignConfig(patterns=("uniform",)),
                engine=ExplorationEngine(),
                cache_backend=spec,
            ),
            lambda app, spec: synthesize_topologies(
                app, engine=ExplorationEngine(), cache_backend=spec
            ),
            lambda app, spec: DesignService(
                engine=ExplorationEngine(), cache_backend=spec
            ),
        ],
        ids=[
            "engine-cache", "select", "sunmap", "campaign", "synthesize",
            "service",
        ],
    )
    def test_ignored_cache_backend_is_rejected(self, tiny_app, tmp_path, build):
        # A persistence request the callee could not honour must not be
        # dropped silently: it is how a killed run resumes.
        store = tmp_path / "store.db"
        with pytest.raises(ValueError, match="cache_backend"):
            build(tiny_app, f"sqlite:{store}")
        assert not store.exists()


def result_digest(result: JobResult) -> tuple:
    """Everything observable about one evaluation result (minus cached)."""
    ev = result.evaluation
    return (
        result.tag,
        ev.cost,
        ev.avg_hops,
        ev.power_mw,
        tuple(sorted(ev.assignment.items())),
    )


class TestConcurrentRuns:
    """One engine shared by several threads, as the design service does."""

    TOPOLOGIES = ("mesh", "torus", "hypercube", "ring", "star")
    #: Repeat runs per thread: after the first, they are cache hits, so
    #: the counters see many racing updates for little compute.
    ROUNDS = 10

    def test_overlapping_runs_match_serial_runs(self, vopd_app):
        names = self.TOPOLOGIES
        # Thread i runs three consecutive library entries (wrapping), so
        # every job is shared by several threads and racing on the cache.
        job_lists = [
            [job_for(vopd_app, names[(i + k) % len(names)]) for k in range(3)]
            for i in range(4)
        ]
        reference = {
            r.tag: result_digest(r)
            for r in ExplorationEngine().run(
                [job_for(vopd_app, name) for name in names]
            )
        }
        engine = ExplorationEngine()
        barrier = threading.Barrier(len(job_lists))
        results: dict[int, list[list[JobResult]]] = {}
        errors: list[BaseException] = []

        def worker(i: int) -> None:
            try:
                barrier.wait()
                results[i] = [
                    engine.run(job_lists[i]) for _ in range(self.ROUNDS)
                ]
            except BaseException as exc:  # surfaced on the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(job_lists))
        ]
        # A short switch interval makes the threads interleave inside
        # the cache's and the engine's read-modify-write updates.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for i, jobs in enumerate(job_lists):
            for round_results in results[i]:
                assert [result_digest(r) for r in round_results] == [
                    reference[job.tag] for job in jobs
                ]
        lookups = self.ROUNDS * sum(len(jobs) for jobs in job_lists)
        stats = engine.cache.stats
        assert stats.hits + stats.misses == lookups
        assert engine.passes == self.ROUNDS * len(job_lists)
        assert engine.failure_stats == {}


class TestSeeds:
    """The mapping search draws no random numbers of its own."""

    def test_global_rng_state_restored_after_in_process_job(self, tiny_app):
        # Serial jobs run in the caller's process; they must not clobber
        # the caller's own random state.
        random.seed(42)
        expected = random.random()
        random.seed(42)
        ExplorationEngine().run_one(job_for(tiny_app))
        assert random.random() == expected


class TestErrorCapture:
    def test_too_many_cores_is_captured(self):
        app = CoreGraph("too-big")
        for i in range(6):
            app.add_core(f"c{i}")
        app.add_flow("c0", "c1", 10.0)
        topology = make_topology("mesh", 4)  # 4 slots < 6 cores
        result = ExplorationEngine().run_one(
            EvaluationJob(core_graph=app, topology=topology, config=FAST)
        )
        assert not result.ok
        assert result.error_type == "MappingInfeasibleError"
        with pytest.raises(ReproError):
            result.raise_if_error()

    def test_error_class_recognizes_subclasses(self):
        class CustomUnsupported(UnsupportedRoutingError):
            pass

        result = JobResult(
            tag="t", error="no route", error_type="CustomUnsupported"
        )
        assert result.error_class is CustomUnsupported
        assert result.is_unsupported_routing()
        with pytest.raises(CustomUnsupported):
            result.raise_if_error()

    def test_unknown_error_type_falls_back_to_repro_error(self):
        result = JobResult(tag="t", error="boom", error_type="Mystery")
        assert result.error_class is ReproError
        assert not result.is_unsupported_routing()

    def test_unsupported_routing_matches_serial_selector(self, tiny_app):
        # DO routing is undefined on Clos: the selector records the error
        # identically whether jobs run serially or through a pool.
        topologies = [make_topology("mesh", 4), make_topology("clos", 4)]
        serial = select_topology(
            tiny_app, topologies=topologies, routing="DO", config=FAST
        )
        parallel = select_topology(
            tiny_app, topologies=topologies, routing="DO", config=FAST,
            jobs=2,
        )
        assert serial.errors and "clos" in next(iter(serial.errors))
        assert selection_digest(serial) == selection_digest(parallel)


class TestParallelDeterminism:
    @pytest.mark.parametrize("app_name", sorted(APPS))
    def test_selection_identical_serial_vs_jobs4(self, app_name):
        app = APPS[app_name]()
        serial = select_topology(app, objective="hops", config=FAST)
        parallel = select_topology(
            app, objective="hops", config=FAST, jobs=4
        )
        assert selection_digest(serial) == selection_digest(parallel)

    def test_sunmap_report_identical_serial_vs_jobs4(self, vopd_app):
        serial = run_sunmap(vopd_app, objective="hops", config=FAST)
        parallel = run_sunmap(
            vopd_app, objective="hops", config=FAST, jobs=4
        )
        assert serial.best_topology_name == parallel.best_topology_name
        assert serial.attempted_routings == parallel.attempted_routings
        assert selection_digest(serial.selection) == selection_digest(
            parallel.selection
        )
        assert serial.summary() == parallel.summary()
        assert serial.systemc == parallel.systemc

    def test_bandwidth_sweep_identical_serial_vs_jobs2(self, tiny_app):
        topology = make_topology("mesh", 4)
        serial = minimum_bandwidth_per_routing(
            tiny_app, topology, config=FAST
        )
        parallel = minimum_bandwidth_per_routing(
            tiny_app, topology, config=FAST, jobs=2
        )
        assert serial == parallel

    def test_selection_accepts_one_shot_iterables(self, tiny_app):
        topologies = (t for t in [make_topology("mesh", 4)])
        selection = select_topology(
            tiny_app, topologies=topologies, config=FAST
        )
        assert selection.evaluations
        assert selection.best_name is not None

    def test_sweep_grid_runs_every_candidate(self, tiny_app):
        engine = ExplorationEngine()
        results = engine.sweep(
            tiny_app,
            topologies=[make_topology("mesh", 4)],
            routings=("MP", "SM"),
            objectives=("hops", "bandwidth"),
            config=FAST,
        )
        assert len(results) == 4
        assert all(r.ok for r in results.values())
        names = {key[0] for key in results}
        assert names == {make_topology("mesh", 4).name}
