"""Chaos suite for the resilient execution runtime.

Workers are killed mid-job (``os._exit`` crash bombs) and transient
failures strike N times before a success — and the runtime must degrade
exactly as specified: innocents finish untouched, pools rebuild, retries
re-run the *same* job bit-identically, exhausted budgets surface
as typed :class:`~repro.engine.resilience.JobFailure` results that the
engine re-raises, and a run killed mid-sweep resumes bit-identically
when it is rerun on the same persistent ``--cache`` store.
"""

from __future__ import annotations

import os
import signal
import sqlite3
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from repro.core.mapper import MapperConfig
from repro.engine import (
    EvaluationJob,
    ExplorationEngine,
    JobFailure,
    ProcessExecutor,
    SerialExecutor,
    classify_failure,
    make_backend,
)
from repro.engine.jobs import JobResult
from repro.engine.resilience import (
    BACKOFF_BASE_S,
    BACKOFF_FACTOR,
    JITTER,
    MAX_ATTEMPTS,
    MAX_BACKOFF_S,
    backoff_s,
    failure_from,
)
from repro.errors import (
    JobFailedError,
    MappingInfeasibleError,
    ReproError,
    RetryableError,
    ServiceBusyError,
    WorkerCrashError,
)
from repro.obs import RingSink, add_sink, remove_sink
from repro.obs import metrics as obs_metrics
from repro.simulation.campaign import (
    CampaignConfig,
    campaign_jobs,
    run_campaign,
)
from repro.topology.library import make_topology

FAST_MAPPER = MapperConfig(max_rounds=1)


@dataclass(frozen=True)
class ChaosJob:
    """Minimal picklable job whose behaviour is directed by ``action``.

    ``scratch`` (a per-test temp directory) carries an attempt counter
    across worker processes, so tests can assert exactly how many times
    a job really executed.
    """

    tag: str
    action: str = "ok"   # ok | crash | flaky | fatal | pid
    value: float = 0.0
    scratch: str | None = None
    fail_times: int = 0

    def cache_key(self) -> tuple:
        return ("chaos", self.tag, self.action, self.value, self.fail_times)


def _bump_attempts(job: ChaosJob) -> int:
    """Count this execution in the cross-process scratch file."""
    if job.scratch is None:
        return 1
    path = Path(job.scratch) / f"{job.tag}.attempts"
    count = int(path.read_text()) if path.exists() else 0
    path.write_text(str(count + 1))
    return count + 1


def chaos_fn(job: ChaosJob) -> JobResult:
    """Executor-side chaos dispatcher (module-level: must pickle)."""
    attempt = _bump_attempts(job)
    if job.action == "crash":
        os._exit(17)
    if job.action == "flaky" and attempt <= job.fail_times:
        raise OSError(f"transient failure #{attempt} of {job.tag}")
    if job.action == "fatal":
        raise MappingInfeasibleError(f"{job.tag} is deterministically out")
    payload = os.getpid() if job.action == "pid" else job.value
    return JobResult(tag=job.tag, value=payload)


def attempts_of(scratch, job: ChaosJob) -> int:
    path = Path(scratch) / f"{job.tag}.attempts"
    return int(path.read_text()) if path.exists() else 0


def run_all(executor, jobs) -> dict[int, JobResult]:
    return dict(executor.run(chaos_fn, list(enumerate(jobs))))


class TestFailureTaxonomy:
    def test_transient_failures_are_retryable(self):
        for exc in (
            OSError("pipe"),
            TimeoutError("late"),
            BrokenProcessPool("worker died"),
            RetryableError("explicit"),
            ServiceBusyError("full"),  # RetryableError subclass
        ):
            assert classify_failure(exc), exc

    def test_domain_and_unknown_errors_are_final(self):
        for exc in (
            ReproError("domain"),
            MappingInfeasibleError("no mapping"),
            ValueError("a bug"),
            RuntimeError("another bug"),
        ):
            assert not classify_failure(exc), exc


class TestRetryPolicy:
    def test_backoff_is_deterministic_in_seed_and_attempt(self):
        # The jitter is keyed on the job's tag, the one label a job keeps
        # across runs of the same sweep.
        assert backoff_s(2, "mesh") == backoff_s(2, "mesh")
        assert backoff_s(1, "mesh") != backoff_s(2, "mesh")
        assert backoff_s(1, "mesh") != backoff_s(1, "torus")

    def test_backoff_is_bounded(self):
        for attempt in range(1, 10):
            delay = backoff_s(attempt, tag="mesh")
            base = min(
                MAX_BACKOFF_S, BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1)
            )
            assert base * (1 - JITTER) <= delay <= base


class TestJobFailure:
    def test_captured_exception_is_reraised_verbatim(self):
        original = ValueError("the actual bug")
        failure = failure_from(
            ChaosJob("j"), original, attempts=1, kind="error"
        )
        assert failure.to_exception() is original
        with pytest.raises(ValueError, match="the actual bug"):
            failure.raise_if_error()

    def test_uncaptured_exception_becomes_job_failed_error(self):
        failure = JobFailure(
            tag="bomb", error="boom", attempts=3, failure_kind="crash"
        )
        exc = failure.to_exception()
        assert isinstance(exc, JobFailedError)
        assert "bomb" in str(exc) and "3 attempt" in str(exc)

    def test_failure_fields_and_ok_flag(self):
        failure = failure_from(
            ChaosJob("t"), OSError("pipe"), attempts=2, kind="error"
        )
        assert not failure.ok
        assert failure.error_type == "OSError"
        assert failure.attempts == 2

    def test_retagged_preserves_the_failure_subclass(self):
        failure = failure_from(
            ChaosJob("t"), WorkerCrashError("died"), attempts=2, kind="crash"
        )
        copy = failure.retagged("renamed", cached=False)
        assert isinstance(copy, JobFailure)
        assert copy.attempts == 2
        assert copy.failure_kind == "crash"
        assert copy.tag == "renamed"


class TestSerialResilience:
    def test_flaky_job_recovers_bit_identically(self, tmp_path):
        flaky = ChaosJob(
            "flaky", action="flaky", value=4.5,
            scratch=str(tmp_path), fail_times=2,
        )
        result = run_all(SerialExecutor(), [flaky])[0]
        assert result.ok
        assert attempts_of(tmp_path, flaky) == 3
        # A retried success is indistinguishable from a first-try one.
        clean = chaos_fn(ChaosJob("flaky", action="ok", value=4.5))
        assert result.value == clean.value

    def test_exhausted_budget_yields_typed_failure(self, tmp_path):
        doomed = ChaosJob(
            "doomed", action="flaky", scratch=str(tmp_path), fail_times=99
        )
        result = run_all(SerialExecutor(), [doomed])[0]
        assert isinstance(result, JobFailure)
        assert result.attempts == MAX_ATTEMPTS
        assert attempts_of(tmp_path, doomed) == MAX_ATTEMPTS

    def test_fatal_error_is_not_retried(self, tmp_path):
        fatal = ChaosJob("fatal", action="fatal", scratch=str(tmp_path))
        result = run_all(SerialExecutor(), [fatal])[0]
        assert isinstance(result, JobFailure)
        assert result.attempts == 1
        assert result.failure_kind == "error"
        assert attempts_of(tmp_path, fatal) == 1

    def test_job_span_reports_the_real_attempt_count(self, tmp_path, spans):
        flaky = ChaosJob(
            "flaky", action="flaky", scratch=str(tmp_path), fail_times=2
        )
        run_all(SerialExecutor(), [flaky, ChaosJob("fatal", action="fatal")])
        attrs = [span["attrs"] for span in job_spans(spans)]
        assert [(a["tag"], a["attempts"], a["ok"]) for a in attrs] == [
            ("flaky", 3, True),
            ("fatal", 1, False),
        ]


@pytest.fixture
def spans():
    """Install a RingSink for the duration of one test."""
    sink = RingSink()
    add_sink(sink)
    yield sink
    remove_sink(sink)


def job_spans(sink: RingSink) -> list[dict]:
    return [s for s in sink.spans() if s["name"] == "engine.job"]


class TestProcessResilience:
    def test_crash_bomb_spares_innocent_neighbours(self, tmp_path):
        jobs = [
            ChaosJob("a", value=1.0),
            ChaosJob("bomb", action="crash", scratch=str(tmp_path)),
            ChaosJob("b", value=2.0),
            ChaosJob("c", value=3.0),
        ]
        rebuilds = obs_metrics.REGISTRY.counter(
            "repro_engine_pool_rebuilds_total"
        )
        before = rebuilds.value()
        results = run_all(ProcessExecutor(max_workers=2), jobs)
        bomb = results[1]
        assert isinstance(bomb, JobFailure)
        assert bomb.failure_kind == "crash"
        assert bomb.attempts == MAX_ATTEMPTS == 3
        assert "worker process died" in bomb.error
        for index, value in ((0, 1.0), (2, 2.0), (3, 3.0)):
            assert results[index].ok
            assert results[index].value == value
        assert rebuilds.value() - before >= 1

    def test_every_job_gets_one_span_even_when_it_crashed(
        self, tmp_path, spans
    ):
        jobs = [
            ChaosJob("a", value=1.0),
            ChaosJob("bomb", action="crash", scratch=str(tmp_path)),
            ChaosJob("c", value=3.0),
        ]
        results = run_all(ProcessExecutor(max_workers=2), jobs)
        assert sorted(results) == [0, 1, 2]
        by_tag = {}
        for span in job_spans(spans):
            by_tag.setdefault(span["attrs"]["tag"], []).append(span)
        assert sorted(by_tag) == ["a", "bomb", "c"]
        assert all(len(found) == 1 for found in by_tag.values())
        (bomb,) = by_tag["bomb"]
        assert bomb["attrs"]["ok"] is False
        assert bomb["attrs"]["attempts"] == MAX_ATTEMPTS
        assert by_tag["a"][0]["attrs"]["ok"] is True

    def test_pool_flaky_retry_matches_clean_run(self, tmp_path):
        flaky = ChaosJob(
            "poolflaky", action="flaky", value=9.0,
            scratch=str(tmp_path), fail_times=1,
        )
        results = run_all(
            ProcessExecutor(max_workers=2),
            [flaky, ChaosJob("peer", value=1.0)],
        )
        assert results[0].ok
        assert results[0].value == 9.0
        assert attempts_of(tmp_path, flaky) == 2

    def test_single_job_runs_in_process_without_timeout(self):
        result = run_all(
            ProcessExecutor(max_workers=4),
            [ChaosJob("solo", action="pid")],
        )[0]
        assert result.value == os.getpid()  # fast path: no pool spawned


class FailingExecutor:
    """Engine-test stub: fails the given submission indexes."""

    name = "failing"

    def __init__(self, fail_indexes, exception=None, kind="crash"):
        self.fail_indexes = set(fail_indexes)
        self.exception = exception
        self.kind = kind

    def run(self, fn, indexed_jobs):
        for position, (index, job) in enumerate(indexed_jobs):
            if position in self.fail_indexes:
                exc = self.exception or WorkerCrashError(
                    f"chaos took {job.tag or index!r}"
                )
                yield index, failure_from(job, exc, attempts=3, kind=self.kind)
            else:
                yield index, fn(job)


def tiny_jobs(tiny_app, topologies=("mesh", "ring")) -> list[EvaluationJob]:
    return [
        EvaluationJob(
            core_graph=tiny_app,
            topology=make_topology(name, tiny_app.num_cores),
            config=FAST_MAPPER,
            tag=name,
        )
        for name in topologies
    ]


class TestEngineFailureHandling:
    def test_on_failure_raise_reraises_the_original(self, tiny_app):
        sentinel = ValueError("the original exception object")
        engine = ExplorationEngine(
            executor=FailingExecutor([0], exception=sentinel, kind="error")
        )
        with pytest.raises(ValueError) as excinfo:
            engine.run(tiny_jobs(tiny_app))
        assert excinfo.value is sentinel
        assert engine.failure_stats["error"] == 1

    def test_failures_are_never_cached_or_journaled(self, tiny_app, tmp_path):
        store = f"sqlite:{tmp_path / 'store.db'}"
        engine = ExplorationEngine(
            executor=FailingExecutor([1]), cache_backend=store
        )
        jobs = tiny_jobs(tiny_app)
        with pytest.raises(WorkerCrashError):
            engine.run(jobs)
        assert engine.failure_stats["crash"] == 1
        # The finished neighbour is stored; the failed job is not.
        assert len(engine.cache.backend) == 1
        assert engine.cache.get(jobs[0].cache_key()) is not None
        assert engine.cache.get(jobs[1].cache_key()) is None
        # A rerun on the same store retries the failed work (no poison).
        rerun = ExplorationEngine(cache_backend=store)
        results = rerun.run(jobs)
        assert all(r.ok for r in results)
        assert [r.cached for r in results] == [True, False]
        assert len(rerun.cache.backend) == len(jobs)


class TestCampaignResilience:
    CONFIG = CampaignConfig(
        rates=(0.05, 0.1),
        patterns=("uniform", "transpose"),
        seeds=(1,),
        warmup=20,
        measure=60,
        drain=20,
    )

    def test_failed_exact_lane_chunk_reraises_and_caches_nothing(
        self, tiny_app
    ):
        topology = make_topology("mesh", tiny_app.num_cores)
        sentinel = OSError("chaos took an exact-lane point")
        engine = ExplorationEngine(
            executor=FailingExecutor([1], exception=sentinel)
        )
        # Under a deadline the exact lane runs one chunk per pattern;
        # the first chunk's second point fails.
        with pytest.raises(OSError) as excinfo:
            run_campaign(
                topology, config=self.CONFIG, engine=engine, deadline_s=60.0
            )
        assert excinfo.value is sentinel
        assert engine.failure_stats["crash"] == 1
        jobs = campaign_jobs(topology, self.CONFIG)
        assert engine.cache.get(jobs[0].cache_key()) is not None
        assert engine.cache.get(jobs[1].cache_key()) is None
        assert len(engine.cache) == 1  # the rest never ran

    def test_failed_batch_lane_group_reraises_and_caches_nothing(
        self, tiny_app
    ):
        topology = make_topology("mesh", tiny_app.num_cores)
        config = replace(self.CONFIG, sim_engine="batch")
        sentinel = WorkerCrashError("chaos took the batch group")
        engine = ExplorationEngine(
            executor=FailingExecutor([0], exception=sentinel)
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            run_campaign(topology, config=config, engine=engine)
        assert excinfo.value is sentinel
        assert engine.failure_stats["crash"] == 1
        assert len(engine.cache) == 0

    def test_clean_run_report_shape_is_unchanged(self, tiny_app):
        topology = make_topology("mesh", tiny_app.num_cores)
        result = run_campaign(topology, config=self.CONFIG)
        assert not result.degraded
        for absent in ("failures", "degraded", "skipped_points"):
            assert absent not in result.to_dict()

    def test_deadline_returns_partial_results_flagged_degraded(
        self, tiny_app
    ):
        topology = make_topology("mesh", tiny_app.num_cores)
        result = run_campaign(
            topology, config=self.CONFIG, deadline_s=1e-9
        )
        # The first chunk always runs; the rest is shed, and says so.
        assert result.degraded
        assert result.skipped_points == 2
        assert len(result.points) == 2
        assert "DEGRADED" in result.summary()
        dumped = result.to_dict()
        assert dumped["degraded"] is True
        assert dumped["skipped_points"] == 2

    def test_batch_lane_deadline_keeps_the_first_fault_variant(
        self, tiny_app
    ):
        topology = make_topology("mesh", tiny_app.num_cores)
        config = replace(
            self.CONFIG, sim_engine="batch", faults=1, fault_seeds=(1, 2)
        )
        per_variant = 4  # 2 rates x 2 patterns x 1 seed
        full = run_campaign(topology, config=config)
        result = run_campaign(topology, config=config, deadline_s=1e-9)
        # The first variant's group always runs; the second is shed.
        assert result.degraded
        assert result.skipped_points == per_variant
        assert result.points == [p for p in full.points if p.fault_seed == 1]
        assert len(result.points) == per_variant


def digest(results) -> list[tuple]:
    """Everything observable about evaluation results (minus cached)."""
    return [
        (
            r.tag,
            round(r.evaluation.cost, 12),
            tuple(sorted(r.evaluation.assignment.items())),
        )
        for r in results
    ]


class TestJournal:
    """Resuming a killed run: a fresh engine on the same persistent store."""

    def test_record_then_resume_replays_equal_results(self, tmp_path):
        path = tmp_path / "store.db"
        recorded = JobResult(tag="", value=42.5)
        store = make_backend(f"sqlite:{path}")
        store.put(("k", 1), recorded)
        store.put(("k", 2), JobResult(tag="", value=1.0))
        store.close()
        reopened = make_backend(f"sqlite:{path}")
        assert len(reopened) == 2
        assert reopened.get(("k", 1)) == recorded
        assert reopened.get(("k", 2)) is not None
        assert reopened.get(("missing",)) is None
        reopened.close()

    def test_engine_resume_is_bit_identical(self, tiny_app, tmp_path):
        store = f"sqlite:{tmp_path / 'store.db'}"
        jobs = tiny_jobs(tiny_app, ("mesh", "ring", "star"))
        first = ExplorationEngine(cache_backend=store).run(jobs)
        # Fresh engine, fresh process-local state: everything must come
        # from the persistent store.
        engine = ExplorationEngine(cache_backend=store)
        second = engine.run(jobs)
        assert digest(second) == digest(first)
        assert all(r.cached for r in second)
        assert engine.cache.stats.hits == len(jobs)
        assert engine.cache.stats.misses == 0
        # And identical to a run that never touched a persistent store.
        bare = ExplorationEngine().run(jobs)
        assert digest(bare) == digest(first)


#: 3 rates x 2 patterns x 2 seeds; long enough per point (~0.1 s) that
#: the kill below lands mid-sweep rather than after it.
CLI_CAMPAIGN = [
    "simulate", "--app", "vopd", "--topology", "mesh",
    "--rates", "0.05,0.08,0.1", "--patterns", "uniform,transpose",
    "--seeds", "1,2", "--cycles", "8000", "--warmup", "150",
    "--drain", "300",
]
CLI_POINTS = 12


REPO = Path(__file__).resolve().parents[2]


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    return env


def run_cli(args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True, text=True, timeout=timeout, env=_cli_env(),
        cwd=REPO,
    )


def _sqlite_entries(path: Path) -> int:
    """Committed entries in a SQLite store another process is writing."""
    try:
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        try:
            return conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
        finally:
            conn.close()
    except sqlite3.Error:
        return 0  # not created yet


def _counter(prom_text: str, name: str, backend: str) -> float:
    """One ``{backend=...}`` sample of a Prometheus counter (0 if absent)."""
    prefix = f'{name}{{backend="{backend}"}} '
    for line in prom_text.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    return 0.0


class TestCliKillResume:
    def test_killed_campaign_resumes_bit_identically(self, tmp_path):
        """SIGKILL a ``--cache`` campaign once its store holds an entry,
        rerun it on the same store and check it resumed bit-identically."""
        clean = run_cli(CLI_CAMPAIGN)
        assert clean.returncode == 0, clean.stderr
        store = tmp_path / "store.db"
        spec = f"sqlite:{store}"
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *CLI_CAMPAIGN, "--cache", spec],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=_cli_env(), cwd=REPO,
        )
        # Let it store at least one completed point, then kill it the
        # hard way (no cleanup handlers run).
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if _sqlite_entries(store) > 0:
                break
            if victim.poll() is not None:
                break  # finished whole; the rerun serves everything
            time.sleep(0.02)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
        assert _sqlite_entries(store) > 0

        metrics = tmp_path / "rerun.prom"
        resumed = run_cli(
            [*CLI_CAMPAIGN, "--cache", spec, "--metrics", str(metrics)]
        )
        assert resumed.returncode == 0, resumed.stderr
        assert _strip_runtime_lines(resumed.stdout) == _strip_runtime_lines(
            clean.stdout
        )
        prom = metrics.read_text()
        hits = _counter(prom, "repro_cache_hits_total", "sqlite")
        misses = _counter(prom, "repro_cache_misses_total", "sqlite")
        assert hits > 0
        assert hits + misses == CLI_POINTS


def _strip_runtime_lines(text: str) -> str:
    """Drop the summary's wall-clock line — the one legitimately
    non-deterministic output (see CampaignResult.summary)."""
    return "\n".join(
        line
        for line in text.splitlines()
        if not line.startswith("runtime")
    )
