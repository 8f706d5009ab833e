"""Pluggable job executors: serial in-process and multi-process.

An executor receives ``(index, job)`` pairs and yields ``(index, result)``
pairs in *any* order — the engine reduces them back into submission order,
so correctness never depends on completion order. The process executor
fans jobs out over :class:`concurrent.futures.ProcessPoolExecutor`; a job's
result depends only on its content, so both executors produce
bit-identical results.

Both executors share the fixed retry budget of
:mod:`~repro.engine.resilience` (crash-tolerant execution): transient
failures — a worker killed mid-job, an ``OSError`` — are retried with
deterministic backoff, a broken pool is rebuilt and only the lost jobs
resubmitted, and a job that exhausts its budget yields a typed
:class:`~repro.engine.resilience.JobFailure` result instead of tearing
down the pool. Retries re-run the same job, so success after a retry is
bit-identical to first-try success.
"""

from __future__ import annotations

import os
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Protocol

from repro.engine.jobs import EvaluationJob, JobResult, job_kind
from repro.engine.resilience import (
    MAX_ATTEMPTS,
    RETRIES,
    _failure_kind,
    backoff_s,
    classify_failure,
    failure_from,
    run_with_retries,
)
from repro.errors import ReproError, WorkerCrashError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

_JOB_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_job_seconds", "Per-job execution latency by job kind", ("kind",)
)
_QUEUE_WAIT = obs_metrics.REGISTRY.histogram(
    "repro_job_queue_wait_seconds",
    "Time pool jobs spent queued before a worker slot opened",
)
_REBUILDS = obs_metrics.REGISTRY.counter(
    "repro_engine_pool_rebuilds_total",
    "Process pools rebuilt after a worker crash",
)
_QUARANTINED = obs_metrics.REGISTRY.counter(
    "repro_engine_quarantined_total",
    "Jobs routed to the one-worker quarantine pool",
)

IndexedJobs = Iterable[tuple[int, EvaluationJob]]
JobFn = Callable[[EvaluationJob], JobResult]

#: Destination queues for a retried job (the ``dest`` of a delayed
#: retry): ``MAIN`` is the shared pool, ``QUARANTINE`` the one-worker
#: isolation pool for crash suspects.
_MAIN, _QUARANTINE = "main", "quarantine"


def _run_inline(fn, job, executor_name: str) -> JobResult:
    """Run one job in-process, observing its latency and a job span."""
    start = time.perf_counter()
    result, attempts = run_with_retries(fn, job)
    duration = time.perf_counter() - start
    kind = job_kind(job)
    _JOB_SECONDS.observe(duration, kind=kind)
    obs_trace.emit(
        "engine.job",
        duration,
        kind=kind,
        tag=str(getattr(job, "tag", "")),
        executor=executor_name,
        attempts=attempts,
        ok=bool(getattr(result, "ok", True)),
    )
    return result


class Executor(Protocol):
    """Anything that can run evaluation jobs for the engine."""

    name: str

    def run(
        self, fn: JobFn, indexed_jobs: IndexedJobs
    ) -> Iterator[tuple[int, JobResult]]:
        """Yield ``(submission_index, result)`` pairs in any order."""
        ...


class SerialExecutor:
    """Run every job inline, in submission order (the reference path).

    Shares the process executor's retry semantics for transient in-job
    failures.
    """

    name = "serial"

    def run(
        self, fn: JobFn, indexed_jobs: IndexedJobs
    ) -> Iterator[tuple[int, JobResult]]:
        """Execute each job inline and yield its result immediately."""
        for index, job in indexed_jobs:
            yield index, _run_inline(fn, job, self.name)


class _Inflight:
    """Bookkeeping for one submitted future."""

    __slots__ = ("index", "attempt", "submitted")

    def __init__(self, index: int, attempt: int):
        self.index = index
        self.attempt = attempt
        #: ``perf_counter`` at submission (observability: execute time).
        self.submitted = time.perf_counter()


class ProcessExecutor:
    """Fan jobs out over a process pool; yields results as they finish.

    Worker count defaults to the machine's CPU count. Each ``run`` call
    opens and drains its own pool, so the executor object itself stays
    picklable and reusable.

    Dispatch is a bounded scheduler rather than a fire-and-forget
    ``submit`` loop: at most ``max_workers`` jobs are in flight at once,
    the rest wait in the executor's own queue. The bound is what makes
    failure attribution possible — when a worker dies and the pool
    breaks, only the in-flight jobs are suspects; queued jobs are
    resubmitted to the rebuilt pool without being charged an attempt.
    A lone suspect is charged directly; suspects from a multi-job
    breakage are re-run through a one-worker *quarantine* pool, one at
    a time, so the next crash identifies the culprit exactly and
    innocent neighbours never burn their own retry budget on someone
    else's bomb.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None):
        """Create the executor (``None`` = one worker per CPU)."""
        if max_workers is not None and max_workers < 1:
            raise ReproError("process executor needs at least one worker")
        self.max_workers = max_workers or os.cpu_count() or 1

    def run(
        self, fn: JobFn, indexed_jobs: IndexedJobs
    ) -> Iterator[tuple[int, JobResult]]:
        """Yield results as workers finish them (completion order)."""
        indexed = list(indexed_jobs)
        if not indexed:
            return
        if len(indexed) == 1:
            # A pool for one job is pure overhead — but the job still
            # runs under the same retry/failure-capture wrapper, so
            # behaviour does not depend on sweep size.
            index, job = indexed[0]
            yield index, _run_inline(fn, job, self.name)
            return
        yield from self._run_pool(fn, indexed)

    # ------------------------------------------------------------------
    # pool scheduler
    # ------------------------------------------------------------------
    def _run_pool(
        self, fn: JobFn, indexed: list[tuple[int, EvaluationJob]]
    ) -> Iterator[tuple[int, JobResult]]:
        """Crash-tolerant bounded dispatch over rebuildable pools."""
        jobs = dict(indexed)
        # Enqueue timestamps (observability): queue wait is measured from
        # the first time a job entered the dispatch queue to its final
        # submission, so backoff and rebuild requeues count as waiting.
        enqueued = {index: time.perf_counter() for index, _ in indexed}
        waiting: deque[tuple[int, int]] = deque(
            (index, 1) for index, _ in indexed
        )
        quarantine: deque[tuple[int, int]] = deque()
        delayed: list[tuple[float, int, int, str]] = []
        inflight: dict[object, _Inflight] = {}
        solo_inflight: dict[object, _Inflight] = {}
        pool = ProcessPoolExecutor(max_workers=self.max_workers)
        solo: ProcessPoolExecutor | None = None
        completed = False
        try:
            while (
                waiting or quarantine or delayed
                or inflight or solo_inflight
            ):
                now = time.monotonic()
                delayed.sort()
                while delayed and delayed[0][0] <= now:
                    _, index, attempt, dest = delayed.pop(0)
                    target = quarantine if dest == _QUARANTINE else waiting
                    target.append((index, attempt))
                while waiting and len(inflight) < self.max_workers:
                    index, attempt = waiting.popleft()
                    try:
                        self._submit(
                            pool, fn, jobs[index], index, attempt, inflight
                        )
                    except BrokenProcessPool:
                        # Broke while idle; rebuild and resubmit.
                        waiting.appendleft((index, attempt))
                        pool = self._rebuild(pool, inflight, waiting)
                if quarantine and not solo_inflight:
                    if solo is None:
                        solo = ProcessPoolExecutor(max_workers=1)
                    index, attempt = quarantine.popleft()
                    try:
                        self._submit(
                            solo, fn, jobs[index], index, attempt,
                            solo_inflight,
                        )
                    except BrokenProcessPool:
                        quarantine.appendleft((index, attempt))
                        self._shutdown(solo, kill=True)
                        solo = None
                if not inflight and not solo_inflight:
                    if delayed:
                        time.sleep(max(0.0, delayed[0][0] - now))
                    continue
                # Wake for the earliest backoff to expire, if any.
                done, _ = wait(
                    list(inflight) + list(solo_inflight),
                    timeout=(
                        max(0.0, delayed[0][0] - now) if delayed else None
                    ),
                    return_when=FIRST_COMPLETED,
                )
                now = time.monotonic()
                main_crashed: list[_Inflight] = []
                solo_crashed: list[_Inflight] = []
                for future in done:
                    if future in inflight:
                        entry, from_solo = inflight.pop(future), False
                    else:
                        entry, from_solo = solo_inflight.pop(future), True
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        (solo_crashed if from_solo else main_crashed).append(
                            entry
                        )
                    except Exception as exc:  # noqa: BLE001 - classified
                        outcome = self._retry_or_fail(
                            jobs, entry, exc, delayed, now, dest=_MAIN
                        )
                        if outcome is not None:
                            self._observe_done(jobs, entry, enqueued, ok=False)
                            yield entry.index, outcome
                    else:
                        self._observe_done(jobs, entry, enqueued, ok=True)
                        yield entry.index, result

                if main_crashed:
                    # Every in-flight main-pool job died with the pool:
                    # the ones wait() had not reported yet are equally
                    # lost. A lone suspect is charged; several suspects
                    # go to quarantine uncharged for exact attribution.
                    main_crashed.extend(inflight.values())
                    inflight.clear()
                    for entry, outcome in self._crashed(
                        jobs, main_crashed, quarantine, delayed, now
                    ):
                        self._observe_done(jobs, entry, enqueued, ok=False)
                        yield entry.index, outcome
                    pool = self._rebuild(pool, inflight, waiting)
                if solo_crashed:
                    # The quarantine pool runs one job: culprit known.
                    for entry, outcome in self._crashed(
                        jobs, solo_crashed, quarantine, delayed, now
                    ):
                        self._observe_done(jobs, entry, enqueued, ok=False)
                        yield entry.index, outcome
                    self._shutdown(solo, kill=True)
                    solo = None
                    _REBUILDS.inc()
            completed = True
        finally:
            self._shutdown(pool, kill=not completed)
            if solo is not None:
                self._shutdown(solo, kill=not completed)

    # -- helpers -----------------------------------------------------------
    def _observe_done(
        self, jobs: dict, entry: _Inflight, enqueued: dict, ok: bool
    ) -> None:
        """Record latency metrics and a retrospective span for one job."""
        now = time.perf_counter()
        duration = now - entry.submitted
        queue_wait = max(
            0.0, entry.submitted - enqueued.get(entry.index, entry.submitted)
        )
        kind = job_kind(jobs[entry.index])
        _JOB_SECONDS.observe(duration, kind=kind)
        _QUEUE_WAIT.observe(queue_wait)
        obs_trace.emit(
            "engine.job",
            duration,
            kind=kind,
            tag=str(getattr(jobs[entry.index], "tag", "")),
            executor=self.name,
            attempts=entry.attempt,
            queue_wait_s=round(queue_wait, 6),
            ok=ok,
        )

    @staticmethod
    def _submit(pool, fn, job, index: int, attempt: int, table: dict) -> None:
        """Submit one job and record its in-flight bookkeeping."""
        table[pool.submit(fn, job)] = _Inflight(index, attempt)

    def _rebuild(self, pool, inflight: dict, waiting: deque):
        """Kill a broken pool; recover its lost jobs uncharged."""
        for entry in inflight.values():
            waiting.append((entry.index, entry.attempt))
        inflight.clear()
        self._shutdown(pool, kill=True)
        _REBUILDS.inc()
        return ProcessPoolExecutor(max_workers=self.max_workers)

    @staticmethod
    def _shutdown(pool, kill: bool) -> None:
        """Shut a pool down; ``kill=True`` terminates worker processes.

        Termination is the only way to reclaim workers running
        abandoned jobs; ``_processes`` is stdlib-internal but stable,
        and guarded so a refactor degrades to a plain shutdown.
        """
        if kill:
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    proc.terminate()
                except Exception:  # noqa: BLE001 - already exiting
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - shutdown is best-effort
            pass

    @staticmethod
    def _retry_or_fail(
        jobs: dict,
        entry: _Inflight,
        exc: BaseException,
        delayed: list,
        now: float,
        dest: str,
    ):
        """Schedule a retry within the budget, or return a failure."""
        job = jobs[entry.index]
        if classify_failure(exc) and entry.attempt < MAX_ATTEMPTS:
            RETRIES.inc(kind=job_kind(job))
            if dest == _QUARANTINE:
                _QUARANTINED.inc()
            ready = now + backoff_s(entry.attempt, getattr(job, "tag", ""))
            delayed.append((ready, entry.index, entry.attempt + 1, dest))
            return None
        return failure_from(job, exc, entry.attempt, _failure_kind(exc))

    def _crashed(self, jobs, crashed, quarantine, delayed, now):
        """Account for jobs lost to a dead worker.

        A single suspect is the proven culprit: charge the attempt (and
        retry it in quarantine, where its next crash cannot take
        neighbours down). Multiple suspects are indistinguishable: all
        go to quarantine *uncharged*, where crashes are attributable.
        Yields ``(entry, failure)`` for a culprit whose budget is spent.
        """
        if len(crashed) == 1:
            entry = crashed[0]
            exc = WorkerCrashError(
                "worker process died while running job "
                f"{getattr(jobs[entry.index], 'tag', '') or entry.index!r}"
            )
            outcome = self._retry_or_fail(
                jobs, entry, exc, delayed, now, dest=_QUARANTINE
            )
            if outcome is not None:
                yield entry, outcome
            return
        for entry in crashed:
            _QUARANTINED.inc()
            quarantine.append((entry.index, entry.attempt))


def make_executor(jobs: int | None = None) -> Executor:
    """Build an executor from a ``--jobs``-style count.

    ``jobs=1`` (or ``None``) → serial; ``jobs>1`` → process pool with
    that many workers; ``jobs=0`` → process pool sized to the machine.
    """
    if jobs is None or jobs == 1:
        return SerialExecutor()
    if jobs < 0:
        raise ReproError(f"jobs must be >= 0, got {jobs}")
    return ProcessExecutor(max_workers=jobs or None)
