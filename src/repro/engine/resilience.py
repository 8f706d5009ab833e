"""Crash-tolerant job execution: retry policies and typed job failures.

The executors used to assume a perfect machine: one crashed worker
(``BrokenProcessPool``), one wedged job, or one transient ``OSError``
destroyed an entire sweep's progress. This module gives the runtime a
failure model instead:

* :class:`RetryPolicy` — how hard to try: attempt budget, exponential
  backoff with *deterministic* jitter (derived from the job's seed, so
  two runs of the same sweep back off identically), and an optional
  per-job wall-clock timeout.
* :func:`classify_failure` — the taxonomy split: worker crashes,
  timeouts and ``OSError`` are transient (``retryable``); domain
  errors from :mod:`repro.errors` are deterministic facts about the
  design space and are final.
* :class:`JobFailure` — the typed terminal outcome. A job that
  exhausts its retries (or fails fatally) yields a failure *result*
  instead of raising, so one poisoned point degrades a sweep instead
  of killing it; ``ExplorationEngine.run(on_failure=...)`` decides
  whether that failure re-raises or flows to the caller.

Determinism invariant: a retry re-runs the *same* seeded job, so a
success after N transient failures is bit-identical to a first-try
success (asserted in ``tests/engine/test_resilience.py``).
"""

from __future__ import annotations

import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.engine.jobs import JobResult, hash_seed, job_kind
from repro.obs import metrics as obs_metrics
from repro.errors import (
    JobFailedError,
    JobTimeoutError,
    ReproError,
    RetryableError,
    WorkerCrashError,
)

#: Exception types the resilience layer treats as transient. Note the
#: precedence in :func:`classify_failure`: a :class:`RetryableError` is
#: retryable even though it subclasses :class:`ReproError`, while every
#: other domain error is final.
RETRYABLE_EXCEPTIONS = (
    RetryableError,
    BrokenProcessPool,
    TimeoutError,
    OSError,
)


def classify_failure(exc: BaseException) -> bool:
    """Whether ``exc`` is transient (worth retrying) or final.

    Retryable: :class:`~repro.errors.RetryableError` and subclasses,
    ``BrokenProcessPool`` (a worker died), ``TimeoutError`` (including
    ``concurrent.futures`` timeouts) and ``OSError`` (flaky pipes,
    filesystems, resource exhaustion). Final: every other
    :class:`~repro.errors.ReproError` — domain errors are deterministic
    answers, not infrastructure weather — and any unexpected exception
    (a bug does not get better by re-running it).
    """
    if isinstance(exc, RetryableError):
        return True
    if isinstance(exc, ReproError):
        return False
    return isinstance(exc, RETRYABLE_EXCEPTIONS)


@dataclass(frozen=True)
class RetryPolicy:
    """How persistently to run one job.

    Attributes:
        max_attempts: total tries per job (1 = no retries).
        backoff_base_s: delay before the first retry.
        backoff_factor: multiplier per further retry (exponential).
        max_backoff_s: ceiling on any single delay.
        jitter: fraction of the delay randomized *deterministically*
            from the job seed and attempt number — retries of a herd of
            jobs spread out, yet two runs of the same sweep sleep the
            same amounts.
        timeout_s: per-job wall-clock budget, enforced through the pool
            future (the stuck worker is killed and the slot reclaimed);
            ``None`` disables the timeout. In-process execution (the
            serial executor) cannot preempt a running job and ignores
            it.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0
    jitter: float = 0.5
    timeout_s: float | None = None

    def __post_init__(self):
        """Validate the knobs."""
        if self.max_attempts < 1:
            raise ReproError("retry policy needs at least one attempt")
        if self.backoff_base_s < 0 or self.max_backoff_s < 0:
            raise ReproError("retry backoff delays must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ReproError("retry jitter must be in [0, 1]")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ReproError("per-job timeout must be positive")

    def delay_s(self, attempt: int, seed: int) -> float:
        """Backoff before retrying after failed attempt ``attempt``.

        Exponential in the attempt number, capped at ``max_backoff_s``,
        with a deterministic jitter in ``[1 - jitter, 1]`` of the base
        delay derived from ``(seed, attempt)`` — no wall-clock or
        global-RNG dependence.
        """
        base = min(
            self.max_backoff_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )
        frac = hash_seed(("retry", seed, attempt)) / 0xFFFFFFFF
        return base * (1.0 - self.jitter * frac)


#: Policy used when an executor is built without an explicit one.
DEFAULT_RETRY_POLICY = RetryPolicy()

RETRIES = obs_metrics.REGISTRY.counter(
    "repro_engine_retries_total",
    "Transient job failures charged a retry attempt",
    ("kind",),
)


@dataclass
class JobFailure(JobResult):
    """Terminal outcome of a job the runtime could not complete.

    A :class:`~repro.engine.jobs.JobResult` subclass (``ok`` is False,
    ``error``/``error_type`` describe the last failure) extended with
    the resilience story: how many attempts ran, what kind of failure
    ended it, and — when available — the original exception object so
    ``on_failure="raise"`` can re-raise it faithfully. Failures are
    never cached: a transient infrastructure problem must not be served
    as a warm result, nor replayed when a killed run is rerun on the
    same persistent store.
    """

    #: Attempts actually executed (including the failing one).
    attempts: int = 1
    #: ``"crash"`` (worker died), ``"timeout"`` (wall clock exceeded)
    #: or ``"error"`` (the job raised).
    failure_kind: str = "error"
    #: The final exception object, when it survived transport back to
    #: the parent process (not serialized anywhere).
    exception: BaseException | None = field(default=None, repr=False)

    def raise_if_error(self) -> None:
        """Re-raise the failure (the original exception when captured)."""
        raise self.to_exception()

    def to_exception(self) -> BaseException:
        """The exception this failure stands for."""
        if self.exception is not None:
            return self.exception
        return JobFailedError(
            f"job {self.tag or '<untagged>'} failed after "
            f"{self.attempts} attempt(s): {self.error}"
        )


def failure_from(
    job, exc: BaseException, attempts: int, kind: str
) -> JobFailure:
    """Build a :class:`JobFailure` for ``job`` ended by ``exc``."""
    return JobFailure(
        tag=getattr(job, "tag", ""),
        error=str(exc) or type(exc).__name__,
        error_type=type(exc).__name__,
        seed=_job_seed(job),
        attempts=attempts,
        failure_kind=kind,
        exception=exc,
    )


def _job_seed(job) -> int:
    """The job's deterministic seed (0 for foreign job types)."""
    resolved = getattr(job, "resolved_seed", None)
    if resolved is None:
        return 0
    try:
        return resolved()
    except Exception:
        return 0


def run_with_retries(fn, job, policy: RetryPolicy) -> JobResult:
    """Execute ``fn(job)`` in-process under ``policy``.

    The shared resilience wrapper for in-process execution (the serial
    executor, and the process executor's single-job fast path when no
    timeout is configured): transient failures are retried with the
    policy's deterministic backoff; a fatal failure — or an exhausted
    budget — returns a :class:`JobFailure` instead of raising.
    ``timeout_s`` cannot be enforced without a worker process and is
    ignored here (route through a pool to get it).
    """
    attempt = 1
    while True:
        try:
            return fn(job)
        except Exception as exc:  # noqa: BLE001 - classified below
            kind = _failure_kind(exc)
            if classify_failure(exc) and attempt < policy.max_attempts:
                RETRIES.inc(kind=job_kind(job))
                time.sleep(policy.delay_s(attempt, _job_seed(job)))
                attempt += 1
                continue
            return failure_from(job, exc, attempt, kind)


def _failure_kind(exc: BaseException) -> str:
    """Coarse failure bucket for reporting."""
    if isinstance(exc, (BrokenProcessPool, WorkerCrashError)):
        return "crash"
    if isinstance(exc, (TimeoutError, JobTimeoutError)):
        return "timeout"
    return "error"
