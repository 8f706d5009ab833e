"""Crash-tolerant job execution: fixed retry budget and typed job failures.

The executors used to assume a perfect machine: one crashed worker
(``BrokenProcessPool``) or one transient ``OSError`` destroyed an
entire sweep's progress. This module gives the runtime a failure model
instead:

* a fixed retry budget — :data:`MAX_ATTEMPTS` tries per job, with
  exponential backoff whose jitter is *deterministic* (derived from the
  job's tag by :func:`backoff_s`, so two runs of the same sweep back
  off identically);
* :func:`classify_failure` — the taxonomy split: worker crashes and
  ``OSError`` are transient (``retryable``); domain errors from
  :mod:`repro.errors` are deterministic facts about the design space
  and are final;
* :class:`JobFailure` — the typed terminal outcome. A job that
  exhausts its retries (or fails fatally) yields a failure *result*
  instead of raising inside the executor, so the pool keeps serving
  the other jobs; the engine counts it and re-raises the original
  exception.

Determinism invariant: a retry re-runs the *same* job, so a
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
    OSError,
)


def classify_failure(exc: BaseException) -> bool:
    """Whether ``exc`` is transient (worth retrying) or final.

    Retryable: :class:`~repro.errors.RetryableError` and subclasses,
    ``BrokenProcessPool`` (a worker died) and ``OSError`` (flaky pipes,
    filesystems, resource exhaustion, ``TimeoutError``). Final: every other
    :class:`~repro.errors.ReproError` — domain errors are deterministic
    answers, not infrastructure weather — and any unexpected exception
    (a bug does not get better by re-running it).
    """
    if isinstance(exc, RetryableError):
        return True
    if isinstance(exc, ReproError):
        return False
    return isinstance(exc, RETRYABLE_EXCEPTIONS)


#: Tries per job, the first included (so two retries).
MAX_ATTEMPTS = 3
#: Delay before the first retry; each further retry multiplies it by
#: :data:`BACKOFF_FACTOR`, up to :data:`MAX_BACKOFF_S`.
BACKOFF_BASE_S = 0.05
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_S = 2.0
#: Fraction of each delay shaved off by the tag-derived jitter.
JITTER = 0.5


def backoff_s(attempt: int, tag: str) -> float:
    """Backoff before retrying after failed attempt ``attempt``.

    Exponential in the attempt number, capped at :data:`MAX_BACKOFF_S`,
    with a deterministic jitter in ``[1 - JITTER, 1]`` of the base
    delay derived from the job's ``(tag, attempt)`` — retries of a herd
    of jobs spread out, yet two runs of the same sweep sleep the same
    amounts, with no wall-clock or global-RNG dependence.
    """
    base = min(
        MAX_BACKOFF_S, BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1)
    )
    frac = hash_seed(("retry", tag, attempt)) / 0xFFFFFFFF
    return base * (1.0 - JITTER * frac)


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
    the engine can re-raise it faithfully. Failures are
    never cached: a transient infrastructure problem must not be served
    as a warm result, nor replayed when a killed run is rerun on the
    same persistent store.
    """

    #: Attempts actually executed (including the failing one).
    attempts: int = 1
    #: ``"crash"`` (worker died) or ``"error"`` (the job raised).
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
        attempts=attempts,
        failure_kind=kind,
        exception=exc,
    )


def run_with_retries(fn, job) -> tuple[JobResult, int]:
    """Execute ``fn(job)`` in-process under the retry budget.

    The shared resilience wrapper for in-process execution (the serial
    executor, and the process executor's single-job fast path):
    transient failures are retried with the deterministic
    :func:`backoff_s`; a fatal failure — or an exhausted budget —
    returns a :class:`JobFailure` instead of raising. Returns the
    outcome and the number of attempts that ran.
    """
    attempt = 1
    while True:
        try:
            return fn(job), attempt
        except Exception as exc:  # noqa: BLE001 - classified below
            if classify_failure(exc) and attempt < MAX_ATTEMPTS:
                RETRIES.inc(kind=job_kind(job))
                time.sleep(backoff_s(attempt, getattr(job, "tag", "")))
                attempt += 1
                continue
            return failure_from(job, exc, attempt, _failure_kind(exc)), attempt


def _failure_kind(exc: BaseException) -> str:
    """Coarse failure bucket for reporting."""
    if isinstance(exc, (BrokenProcessPool, WorkerCrashError)):
        return "crash"
    return "error"
