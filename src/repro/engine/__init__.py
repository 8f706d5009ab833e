"""Parallel design-space exploration engine.

Public surface:

* :class:`ExplorationEngine` — job-list execution with memoization and
  pluggable parallelism (``jobs=1`` serial, ``jobs=N`` process pool);
* :class:`EvaluationJob` / :class:`SimulationJob` / :class:`JobResult` —
  the two design-space job kinds (mapping search, campaign measurement)
  and their shared outcome record;
* :class:`EvaluationCache` — shared content-keyed result cache;
* :class:`MemoryBackend` / :class:`SQLiteBackend` — the in-memory and
  the persistent cache store (:func:`make_backend` builds one from a
  ``sqlite:PATH`` spec); the persistent store carries warm results
  across processes and CI runs;
* :func:`make_executor`, :class:`SerialExecutor`,
  :class:`ProcessExecutor` — the executor plugins;
* :class:`JobFailure` / :func:`classify_failure` — the crash-tolerance
  layer (a fixed retry budget with deterministic backoff, typed
  terminal failures that the engine re-raises).

A killed run resumes by rerunning it on the same persistent backend:
finished jobs come back as cache hits and only the rest is computed.
"""

from repro.engine.backends import (
    CacheBackend,
    MemoryBackend,
    SQLiteBackend,
    key_fingerprint,
    make_backend,
)
from repro.engine.cache import CacheStats, EvaluationCache
from repro.engine.engine import ExplorationEngine
from repro.engine.executors import (
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from repro.engine.jobs import (
    EvaluationJob,
    JobResult,
    SimulationJob,
    execute_job,
    execute_simulation_job,
    run_job,
)
from repro.engine.resilience import JobFailure, classify_failure

__all__ = [
    "CacheBackend",
    "CacheStats",
    "EvaluationCache",
    "EvaluationJob",
    "ExplorationEngine",
    "JobFailure",
    "JobResult",
    "MemoryBackend",
    "ProcessExecutor",
    "SQLiteBackend",
    "SerialExecutor",
    "SimulationJob",
    "classify_failure",
    "execute_job",
    "execute_simulation_job",
    "key_fingerprint",
    "make_backend",
    "make_executor",
    "run_job",
]
