"""Shared memoization of evaluated candidates.

Selection, routing sweeps and the fallback escalation of ``run_sunmap``
revisit the same (core graph, topology, routing, objective) candidates —
e.g. a ``select`` after an ``explore`` on the same application, or the
unchanged topologies when only one library entry was edited. The cache
keys on content fingerprints (:mod:`repro.engine.fingerprint`), so a hit
means "bit-identical work", never "same object".

Storage is pluggable (:mod:`repro.engine.backends`): the default is a
bounded in-process LRU dict (:class:`~repro.engine.backends.MemoryBackend`),
while :class:`~repro.engine.backends.SQLiteBackend` persists results
across processes and CI runs — the substrate of the design service's
warm starts (:mod:`repro.service`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from threading import Lock
from typing import TYPE_CHECKING

from repro.engine.backends import CacheBackend, MemoryBackend
from repro.obs import metrics as obs_metrics

if TYPE_CHECKING:  # annotation only: jobs pulls in the domain layers
    from repro.engine.jobs import JobResult

_HITS = obs_metrics.REGISTRY.counter(
    "repro_cache_hits_total", "Cache lookups served from the store", ("backend",)
)
_MISSES = obs_metrics.REGISTRY.counter(
    "repro_cache_misses_total", "Cache lookups that missed", ("backend",)
)
_DEDUP = obs_metrics.REGISTRY.counter(
    "repro_cache_dedup_total",
    "In-batch duplicate jobs served from the first submitter",
    ("backend",),
)
_EVICTIONS = obs_metrics.REGISTRY.counter(
    "repro_cache_evictions_total", "LRU entries evicted by bounded stores", ("backend",)
)


@dataclass
class CacheStats:
    """Hit/miss counters of one cache's lookups (reported by CLI/benchmarks)."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __str__(self) -> str:
        """Compact ``hits/lookups`` summary line."""
        return f"{self.hits}/{self.lookups} hits ({self.hit_rate * 100:.0f}%)"


@dataclass
class EvaluationCache:
    """Result store keyed by :meth:`EvaluationJob.cache_key`.

    Thread-safe; shared by every run of the engine that owns it. Workers
    return results to the parent process, which stores them here, so the
    process executor populates the same cache the serial one does.

    Storage is delegated to a :class:`~repro.engine.backends.CacheBackend`.
    When none is given, a :class:`~repro.engine.backends.MemoryBackend`
    is created; it evicts least-recently-used entries beyond
    :data:`~repro.engine.backends.MEMORY_MAX_ENTRIES` and counts the
    evictions (:attr:`evictions`). The persistent
    :class:`~repro.engine.backends.SQLiteBackend` is unbounded.

    It holds the engine's :class:`~repro.engine.jobs.JobResult`
    records; the mapping search's visited set
    (:mod:`repro.core.memo`) is private to its search and never
    touches it.

    ``write_only=True`` turns every lookup into a miss while still
    persisting results — the design service's ``cache: "refresh"``
    control, which recomputes and overwrites warm entries in place.
    """

    stats: CacheStats = field(default_factory=CacheStats)
    backend: CacheBackend = field(default_factory=MemoryBackend)
    write_only: bool = False
    _lock: Lock = field(default_factory=Lock, repr=False)

    @property
    def evictions(self) -> int:
        """Entries the backend evicted, via any cache (0 if it never evicts)."""
        return getattr(self.backend, "evictions", 0)

    @property
    def write_errors(self) -> int:
        """Writes the backend dropped, via any cache (0 if it cannot fail).

        A lost write (disk full, locked or read-only store) only costs a
        recompute, but sustained ones mean the store is not warming.
        """
        return getattr(self.backend, "write_errors", 0)

    def get(self, key: tuple) -> JobResult | None:
        """Return the cached result for ``key``, or ``None`` on a miss."""
        with self._lock:
            result = (
                None if self.write_only else self.backend.get(key)
            )
            if result is None:
                self.stats.misses += 1
                _MISSES.inc(backend=self.backend.name)
            else:
                self.stats.hits += 1
                _HITS.inc(backend=self.backend.name)
            return result

    def note_deduped(self) -> None:
        """Reclassify the last lookup of a key as a hit.

        The engine found the same key already queued in the current
        batch (``get`` had counted it as a miss).
        """
        with self._lock:
            self.stats.hits += 1
            self.stats.misses -= 1
            _DEDUP.inc(backend=self.backend.name)

    def put(self, key: tuple, result: JobResult) -> None:
        """Store ``result`` under ``key``."""
        with self._lock:
            evicted = self.backend.put(key, result)
            if evicted:
                _EVICTIONS.inc(evicted, backend=self.backend.name)

    def __len__(self) -> int:
        """Number of entries in the underlying store."""
        return len(self.backend)

    def __str__(self) -> str:
        """Summarize the lookups, plus the backend's evictions and write errors."""
        text = str(self.stats)
        if self.evictions:
            text += f", {self.evictions} evicted"
        if self.write_errors:
            text += f", {self.write_errors} write errors"
        return text

    def clear(self) -> None:
        """Drop every stored entry (counters are preserved)."""
        with self._lock:
            self.backend.clear()
