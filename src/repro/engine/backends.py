"""Storage backends for the evaluation cache.

The :class:`~repro.engine.cache.EvaluationCache` delegates its store to
one of two backends:

* :class:`MemoryBackend` — an in-process dict with LRU eviction beyond
  :data:`MEMORY_MAX_ENTRIES` and an eviction counter (long-running
  servers must not grow without bound); the default;
* :class:`SQLiteBackend` — one WAL-mode SQLite file holding pickled
  results keyed by content fingerprint; safe for concurrent writers
  from several processes and threads, so repeated selection, synthesis
  and campaign requests across processes and CI runs hit warm results.

Durability contract of the persistent store: a corrupted, truncated or
unreadable entry is **logged, dropped and recomputed** — never served
and never allowed to crash the caller — and a store written by other
code (:func:`store_version`, a digest of the package's source) is
discarded (cold start) instead of guessing at old payloads.
Values are pickled with the highest protocol; keys are the engine's
content-derived cache-key tuples, fingerprinted with SHA-256 so they
are stable across processes and Python hash randomization.

A persistent store is also how a killed run resumes: every finished job
(and every finished point of a batch-lane group) is written as it
completes, so rerunning the same command on the same store serves that
work as cache hits and computes only the rest, bit-identically.
Failures are never stored, so a rerun retries them.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import os
import pickle
import sqlite3
from pathlib import Path
from threading import RLock
from typing import Protocol

from repro.errors import ReproError
from repro.obs import metrics as obs_metrics

log = logging.getLogger(__name__)

_WRITE_ERRORS = obs_metrics.REGISTRY.counter(
    "repro_cache_write_errors_total",
    "Cache writes the backend had to drop (store locked, full, read-only)",
    ("backend",),
)

#: Seconds a SQLite connection waits on a lock held by another writer
#: before the operation fails (and a ``put`` is dropped).
SQLITE_BUSY_TIMEOUT_S = 30.0

#: Bound of the in-memory store: generous for any realistic sweep (a
#: full topology × routing × objective grid is tens of entries) while
#: keeping a long-lived shared engine from growing without bound —
#: collect=True entries carry the whole evaluated mapping cloud.
MEMORY_MAX_ENTRIES = 1024


#: The package whose code :func:`store_version` digests.
_PACKAGE = Path(__file__).resolve().parents[1]


@functools.cache
def store_version(package: Path = _PACKAGE) -> str:
    """Version of the on-disk payloads, a digest of the package's code.

    A SHA-256 of every ``*.py`` file of the package, by relative path
    and bytes, so any code change is a new version; a store written
    under another is discarded on open (cold start, never stale
    payloads). Computed on a :class:`SQLiteBackend`'s first open, not
    at import.
    """
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        name = path.relative_to(package).as_posix().encode("utf-8")
        digest.update(name + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def key_fingerprint(key: tuple) -> str:
    """Stable hex fingerprint of a cache-key tuple.

    Cache keys are built from content fingerprints and simple values
    (see :mod:`repro.engine.fingerprint`), so their ``repr`` is
    deterministic across processes — the same property
    :func:`repro.engine.jobs.hash_seed` relies on for executor-
    independent seeds.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


def _log_write_error(backend: str, count: int, message: str, *args) -> None:
    """Log and count a dropped cache write: loudly once, quietly afterwards.

    Silent write failures used to be invisible beyond per-event log
    noise; now the first one per backend warns through the unified
    ``repro.engine.backends`` logger (an operator signal — the store may
    be read-only, full, or locked) and later ones drop to debug. Every
    occurrence increments ``repro_cache_write_errors_total{backend=…}``
    in the metrics registry, alongside the backend's own
    ``write_errors`` counter that
    :attr:`repro.engine.cache.EvaluationCache.write_errors` reads.
    """
    _WRITE_ERRORS.inc(backend=backend)
    if count == 1:
        log.warning(message + " (first write failure on this store)", *args)
    else:
        log.debug(message, *args)


class CacheBackend(Protocol):
    """Anything that can store evaluation results for the cache.

    Implementations map cache-key tuples to arbitrary picklable result
    objects (the engine stores :class:`~repro.engine.jobs.JobResult`
    records). ``get`` returns ``None`` for a miss — including any entry
    that cannot be read back faithfully; ``put`` returns the number of
    entries evicted to make room (always 0 for the persistent store).
    """

    name: str

    def get(self, key: tuple) -> object | None:
        """Return the stored value for ``key``, or ``None`` on a miss."""
        ...

    def put(self, key: tuple, value: object) -> int:
        """Store ``value`` under ``key``; return how many entries were evicted."""
        ...

    def __len__(self) -> int:
        """Number of entries currently stored."""
        ...

    def clear(self) -> None:
        """Drop every entry."""
        ...


class MemoryBackend:
    """In-process dict store with LRU eviction (the default).

    Holds at most :data:`MEMORY_MAX_ENTRIES` entries; beyond that it
    evicts the *least recently used* one (``get`` refreshes recency) and
    counts its evictions so a long-running server can report cache
    pressure.

    Not persistent and not process-shared. Thread-safe on its own (the
    service's ``refresh`` cache-control shares one backend between two
    :class:`~repro.engine.cache.EvaluationCache` instances with
    independent locks, so the backend cannot rely on its owner's lock).
    """

    name = "memory"

    def __init__(self):
        """Create an empty store."""
        self.evictions = 0
        self._lock = RLock()
        self._store: dict = {}  # insertion order doubles as recency order

    def get(self, key: tuple) -> object | None:
        """Return the value for ``key`` and mark it most recently used."""
        with self._lock:
            value = self._store.get(key)
            if value is not None:
                # LRU touch: re-insert at the end of the order.
                del self._store[key]
                self._store[key] = value
            return value

    def put(self, key: tuple, value: object) -> int:
        """Store ``value``; evict the LRU entry beyond the bound."""
        with self._lock:
            evicted = 0
            if key in self._store:
                del self._store[key]
            elif len(self._store) >= MEMORY_MAX_ENTRIES:
                # First key in insertion order = least recently used.
                self._store.pop(next(iter(self._store)))
                evicted = 1
            self._store[key] = value
            self.evictions += evicted
            return evicted

    def __len__(self) -> int:
        """Number of entries currently stored."""
        return len(self._store)

    def clear(self) -> None:
        """Drop every entry (eviction counter is preserved)."""
        self._store.clear()


class SQLiteBackend:
    """Persistent store in one WAL-mode SQLite file.

    Layout: an ``entries(fp TEXT PRIMARY KEY, payload BLOB)`` table of
    pickled results keyed by :func:`key_fingerprint`, plus a ``meta``
    table recording :func:`store_version`. Write-ahead logging and a busy
    timeout make concurrent writers from several processes safe (last
    writer wins on the same fingerprint — both wrote bit-identical
    content, so either is correct).

    Failure modes (all logged, none fatal):

    * an unreadable/corrupt database file is rotated aside to
      ``<path>.corrupt`` and a fresh store is created;
    * a version mismatch (other code wrote the store) drops the
      entries (cold start);
    * an entry whose blob fails to unpickle is deleted and reported as a
      miss, so the caller recomputes (``corrupt_entries`` counts these);
    * operational errors on ``put`` (e.g. a locked database past the
      timeout) drop the write — the cache is an accelerator, losing a
      write is always safe.
    """

    name = "sqlite"

    def __init__(self, path: str | Path):
        """Open (or create) the store at ``path``."""
        self.path = str(path)
        self.corrupt_entries = 0
        self.write_errors = 0
        self._lock = RLock()
        self._conn: sqlite3.Connection | None = None
        self._connect()

    # -- connection management --------------------------------------------
    def _connect(self) -> None:
        """Open the database, surviving a corrupt file on disk."""
        try:
            self._conn = self._open()
        except sqlite3.DatabaseError as exc:
            log.warning(
                "cache store %s is unreadable (%s); starting cold",
                self.path, exc,
            )
            self._rotate_corrupt()
            self._conn = self._open()

    def _open(self) -> sqlite3.Connection:
        """Connect and ensure the schema, dropping mismatched versions."""
        Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        # Autocommit (isolation_level=None): every put is its own WAL
        # transaction, so concurrent writers never deadlock on a held
        # transaction. check_same_thread=False because the owning cache
        # serializes access with its own lock (plus self._lock here).
        conn = sqlite3.connect(
            self.path,
            timeout=SQLITE_BUSY_TIMEOUT_S,
            isolation_level=None,
            check_same_thread=False,
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS meta (k TEXT PRIMARY KEY, v TEXT)"
        )
        version = store_version()
        row = conn.execute(
            "SELECT v FROM meta WHERE k = 'schema_version'"
        ).fetchone()
        if row is not None and row[0] != version:
            log.warning(
                "cache store %s has schema version %s, expected %s; "
                "discarding entries (cold start)",
                self.path, row[0], version,
            )
            conn.execute("DROP TABLE IF EXISTS entries")
        conn.execute(
            "INSERT OR REPLACE INTO meta VALUES ('schema_version', ?)",
            (version,),
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS entries "
            "(fp TEXT PRIMARY KEY, payload BLOB)"
        )
        return conn

    def _rotate_corrupt(self) -> None:
        """Move an unreadable database file out of the way."""
        try:
            os.replace(self.path, self.path + ".corrupt")
        except OSError:
            # Rotation is best-effort; unlink as the fallback.
            try:
                os.unlink(self.path)
            except OSError:
                pass

    # -- store operations -------------------------------------------------
    def get(self, key: tuple) -> object | None:
        """Return the stored value, or ``None`` (miss / unreadable entry)."""
        fp = key_fingerprint(key)
        with self._lock:
            try:
                row = self._conn.execute(
                    "SELECT payload FROM entries WHERE fp = ?", (fp,)
                ).fetchone()
            except sqlite3.DatabaseError as exc:
                log.warning(
                    "cache read failed on %s (%s); reopening store",
                    self.path, exc,
                )
                self._connect()
                return None
            if row is None:
                return None
            try:
                return pickle.loads(row[0])
            except Exception as exc:
                self.corrupt_entries += 1
                log.warning(
                    "dropping corrupt cache entry %s in %s (%s); "
                    "the result will be recomputed",
                    fp[:12], self.path, exc,
                )
                self._delete(fp)
                return None

    def put(self, key: tuple, value: object) -> int:
        """Persist ``value``; a failed write is dropped, never raised."""
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            try:
                self._conn.execute(
                    "INSERT OR REPLACE INTO entries VALUES (?, ?)",
                    (key_fingerprint(key), blob),
                )
            except sqlite3.DatabaseError as exc:
                self.write_errors += 1
                _log_write_error(
                    self.name,
                    self.write_errors,
                    "cache write failed on %s (%s); entry dropped",
                    self.path, exc,
                )
        return 0

    def _delete(self, fp: str) -> None:
        """Best-effort removal of one entry by fingerprint."""
        try:
            self._conn.execute("DELETE FROM entries WHERE fp = ?", (fp,))
        except sqlite3.DatabaseError:
            pass

    def __len__(self) -> int:
        """Number of entries currently stored (0 if unreadable)."""
        with self._lock:
            try:
                return self._conn.execute(
                    "SELECT COUNT(*) FROM entries"
                ).fetchone()[0]
            except sqlite3.DatabaseError:
                return 0

    def clear(self) -> None:
        """Drop every entry (the schema and file are kept)."""
        with self._lock:
            try:
                self._conn.execute("DELETE FROM entries")
            except sqlite3.DatabaseError:
                pass

    def close(self) -> None:
        """Close the underlying connection."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None


def make_backend(spec) -> CacheBackend:
    """Build a backend from a CLI/config spec (or pass one through).

    Accepted forms: ``None`` (a fresh :class:`MemoryBackend`), an
    existing :class:`MemoryBackend` or :class:`SQLiteBackend` (returned
    as is), or ``"sqlite:PATH"`` with a non-empty PATH. Anything else is
    a :class:`~repro.errors.ReproError`, so a mistyped ``--cache`` fails
    loudly instead of silently running cold.
    """
    if spec is None:
        return MemoryBackend()
    if isinstance(spec, (MemoryBackend, SQLiteBackend)):
        return spec
    if isinstance(spec, str) and spec.startswith("sqlite:"):
        path = spec[len("sqlite:"):]
        if path:
            return SQLiteBackend(path)
    raise ReproError(
        f"invalid cache backend {spec!r}: expected 'sqlite:PATH' with a "
        "non-empty PATH"
    )
