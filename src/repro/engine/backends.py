"""Pluggable storage backends for the evaluation cache.

The :class:`~repro.engine.cache.EvaluationCache` used to be a plain
in-process dict: warm results died with the process, so every CLI
invocation, CI run and service worker started cold. This module promotes
the store behind the cache to a :class:`CacheBackend` plugin:

* :class:`MemoryBackend` — the original dict, upgraded to true LRU
  eviction with an eviction counter (long-running servers must not grow
  without bound);
* :class:`SQLiteBackend` — one WAL-mode SQLite file holding pickled
  results keyed by content fingerprint; safe for concurrent writers
  from several processes, so repeated selection/synthesis/campaign
  requests across processes hit warm results;
* :class:`DirectoryBackend` — one file per fingerprint under a
  schema-versioned directory; trivially rsync/CI-cacheable, which is
  how the CI docs job proves cross-run warm hits.

Durability contract shared by the persistent backends: a corrupted,
truncated or unreadable entry is **logged, dropped and recomputed** —
never served and never allowed to crash the caller — and a schema
version mismatch discards the store (cold start) instead of guessing at
old payloads. Values are pickled with the highest protocol; keys are the
engine's content-derived cache-key tuples, fingerprinted with SHA-256 so
they are stable across processes and Python hash randomization.

A persistent store is also how a killed run resumes: every finished job
(and every finished point of a batch-lane group) is written as it
completes, so rerunning the same command on the same store serves that
work as cache hits and computes only the rest, bit-identically.
Failures are never stored, so a rerun retries them.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import sqlite3
from pathlib import Path
from threading import RLock, get_ident
from typing import Protocol, runtime_checkable

from repro.obs import metrics as obs_metrics

log = logging.getLogger(__name__)

_WRITE_ERRORS = obs_metrics.REGISTRY.counter(
    "repro_cache_write_errors_total",
    "Cache writes the backend had to drop (store locked, full, read-only)",
    ("backend",),
)

#: Version of the on-disk payload schema. Bump when the pickled result
#: types or the cache-key composition change incompatibly; stores written
#: under another version are discarded on open (cold start, never a
#: crash and never stale payloads).
SCHEMA_VERSION = 2

#: Seconds a SQLite connection waits on a lock held by another writer
#: before the operation fails (and a ``put`` is dropped).
SQLITE_BUSY_TIMEOUT_S = 30.0


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
    ``write_errors`` counter that feeds
    :attr:`repro.engine.cache.CacheStats.write_errors`.
    """
    _WRITE_ERRORS.inc(backend=backend)
    if count == 1:
        log.warning(message + " (first write failure on this store)", *args)
    else:
        log.debug(message, *args)


@runtime_checkable
class CacheBackend(Protocol):
    """Anything that can store evaluation results for the cache.

    Implementations map cache-key tuples to arbitrary picklable result
    objects (the engine stores :class:`~repro.engine.jobs.JobResult`
    records). ``get`` returns ``None`` for a miss — including any entry
    that cannot be read back faithfully; ``put`` returns the number of
    entries evicted to make room (0 for unbounded stores).
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
    """In-process dict store with optional LRU eviction (the default).

    This is the seed behaviour of :class:`EvaluationCache` made explicit
    as a backend, with one upgrade: a bounded store now evicts the
    *least recently used* entry instead of the oldest inserted one
    (``get`` refreshes recency), and counts its evictions so a
    long-running server can report cache pressure.

    Not persistent and not process-shared. Thread-safe on its own (the
    service's ``refresh`` cache-control shares one backend between two
    :class:`~repro.engine.cache.EvaluationCache` instances with
    independent locks, so the backend cannot rely on its owner's lock).
    """

    name = "memory"

    def __init__(self, max_entries: int | None = None):
        """Create the store; ``max_entries=None`` disables the bound."""
        self.max_entries = max_entries
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
        """Store ``value``; evict the LRU entry beyond ``max_entries``."""
        if self.max_entries == 0:
            return 0
        with self._lock:
            evicted = 0
            if key in self._store:
                del self._store[key]
            elif (
                self.max_entries is not None
                and len(self._store) >= self.max_entries
            ):
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
    table recording :data:`SCHEMA_VERSION`. Write-ahead logging and a busy
    timeout make concurrent writers from several processes safe (last
    writer wins on the same fingerprint — both wrote bit-identical
    content, so either is correct).

    Failure modes (all logged, none fatal):

    * an unreadable/corrupt database file is rotated aside to
      ``<path>.corrupt`` and a fresh store is created;
    * a schema-version mismatch drops the entries (cold start);
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
        row = conn.execute(
            "SELECT v FROM meta WHERE k = 'schema_version'"
        ).fetchone()
        if row is not None and row[0] != str(SCHEMA_VERSION):
            log.warning(
                "cache store %s has schema version %s, expected %s; "
                "discarding entries (cold start)",
                self.path, row[0], SCHEMA_VERSION,
            )
            conn.execute("DROP TABLE IF EXISTS entries")
        conn.execute(
            "INSERT OR REPLACE INTO meta VALUES ('schema_version', ?)",
            (str(SCHEMA_VERSION),),
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


class DirectoryBackend:
    """Persistent store as one file per fingerprint under a directory.

    Entries live at ``<root>/v<SCHEMA_VERSION>/<fp[:2]>/<fp>.pkl``; the
    schema version is part of the path, so opening a store written under
    another version simply sees an empty directory — a cold start with
    zero migration logic. Writes go through a temporary file and
    ``os.replace``, so concurrent writers from any number of processes
    and threads either publish a complete entry or nothing (the
    temporary name is unique per process and thread).

    The layout is deliberately artifact-friendly: CI caches the root
    directory between runs to prove cross-run warm hits, and a store can
    be merged or pruned with plain file tools.
    """

    name = "directory"

    def __init__(self, root: str | Path):
        """Open (or create) the store rooted at ``root``."""
        self.root = Path(root)
        self.dir = self.root / f"v{SCHEMA_VERSION}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.corrupt_entries = 0
        self.write_errors = 0

    def _path(self, fp: str) -> Path:
        """Entry path for a fingerprint (2-hex-char fan-out subdirs)."""
        return self.dir / fp[:2] / f"{fp}.pkl"

    def get(self, key: tuple) -> object | None:
        """Return the stored value, or ``None`` (miss / unreadable entry)."""
        path = self._path(key_fingerprint(key))
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            log.warning("cache read failed on %s (%s)", path, exc)
            return None
        try:
            return pickle.loads(blob)
        except Exception as exc:
            self.corrupt_entries += 1
            log.warning(
                "dropping corrupt cache entry %s (%s); the result will "
                "be recomputed",
                path, exc,
            )
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: tuple, value: object) -> int:
        """Persist ``value`` atomically; a failed write is dropped."""
        path = self._path(key_fingerprint(key))
        tmp = path.with_name(
            f"{path.name}.tmp{os.getpid()}-{get_ident()}"
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            )
            os.replace(tmp, path)
        except OSError as exc:
            self.write_errors += 1
            _log_write_error(
                self.name,
                self.write_errors,
                "cache write failed on %s (%s); entry dropped", path, exc,
            )
            try:
                tmp.unlink()
            except OSError:
                pass
        return 0

    def __len__(self) -> int:
        """Number of entries currently stored."""
        return sum(1 for _ in self.dir.glob("??/*.pkl"))

    def clear(self) -> None:
        """Drop every entry of the current schema version."""
        for entry in self.dir.glob("??/*.pkl"):
            try:
                entry.unlink()
            except OSError:
                pass


def make_backend(spec) -> CacheBackend:
    """Build a backend from a CLI/config spec string (or pass one through).

    Accepted forms:

    * an existing :class:`CacheBackend` instance — returned as is;
    * ``None`` or ``"memory"`` — a fresh unbounded :class:`MemoryBackend`;
    * ``"sqlite:PATH"`` — :class:`SQLiteBackend` at PATH;
    * ``"dir:PATH"`` — :class:`DirectoryBackend`;
    * a bare path — SQLite when it ends in ``.db``/``.sqlite``/
      ``.sqlite3``, a directory store otherwise.
    """
    if spec is None or spec == "memory":
        return MemoryBackend()
    if isinstance(spec, (MemoryBackend, SQLiteBackend, DirectoryBackend)):
        return spec
    if not isinstance(spec, (str, Path)):
        if isinstance(spec, CacheBackend):
            return spec
        raise TypeError(f"cannot build a cache backend from {spec!r}")
    text = str(spec)
    if text.startswith("sqlite:"):
        return SQLiteBackend(text[len("sqlite:"):])
    if text.startswith("dir:"):
        return DirectoryBackend(text[len("dir:"):])
    if text.endswith((".db", ".sqlite", ".sqlite3")):
        return SQLiteBackend(text)
    return DirectoryBackend(text)
