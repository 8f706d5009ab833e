"""Persistent cache backends: durability, corruption, concurrency.

The durability contract under test (see ``repro.engine.backends``):

* a corrupted, truncated or unreadable entry is logged, dropped and
  **recomputed** — never served back and never a crash;
* a store written by other code (another version, a digest of the
  package's source) is discarded (cold start);
* concurrent writers from several processes or threads never corrupt
  the store;
* warm results are bit-identical to freshly computed ones.
"""

from __future__ import annotations

import shutil
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.core.mapper import MapperConfig
from repro.core.selector import select_topology
from repro.engine import (
    EvaluationCache,
    ExplorationEngine,
    MemoryBackend,
    SQLiteBackend,
    make_backend,
)
from repro.engine.backends import (
    MEMORY_MAX_ENTRIES,
    key_fingerprint,
    store_version,
)
from repro.engine.jobs import JobResult
from repro.errors import ReproError

FAST = MapperConfig(max_rounds=1)

KEY_A = ("eval", "fp-a", "MP", "hops")
KEY_B = ("eval", "fp-b", "MP", "hops")
KEY_C = ("eval", "fp-c", "MP", "hops")


class TestMemoryBackend:
    def test_roundtrip_and_len(self):
        backend = MemoryBackend()
        assert backend.get(KEY_A) is None
        assert backend.put(KEY_A, {"cost": 1}) == 0
        assert backend.get(KEY_A) == {"cost": 1}
        assert len(backend) == 1
        backend.clear()
        assert len(backend) == 0

    @staticmethod
    def _full(backend):
        """Fill ``backend`` to its bound, oldest entry first: KEY_A, KEY_B."""
        backend.put(KEY_A, "a")
        backend.put(KEY_B, "b")
        for i in range(MEMORY_MAX_ENTRIES - 2):
            backend.put(("filler", i), i)
        assert len(backend) == MEMORY_MAX_ENTRIES

    def test_lru_eviction_prefers_recently_used(self):
        backend = MemoryBackend()
        self._full(backend)
        backend.get(KEY_A)  # touch A: B is now least recently used
        evicted = backend.put(KEY_C, "c")
        assert evicted == 1
        assert backend.evictions == 1
        assert len(backend) == MEMORY_MAX_ENTRIES
        assert backend.get(KEY_B) is None  # B evicted, not A
        assert backend.get(KEY_A) == "a"
        assert backend.get(KEY_C) == "c"

    def test_overwrite_does_not_evict(self):
        backend = MemoryBackend()
        self._full(backend)
        assert backend.put(KEY_A, "a2") == 0
        assert backend.evictions == 0
        assert backend.get(KEY_A) == "a2"


class TestSQLiteBackend:
    def test_roundtrip_across_instances(self, tmp_path):
        path = tmp_path / "evals.db"
        store = SQLiteBackend(path)
        store.put(KEY_A, {"cost": 2.5})
        store.close()
        reopened = SQLiteBackend(path)
        assert reopened.get(KEY_A) == {"cost": 2.5}
        assert len(reopened) == 1
        reopened.close()

    def test_corrupt_entry_is_dropped_and_recomputed(self, tmp_path):
        path = tmp_path / "evals.db"
        store = SQLiteBackend(path)
        store.put(KEY_A, {"cost": 1.0})
        store.close()
        # Truncate the pickled payload behind the backend's back.
        conn = sqlite3.connect(path)
        (blob,) = conn.execute("SELECT payload FROM entries").fetchone()
        conn.execute(
            "UPDATE entries SET payload = ?", (blob[: len(blob) // 2],)
        )
        conn.commit()
        conn.close()
        store = SQLiteBackend(path)
        assert store.get(KEY_A) is None  # never served back
        assert store.corrupt_entries == 1
        assert len(store) == 0  # entry deleted: next put recomputes it
        store.put(KEY_A, {"cost": 1.0})
        assert store.get(KEY_A) == {"cost": 1.0}
        store.close()

    def test_garbage_entry_is_dropped(self, tmp_path):
        path = tmp_path / "evals.db"
        store = SQLiteBackend(path)
        conn = sqlite3.connect(path)
        conn.execute(
            "INSERT INTO entries VALUES (?, ?)",
            (key_fingerprint(KEY_A), b"not a pickle"),
        )
        conn.commit()
        conn.close()
        assert store.get(KEY_A) is None
        assert store.corrupt_entries == 1
        store.close()

    def test_unreadable_file_is_rotated_cold(self, tmp_path):
        path = tmp_path / "evals.db"
        path.write_bytes(b"this is not a sqlite database at all")
        store = SQLiteBackend(path)  # must not raise
        assert len(store) == 0
        store.put(KEY_A, "a")
        assert store.get(KEY_A) == "a"
        assert (tmp_path / "evals.db.corrupt").exists()
        store.close()

    def test_schema_mismatch_discards_entries(self, tmp_path):
        # "2" is the previous version, whose entries pickle networkx
        # graphs: reading them would re-import networkx.
        for stamp in ("999", "2"):
            path = tmp_path / f"evals-{stamp}.db"
            store = SQLiteBackend(path)
            store.put(KEY_A, "a")
            store.close()
            conn = sqlite3.connect(path)
            conn.execute(
                "UPDATE meta SET v = ? WHERE k = 'schema_version'", (stamp,)
            )
            conn.commit()
            conn.close()
            reopened = SQLiteBackend(path)  # cold start, not a guess
            assert reopened.get(KEY_A) is None
            assert len(reopened) == 0
            reopened.close()

    def test_changing_one_module_changes_the_version(self, tmp_path):
        """The version is a digest of the package's code: a copy reads
        the same, and one changed byte in one module reads another."""
        package = Path(repro.__file__).parent
        same, changed = (tmp_path / name / "repro" for name in ("a", "b"))
        for copy in (same, changed):
            shutil.copytree(
                package, copy, ignore=shutil.ignore_patterns("__pycache__")
            )
        module = changed / "engine" / "cache.py"
        module.write_bytes(module.read_bytes() + b"\n")
        assert store_version(same) == store_version()
        assert store_version(changed) != store_version()

    def test_concurrent_writers_from_processes(self, tmp_path):
        """Two processes hammering the same store never corrupt it."""
        path = tmp_path / "evals.db"
        script = (
            "import sys\n"
            "from repro.engine import SQLiteBackend\n"
            "store = SQLiteBackend(sys.argv[1])\n"
            "tag = sys.argv[2]\n"
            "for i in range(40):\n"
            "    store.put(('shared', i % 10), {'tag': tag, 'i': i})\n"
            "    store.put((tag, i), i)\n"
            "store.close()\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(path), tag],
                env=_child_env(),
            )
            for tag in ("w1", "w2")
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        store = SQLiteBackend(path)
        # 10 shared keys + 40 per writer, every one readable.
        assert len(store) == 90
        for i in range(10):
            value = store.get(("shared", i))
            assert value["tag"] in ("w1", "w2")  # last writer won
        for tag in ("w1", "w2"):
            for i in range(40):
                assert store.get((tag, i)) == i
        store.close()

    def test_concurrent_writers_from_threads(self, tmp_path):
        # The service's `cache: "refresh"` requests each build their own
        # write-only cache (with its own lock) over the shared backend,
        # so threads of one process write the same key concurrently.
        store = SQLiteBackend(tmp_path / "evals.db")
        caches = [
            EvaluationCache(backend=store, write_only=True) for _ in range(4)
        ]
        result = JobResult(tag="", value=1.5)
        done = threading.Event()

        def write(cache):
            for _ in range(300):
                cache.put(KEY_A, result)

        def read():  # a torn entry read back counts in corrupt_entries
            while not done.is_set():
                store.get(KEY_A)

        reader = threading.Thread(target=read)
        writers = [threading.Thread(target=write, args=(c,)) for c in caches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=120)
            done.set()
            reader.join(timeout=120)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (reader, *writers))
        assert store.write_errors == 0 and store.corrupt_entries == 0
        assert store.get(KEY_A) == result
        assert len(store) == 1
        store.close()


class TestMakeBackend:
    def test_spec_forms(self, tmp_path):
        assert isinstance(make_backend(None), MemoryBackend)
        sqlite_store = make_backend(f"sqlite:{tmp_path}/a.db")
        assert isinstance(sqlite_store, SQLiteBackend)
        assert sqlite_store.path == f"{tmp_path}/a.db"
        sqlite_store.close()

    def test_instance_passthrough(self, tmp_path):
        memory = MemoryBackend()
        assert make_backend(memory) is memory
        sqlite_store = SQLiteBackend(tmp_path / "a.db")
        assert make_backend(sqlite_store) is sqlite_store
        sqlite_store.close()

    def test_rejects_unknown_types(self):
        with pytest.raises(ReproError, match="sqlite:PATH"):
            make_backend(42)

    @pytest.mark.parametrize(
        "spec",
        ["sqlite:", "memory", "dir:store", "bogus:x", "evals.db", "store"],
    )
    def test_rejects_other_spellings(self, tmp_path, monkeypatch, spec):
        """A mistyped spec fails loudly instead of running cold (an empty
        ``sqlite:`` path would open a private temporary database) or
        creating a stray file or directory."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ReproError, match="sqlite:PATH"):
            make_backend(spec)
        assert list(tmp_path.iterdir()) == []


class TestEvaluationCacheWithBackends:
    def test_eviction_counter_reaches_stats(self):
        cache = EvaluationCache()
        for i in range(MEMORY_MAX_ENTRIES + 1):
            cache.put(("filler", i), i)
        assert len(cache) == MEMORY_MAX_ENTRIES
        assert cache.evictions == cache.backend.evictions == 1
        assert "1 evicted" in str(cache)

    def test_write_only_reads_nothing_but_persists(self):
        backend = MemoryBackend()
        backend.put(KEY_A, "warm")
        cache = EvaluationCache(backend=backend, write_only=True)
        assert cache.get(KEY_A) is None  # refresh semantics
        assert cache.stats.misses == 1
        cache.put(KEY_A, "recomputed")
        assert backend.get(KEY_A) == "recomputed"

    @pytest.mark.parametrize("spec", ["sqlite:{}/evals.db"])
    def test_engine_warm_start_is_bit_identical(self, tmp_path, spec, vopd_app):
        """A second engine over a warm store does zero evaluations."""
        spec = spec.format(tmp_path)
        cold_engine = ExplorationEngine(cache_backend=spec)
        cold = select_topology(
            vopd_app, routing="MP", config=FAST, engine=cold_engine
        )
        assert cold_engine.cache.stats.hits == 0
        _close(cold_engine)

        warm_engine = ExplorationEngine(cache_backend=spec)
        warm = select_topology(
            vopd_app, routing="MP", config=FAST, engine=warm_engine
        )
        assert warm_engine.cache.stats.misses == 0  # zero evaluations
        assert warm_engine.cache.stats.hits == cold_engine.cache.stats.misses
        assert warm.best_name == cold.best_name
        assert warm.table() == cold.table()
        for name, evaluation in cold.evaluations.items():
            warm_eval = warm.evaluations[name]
            assert warm_eval.cost == evaluation.cost
            assert warm_eval.assignment == evaluation.assignment
        _close(warm_engine)


def _close(engine) -> None:
    closer = getattr(engine.cache.backend, "close", None)
    if closer is not None:
        closer()


def _make_read_only(backend: SQLiteBackend) -> None:
    """Refuse every further write, as a read-only filesystem would."""
    backend._conn.execute("PRAGMA query_only = ON")


def _child_env() -> dict:
    import os

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestWriteErrors:
    """Failed cache writes are counted and surfaced, never raised."""

    def test_sqlite_backend_warns_once_on_failed_writes(self, tmp_path, caplog):
        backend = SQLiteBackend(tmp_path / "evals.db")
        _make_read_only(backend)
        with caplog.at_level("WARNING", logger="repro.engine.backends"):
            backend.put(KEY_A, {"cost": 1})
            backend.put(KEY_A, {"cost": 2})
        assert backend.write_errors == 2
        assert backend.get(KEY_A) is None  # dropped, not half-written
        # Only the first failure warns; repeats are demoted to debug.
        warnings = [
            r
            for r in caplog.records
            if r.levelname == "WARNING" and "write failed" in r.getMessage()
        ]
        assert len(warnings) == 1
        assert "first write failure" in warnings[0].getMessage()
        backend.close()

    def test_sqlite_backend_counts_failed_writes(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "evals.db")
        backend._conn.close()  # simulate a store gone bad mid-run
        backend.put(KEY_A, {"cost": 1})
        assert backend.write_errors == 1

    def test_cache_stats_mirror_backend_write_errors(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "evals.db")
        _make_read_only(backend)
        cache = EvaluationCache(backend=backend)
        cache.put(KEY_A, {"cost": 1})
        assert cache.write_errors == backend.write_errors == 1
        assert "1 write error" in str(cache)

    def test_memory_backend_reports_zero(self):
        cache = EvaluationCache(backend=MemoryBackend())
        cache.put(KEY_A, "a")
        assert cache.write_errors == 0
