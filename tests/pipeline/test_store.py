"""CacheStore: persistence, integrity, counters (what bench/ drives)."""

import os
import sqlite3
import subprocess
import sys

import pytest

from repro.pipeline import CacheStore
from repro.pipeline.store import SCHEMA_VERSION


def _entries(store):
    return store.stats()["entries"]


@pytest.fixture
def store(tmp_path):
    s = CacheStore(str(tmp_path / "cones.sqlite"))
    yield s
    s.close()


class TestKeyValue:
    def test_roundtrip(self, store):
        assert store.get("k") is None
        assert store.put("k", b"payload")
        assert store.get("k") == b"payload"
        assert _entries(store) == 1
        assert store.hits == 1 and store.misses == 1 and store.stores == 1

    def test_first_writer_wins(self, store):
        assert store.put("k", b"first")
        assert not store.put("k", b"second")
        assert store.get("k") == b"first"

    def test_checksum_mismatch_poison_evicts(self, store):
        store.put("k", b"payload")
        with sqlite3.connect(store.path) as conn:
            conn.execute("UPDATE entries SET payload=?", (b"tampered",))
        assert store.get("k") is None  # miss, not garbage
        assert store.evictions == 1
        assert _entries(store) == 0  # the poisoned row is gone

    def test_delete_and_poison_counter(self, store):
        # a poisoned row is deleted on read and its eviction is counted
        # in the file, so a later process sees it in stats()
        store.put("k", b"payload")
        with sqlite3.connect(store.path) as conn:
            conn.execute("UPDATE entries SET checksum='0'")
        assert store.get("k") is None
        store.close()
        reopened = CacheStore(store.path)
        try:
            stats = reopened.stats()
            assert stats["evictions"] == 1
            assert stats["session"]["evictions"] == 0
            assert reopened.get("k") is None  # deleted, not re-checked
            assert reopened.evictions == 0
        finally:
            reopened.close()

    def test_schema_version_mismatch_clears(self, store):
        store.put("k", b"payload")
        store.close()
        with sqlite3.connect(store.path) as conn:
            conn.execute("UPDATE meta SET value='0' "
                         "WHERE key='schema_version'")
        reopened = CacheStore(store.path)
        try:
            assert reopened.get("k") is None
            assert _entries(reopened) == 0
        finally:
            reopened.close()
        assert SCHEMA_VERSION >= 1

    def test_stats_are_cumulative_across_objects(self, store):
        store.put("k", b"payload")
        store.get("k")
        store.close()
        other = CacheStore(store.path)
        try:
            other.get("k")
            stats = other.stats()
            assert stats["hits"] == 2  # both objects' hits, from the DB
            assert stats["stores"] == 1
            assert stats["entries"] == 1
            assert stats["size_bytes"] > 0
            assert 0.0 < stats["hit_rate"] <= 1.0
            assert stats["session"]["hits"] == 1  # this object only
        finally:
            other.close()

    def test_sqlite_failure_degrades_to_miss(self, tmp_path):
        victim = CacheStore(str(tmp_path / "gone.sqlite"))
        victim.put("k", b"payload")
        victim._conn.close()  # simulate a dead handle mid-session
        assert victim.get("k") is None
        assert not victim.put("j", b"x")
        assert victim.errors >= 2

    def test_bench_reads_keys_from_the_entries_table(self, store):
        # bench/workloads.py lists keys with raw SQL, then get()s them
        store.put("b", b"2")
        store.put("a", b"1")
        with sqlite3.connect(store.path) as conn:
            keys = [row[0] for row in
                    conn.execute("SELECT key FROM entries ORDER BY key")]
        assert keys == ["a", "b"]
        assert [store.get(key) for key in keys] == [b"1", b"2"]
        assert {"hits", "misses", "size_bytes"} <= set(store.stats())


class TestPersistence:
    def test_store_survives_processes(self, store):
        # another process writes and closes; this one reads its payload
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        script = ("import sys; from repro.pipeline import CacheStore; "
                  "s = CacheStore(sys.argv[1]); "
                  "assert s.put('k', bytes(range(256))); s.close()")
        subprocess.run([sys.executable, "-c", script, store.path],
                       env=env, check=True, timeout=60)
        assert store.get("k") == bytes(range(256))
        assert store.stats()["stores"] == 1
