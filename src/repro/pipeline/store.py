"""Persistent cross-process cone cache: the :class:`TreeCache` second tier.

:class:`CacheStore` is a sqlite-backed key/value store for templated DP
tables.  Keys are *stable* cone identities — a sha256 over the canonical
cone shape plus the :class:`~repro.mapping.engine.MapperConfig` and cost-
model fingerprints (see :meth:`TreeCache.stable_key`) — so entries
written by one process (or one daemon lifetime) are valid in any other:
the hash-consed small-integer signatures :class:`TreeCache` uses
in-memory never leak into the store.

Every entry is checksummed: :meth:`put` stores ``sha256(payload)``
alongside the payload and :meth:`get` re-derives it before returning the
bytes.  A mismatch — a torn write, disk corruption, a foreign writer —
is *poison* exactly as in the in-memory tier (DESIGN.md §11): the row is
deleted, the lookup reports a miss (the DP recomputes, which is always
correct), and the eviction is counted.  Unpicklable or stale-schema
payloads are handled the same way by the caller (:meth:`TreeCache.fetch`).

Concurrency: the store is written by every pool worker and read by the
parent, so the connection runs in WAL mode with a busy timeout, writes
are single-statement transactions, and inserts are first-writer-wins
(``INSERT OR IGNORE``) — the same determinism contract as the in-memory
tier, where whichever process computes a shape first defines the stored
template (all of them compute bit-identical templates by construction).
Connections are opened lazily per process: a :class:`CacheStore` object
that crosses a ``fork`` reopens rather than sharing the parent's handle.

A sqlite failure must never fail a mapping: every operation degrades to
a miss / no-op and bumps the ``errors`` counter instead of raising.

Cumulative counters (hits / misses / stores / evictions) are persisted
in the database itself, so ``soidomino cache`` reports totals across
every process and daemon restart that ever touched the file.  The
connection, schema-version, counter and degrade-on-error machinery is
:class:`repro._sqlite.WalDatabase`, shared with the service's job
journal.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional

from .._sqlite import WalDatabase, default_db_path

#: Bump when the entry payload format (pickled template schema) changes;
#: stores written under another version are cleared on open.  Version 2
#: pickles ``MapTuple`` without the ``op``/``left``/``right`` slots.
SCHEMA_VERSION = 2

_COUNTERS = ("hits", "misses", "stores", "evictions")


def default_store_path() -> str:
    """Where the persistent cone cache lives unless overridden.

    ``SOIDOMINO_CACHE_DB`` wins; otherwise a per-user cache path.
    """
    return default_db_path("SOIDOMINO_CACHE_DB", "cones.sqlite")


class CacheStore(WalDatabase):
    """Checksummed sqlite key/value store for templated DP tables.

    Parameters
    ----------
    path:
        Database file; parent directories are created on first open.
        ``":memory:"`` is supported for tests (single-process only).
    """

    SCHEMA_VERSION = SCHEMA_VERSION
    SCHEMA = (
        "CREATE TABLE IF NOT EXISTS entries ("
        " key TEXT PRIMARY KEY,"
        " payload BLOB NOT NULL,"
        " checksum TEXT NOT NULL,"
        " created_s REAL NOT NULL,"
        " last_used_s REAL NOT NULL,"
        " hits INTEGER NOT NULL DEFAULT 0)",
    )
    DATA_TABLES = ("entries",)

    def __init__(self, path: str):
        super().__init__(path)
        #: session-local (this process, this object) op counters
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # key/value operations
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[bytes]:
        """Fetch and integrity-check one payload; ``None`` on miss.

        A checksum mismatch deletes the row (poison eviction) and
        reports a miss.
        """
        def op(conn):
            row = conn.execute(
                "SELECT payload, checksum FROM entries WHERE key=?",
                (key,)).fetchone()
            if row is None:
                self.misses += 1
                with conn:
                    self.bump(conn, "misses")
                return None
            payload, stored_sum = row
            payload = bytes(payload)
            if self.checksum(payload) != stored_sum:
                self.evictions += 1
                self.misses += 1
                with conn:
                    conn.execute("DELETE FROM entries WHERE key=?", (key,))
                    self.bump(conn, "evictions")
                    self.bump(conn, "misses")
                return None
            self.hits += 1
            with conn:
                conn.execute(
                    "UPDATE entries SET last_used_s=?, hits=hits+1 "
                    "WHERE key=?", (time.time(), key))
                self.bump(conn, "hits")
            return payload
        return self.run(op, None)

    def put(self, key: str, payload: bytes) -> bool:
        """Store one payload (first writer wins); True if inserted."""
        def op(conn):
            now = time.time()
            with conn:
                cursor = conn.execute(
                    "INSERT OR IGNORE INTO entries "
                    "(key, payload, checksum, created_s, last_used_s) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (key, payload, self.checksum(payload), now, now))
                if cursor.rowcount:
                    self.bump(conn, "stores")
            if cursor.rowcount:
                self.stores += 1
                return True
            return False
        return self.run(op, False)

    def delete(self, key: str, *, poison: bool = False) -> None:
        """Drop one entry; ``poison=True`` also counts an eviction
        (used by the caller when a checksum-valid payload fails to
        deserialize — stale pickle schema, foreign bytes)."""
        def op(conn):
            with conn:
                conn.execute("DELETE FROM entries WHERE key=?", (key,))
                if poison:
                    self.bump(conn, "evictions")
            if poison:
                self.evictions += 1
        self.run(op, None)

    # ------------------------------------------------------------------
    # accounting / lifecycle
    # ------------------------------------------------------------------
    @staticmethod
    def _count(conn) -> int:
        return conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]

    def __len__(self) -> int:
        return self.run(self._count, 0)

    def size_bytes(self) -> int:
        """Size on disk (main file + WAL sidecars, when present)."""
        if self.path == ":memory:":
            return 0
        total = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                total += os.path.getsize(self.path + suffix)
            except OSError:
                pass
        return total

    def stats(self) -> Dict[str, object]:
        """Cross-process cumulative counters plus this-session ones."""
        cumulative, entries = self.run(
            lambda conn: (self.counters(conn, _COUNTERS), self._count(conn)),
            (dict.fromkeys(_COUNTERS, 0), 0))
        requests = cumulative["hits"] + cumulative["misses"]
        return {
            "path": self.path,
            "entries": entries,
            "size_bytes": self.size_bytes(),
            "hit_rate": cumulative["hits"] / requests if requests else 0.0,
            **cumulative,
            "session": {"hits": self.hits, "misses": self.misses,
                        "stores": self.stores, "evictions": self.evictions,
                        "errors": self.errors},
        }

    def clear(self) -> int:
        """Drop every entry and reset the cumulative counters; returns
        the number of entries removed."""
        def op(conn):
            with conn:
                removed = self._count(conn)
                conn.execute("DELETE FROM entries")
                conn.execute("DELETE FROM counters")
            conn.execute("VACUUM")
            return removed
        return self.run(op, 0)
