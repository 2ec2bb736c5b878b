"""A checksummed sqlite key/value store, kept for the benchmark.

:class:`CacheStore` maps string keys to byte payloads.  Nothing in the
mapping stack writes it: ``bench/workloads.py`` still opens one per
pool or daemon pass, reads its counters (:meth:`stats`), lists the keys
of its ``entries`` table, and times :meth:`get` and :meth:`put` on
them.

Every entry is checksummed: :meth:`put` stores ``sha256(payload)``
alongside the payload and :meth:`get` re-derives it before returning the
bytes.  A mismatch — a torn write, disk corruption, a foreign writer —
deletes the row and reports a miss, and the eviction is counted.
Inserts are first-writer-wins (``INSERT OR IGNORE``).

A sqlite failure never raises: every operation degrades to a miss /
no-op and bumps the ``errors`` counter instead.  Cumulative counters
(hits / misses / stores / evictions) are persisted in the database
itself, so :meth:`stats` reports totals across every process that ever
touched the file.  The connection, schema-version, counter and
degrade-on-error machinery is :class:`repro._sqlite.WalDatabase`,
shared with the service's job journal.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional

from .._sqlite import WalDatabase

#: Bump when the entry format changes; stores written under another
#: version are cleared on open.
SCHEMA_VERSION = 2

_COUNTERS = ("hits", "misses", "stores", "evictions")


class CacheStore(WalDatabase):
    """Checksummed sqlite key/value store (``bench/workloads.py``).

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
            # a foreign writer may have stored TEXT: checksum its bytes
            payload = (payload.encode() if isinstance(payload, str)
                       else bytes(payload))
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

    # ------------------------------------------------------------------
    # accounting / lifecycle
    # ------------------------------------------------------------------
    @staticmethod
    def _count(conn) -> int:
        return conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]

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
