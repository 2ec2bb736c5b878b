"""The one sqlite-WAL helper behind the key/value store and the job journal.

:class:`WalDatabase` holds what :class:`~repro.pipeline.CacheStore` and
:class:`~repro.service.JobJournal` share:

* a process-local connection, opened lazily and reopened after a
  ``fork`` (a handle never crosses processes), in WAL mode with
  ``synchronous=NORMAL`` and a busy timeout, so single-statement
  transactions from many processes interleave safely;
* a ``meta.schema_version`` row: a file written under another version
  has its data tables and counters emptied on open;
* a ``counters`` table of cumulative counts that survive every process
  and restart that touches the file (:meth:`bump`, :meth:`counters`);
* sha256 :meth:`checksum` of stored blobs;
* the degrade-on-error contract: :meth:`run` executes one operation
  under the object's lock and turns any ``sqlite3.Error`` into the
  caller's default plus one ``errors`` bump, so a database failure
  never fails a job.

A subclass names its version and its own tables; everything else is
here.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import threading
from typing import Callable, Dict, Optional, Sequence, TypeVar

T = TypeVar("T")


def default_db_path(env: str, filename: str) -> str:
    """``$env`` when set, else ``soidomino/<filename>`` under the
    per-user cache directory (``$XDG_CACHE_HOME``, or ``~/.cache``)."""
    path = os.environ.get(env)
    if path:
        return path
    base = os.environ.get("XDG_CACHE_HOME",
                          os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "soidomino", filename)


class WalDatabase:
    """A degrade-on-error sqlite database; subclasses declare the schema.

    Parameters
    ----------
    path:
        Database file; parent directories are created on first open.
        ``":memory:"`` is supported for tests (single-process only).
    """

    #: the subclass's payload format; another version on disk is cleared
    SCHEMA_VERSION = 1
    #: ``CREATE ... IF NOT EXISTS`` statements of the subclass's tables
    SCHEMA: Sequence[str] = ()
    #: tables emptied (with ``counters``) on a schema-version mismatch
    DATA_TABLES: Sequence[str] = ()

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        self._pid: Optional[int] = None
        #: operations that hit a sqlite error and degraded
        self.errors = 0

    def _connect(self) -> sqlite3.Connection:
        """The process-local connection, (re)opened after a fork."""
        pid = os.getpid()
        if self._conn is None or self._pid != pid:
            if self._conn is not None and self._pid == pid:
                self._conn.close()
            if self.path != ":memory:":
                parent = os.path.dirname(os.path.abspath(self.path))
                os.makedirs(parent, exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=30.0,
                                   check_same_thread=False)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            self._init_schema(conn)
            self._conn = conn
            self._pid = pid
        return self._conn

    def _init_schema(self, conn: sqlite3.Connection) -> None:
        version = str(self.SCHEMA_VERSION)
        with conn:
            conn.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                " key TEXT PRIMARY KEY, value TEXT)")
            for statement in self.SCHEMA:
                conn.execute(statement)
            conn.execute(
                "CREATE TABLE IF NOT EXISTS counters ("
                " name TEXT PRIMARY KEY, value INTEGER NOT NULL)")
            row = conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", version))
            elif row[0] != version:
                # written under an incompatible payload format: the rows
                # would not decode meaningfully, so start over
                for table in (*self.DATA_TABLES, "counters"):
                    conn.execute(f"DELETE FROM {table}")
                conn.execute(
                    "UPDATE meta SET value=? WHERE key='schema_version'",
                    (version,))

    def run(self, op: Callable[[sqlite3.Connection], T], default: T) -> T:
        """``op(conn)`` under the lock; ``default`` (and one ``errors``
        bump) if it raises a sqlite error."""
        try:
            with self._lock:
                return op(self._connect())
        except sqlite3.Error:
            self.errors += 1
            return default

    @staticmethod
    def bump(conn: sqlite3.Connection, name: str, amount: int = 1) -> None:
        """Add ``amount`` to one cumulative counter."""
        conn.execute(
            "INSERT INTO counters (name, value) VALUES (?, ?) "
            "ON CONFLICT(name) DO UPDATE SET value = value + ?",
            (name, amount, amount))

    @staticmethod
    def counters(conn: sqlite3.Connection,
                 names: Sequence[str]) -> Dict[str, int]:
        """The cumulative counters ``names`` (0 when never bumped)."""
        values = dict.fromkeys(names, 0)
        for name, value in conn.execute("SELECT name, value FROM counters"):
            if name in values:
                values[name] = value
        return values

    @staticmethod
    def checksum(payload: bytes) -> str:
        return hashlib.sha256(payload).hexdigest()

    def close(self) -> None:
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                self._conn.close()
            self._conn = None
            self._pid = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(path={self.path!r})"
