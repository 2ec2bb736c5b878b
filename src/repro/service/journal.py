"""Crash-safe write-ahead job journal: durability for the mapping service.

:class:`JobJournal` is a sqlite database in WAL mode that records every job at submit (the validated spec payload,
tenant, priority, client-supplied idempotency key), every state
transition (queued → running → done/failed/cancelled, with execution
attempts), every progress event (so the NDJSON ``?since=`` cursor
survives a restart), and — for finished jobs — the full result payload
as a sha256-checksummed blob.

On daemon startup :meth:`recover` replays the journal:

* **terminal** jobs whose result blob verifies are restored read-only,
  so ``GET /v1/jobs/{id}/result`` and the event stream keep answering
  across restarts;
* **queued and running** jobs are handed back for re-enqueueing — a
  ``kill -9`` mid-batch therefore loses no accepted work, and because
  mapping is deterministic the recovered rerun produces digests
  identical to an uninterrupted run;
* a terminal job whose blob fails its checksum (torn write, disk
  corruption, the ``journal.corrupt`` fault) is *demoted*: the blob is
  dropped, the eviction counted, and the job re-enqueued — recompute is
  always correct (DESIGN.md §11).

Idempotency keys make retried submissions safe: :meth:`find_idempotent`
answers "has this key ever been journaled?" so a client that re-sends a
submit after a connection error gets the original job back instead of
double-running it.

Through the :class:`repro._sqlite.WalDatabase` helper it shares with
:class:`~repro.pipeline.store.CacheStore`, a journal failure must never
fail a job: every operation degrades to a no-op/miss and bumps
``errors`` instead of raising, connections are per-pid (fork safety),
and writes are single-statement WAL transactions.  A service
constructed with ``journal_path=None`` skips every call — today's
in-memory behaviour, bit-identically, at zero overhead.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .._sqlite import WalDatabase, default_db_path

#: Bump when the row payload format changes; journals written under
#: another version are cleared on open (jobs would not restore
#: meaningfully).
SCHEMA_VERSION = 1

#: Environment variable naming the journal database for ``soidomino
#: serve`` (``none`` disables; ``--journal`` wins over it).
JOURNAL_ENV = "REPRO_JOURNAL"

_COUNTERS = ("submitted", "finished", "recovered", "requeued",
             "corrupt_results")


def default_journal_path() -> str:
    """Where the job journal lives unless overridden.

    ``REPRO_JOURNAL`` wins; otherwise a per-user cache path.
    """
    return default_db_path(JOURNAL_ENV, "journal.sqlite")


class RecoveredJob:
    """One journal row, decoded for the service to rebuild a Job from."""

    __slots__ = ("job_id", "spec_payload", "state", "attempts",
                 "idempotency_key", "created_s", "started_s", "finished_s",
                 "error", "result", "events")

    def __init__(self, job_id: str, spec_payload: Dict[str, object],
                 state: str, attempts: int,
                 idempotency_key: Optional[str],
                 created_s: float, started_s: Optional[float],
                 finished_s: Optional[float],
                 error: Optional[Dict[str, object]],
                 result: Optional[Dict[str, object]],
                 events: List[Dict[str, object]]):
        self.job_id = job_id
        self.spec_payload = spec_payload
        self.state = state
        self.attempts = attempts
        self.idempotency_key = idempotency_key
        self.created_s = created_s
        self.started_s = started_s
        self.finished_s = finished_s
        self.error = error
        self.result = result
        self.events = events


class JobJournal(WalDatabase):
    """Checksummed sqlite write-ahead journal for service jobs.

    Parameters
    ----------
    path:
        Database file; parent directories are created on first open.
        ``":memory:"`` is supported for tests (single-process only).
    """

    SCHEMA_VERSION = SCHEMA_VERSION
    SCHEMA = (
        "CREATE TABLE IF NOT EXISTS jobs ("
        " id TEXT PRIMARY KEY,"
        " idempotency_key TEXT,"
        " tenant TEXT NOT NULL,"
        " priority INTEGER NOT NULL,"
        " spec TEXT NOT NULL,"
        " state TEXT NOT NULL,"
        " attempts INTEGER NOT NULL DEFAULT 0,"
        " created_s REAL NOT NULL,"
        " started_s REAL,"
        " finished_s REAL,"
        " error TEXT,"
        " result BLOB,"
        " result_checksum TEXT)",
        "CREATE INDEX IF NOT EXISTS jobs_idempotency"
        " ON jobs (idempotency_key)",
        "CREATE TABLE IF NOT EXISTS events ("
        " job_id TEXT NOT NULL,"
        " seq INTEGER NOT NULL,"
        " event TEXT NOT NULL,"
        " PRIMARY KEY (job_id, seq))",
    )
    DATA_TABLES = ("jobs", "events")

    # ------------------------------------------------------------------
    # the write-ahead path (called by MappingService, degrade-to-no-op)
    # ------------------------------------------------------------------
    def record_submit(self, job) -> None:
        """Persist one admitted job before it is observable as queued."""
        def op(conn):
            with conn:
                conn.execute(
                    "INSERT OR REPLACE INTO jobs (id, idempotency_key,"
                    " tenant, priority, spec, state, attempts,"
                    " created_s, started_s, finished_s, error,"
                    " result, result_checksum)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (job.id, job.spec.idempotency_key,
                     job.spec.tenant, job.spec.priority,
                     json.dumps(job.spec.as_dict(), sort_keys=True),
                     job.state, job.attempts, job.created_s,
                     job.started_s, job.finished_s, None, None, None))
                self.bump(conn, "submitted")
        self.run(op, None)

    def record_state(self, job) -> None:
        """Persist a state transition (and the attempt/error columns)."""
        def op(conn):
            with conn:
                conn.execute(
                    "UPDATE jobs SET state=?, attempts=?, started_s=?,"
                    " finished_s=?, error=? WHERE id=?",
                    (job.state, job.attempts, job.started_s,
                     job.finished_s,
                     json.dumps(job.error) if job.error else None,
                     job.id))
                if job.finished:
                    self.bump(conn, "finished")
        self.run(op, None)

    def record_result(self, job, payload: Dict[str, object],
                      corrupt: bool = False) -> None:
        """Persist the finished job's result as a checksummed blob.

        The checksum is computed first; ``corrupt=True`` (the
        ``journal.corrupt`` fault, decided by the scheduler) flips a
        byte *after* it — simulating a torn write that :meth:`recover`
        must detect and demote.
        """
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        digest = self.checksum(blob)
        if corrupt:
            corrupted = bytearray(blob)
            corrupted[len(corrupted) // 2] ^= 0xFF
            blob = bytes(corrupted)

        def op(conn):
            with conn:
                conn.execute(
                    "UPDATE jobs SET result=?, result_checksum=?"
                    " WHERE id=?", (blob, digest, job.id))
        self.run(op, None)

    def record_event(self, job_id: str, event: Dict[str, object]) -> None:
        """Append one progress event (keyed by its ``seq`` cursor)."""
        def op(conn):
            with conn:
                conn.execute(
                    "INSERT OR REPLACE INTO events (job_id, seq, event)"
                    " VALUES (?, ?, ?)",
                    (job_id, event.get("seq", 0), json.dumps(event)))
        self.run(op, None)

    def forget(self, job_id: str) -> None:
        """Drop one job and its events (keep_jobs trimming)."""
        def op(conn):
            with conn:
                conn.execute("DELETE FROM jobs WHERE id=?", (job_id,))
                conn.execute("DELETE FROM events WHERE job_id=?", (job_id,))
        self.run(op, None)

    # ------------------------------------------------------------------
    # recovery (daemon startup)
    # ------------------------------------------------------------------
    def recover(self) -> Tuple[List[RecoveredJob], List[RecoveredJob]]:
        """Replay the journal: ``(restored, requeue)``.

        ``restored`` holds terminal jobs whose result blob (when one
        exists) verified — the service re-registers them read-only.
        ``requeue`` holds queued/running jobs *plus* any done job whose
        blob failed its checksum (demoted, ``corrupt_results`` bumped):
        the service re-enqueues them, and determinism guarantees the
        rerun matches the digests the lost run would have produced.
        """
        def op(conn):
            restored: List[RecoveredJob] = []
            requeue: List[RecoveredJob] = []
            rows = conn.execute(
                "SELECT id, idempotency_key, spec, state, attempts,"
                " created_s, started_s, finished_s, error,"
                " result, result_checksum FROM jobs"
                " ORDER BY created_s, id").fetchall()
            events_by_job: Dict[str, List[Dict[str, object]]] = {}
            for job_id, payload in conn.execute(
                    "SELECT job_id, event FROM events"
                    " ORDER BY job_id, seq"):
                try:
                    events_by_job.setdefault(job_id, []).append(
                        json.loads(payload))
                except ValueError:
                    continue
            demoted: List[str] = []
            for (job_id, idem, spec_json, state, attempts, created_s,
                 started_s, finished_s, error_json, blob,
                 stored_sum) in rows:
                try:
                    spec_payload = json.loads(spec_json)
                except ValueError:
                    continue  # unreadable spec: nothing to rerun
                error = None
                if error_json:
                    try:
                        error = json.loads(error_json)
                    except ValueError:
                        error = None
                result = None
                corrupt = False
                if blob is not None:
                    blob = bytes(blob)
                    if (stored_sum is not None
                            and self.checksum(blob) == stored_sum):
                        try:
                            result = json.loads(blob)
                        except ValueError:
                            corrupt = True
                    else:
                        corrupt = True
                recovered = RecoveredJob(
                    job_id=job_id, spec_payload=spec_payload,
                    state=state, attempts=attempts,
                    idempotency_key=idem, created_s=created_s,
                    started_s=started_s, finished_s=finished_s,
                    error=error, result=result,
                    events=events_by_job.get(job_id, []))
                if state == "done" and (corrupt or result is None):
                    demoted.append(job_id)
                    requeue.append(recovered)
                elif state in ("done", "failed", "cancelled"):
                    restored.append(recovered)
                else:
                    requeue.append(recovered)
            with conn:
                for job_id in demoted:
                    conn.execute(
                        "UPDATE jobs SET result=NULL,"
                        " result_checksum=NULL WHERE id=?", (job_id,))
                if demoted:
                    self.bump(conn, "corrupt_results", len(demoted))
                if restored or requeue:
                    self.bump(conn, "recovered",
                              len(restored) + len(requeue))
                if requeue:
                    self.bump(conn, "requeued", len(requeue))
            return restored, requeue
        return self.run(op, ([], []))

    def find_idempotent(self, key: str) -> Optional[str]:
        """The job id previously journaled under ``key``, or None."""
        def op(conn):
            row = conn.execute(
                "SELECT id FROM jobs WHERE idempotency_key=?"
                " ORDER BY created_s LIMIT 1", (key,)).fetchone()
            return row[0] if row else None
        return self.run(op, None)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def non_terminal_count(self) -> int:
        """Jobs the journal still owes a run (queued/running rows)."""
        return self.run(lambda conn: conn.execute(
            "SELECT COUNT(*) FROM jobs WHERE state IN"
            " ('queued', 'running')").fetchone()[0], 0)

    def stats(self) -> Dict[str, object]:
        """Row counts by state plus the cumulative counters."""
        by_state, cumulative = self.run(
            lambda conn: (dict(conn.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state")),
                self.counters(conn, _COUNTERS)),
            ({}, dict.fromkeys(_COUNTERS, 0)))
        return {
            "path": self.path,
            "jobs": by_state,
            "non_terminal": (by_state.get("queued", 0)
                             + by_state.get("running", 0)),
            **cumulative,
            "errors": self.errors,
        }
