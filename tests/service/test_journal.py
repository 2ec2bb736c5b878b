"""JobJournal: checksummed write-ahead rows, recovery, degradation."""

import sqlite3

from repro.pipeline import CacheStore
from repro.service import JobJournal, default_journal_path
from repro.service.jobs import DONE, RUNNING, Job, JobSpec
from repro.service.journal import JOURNAL_ENV


def _job(**overrides):
    payload = {"circuits": ["mux"], **overrides}
    return Job(spec=JobSpec.from_payload(payload))


def _db(tmp_path):
    return str(tmp_path / "journal.sqlite")


class TestWriteAheadPath:
    def test_queued_job_round_trips_for_requeue(self, tmp_path):
        journal = JobJournal(_db(tmp_path))
        job = _job(tenant="alice", priority=3, idempotency_key="k1")
        journal.record_submit(job)
        restored, requeue = journal.recover()
        assert restored == [] and len(requeue) == 1
        rec = requeue[0]
        assert rec.job_id == job.id
        assert rec.state == "queued"
        assert rec.idempotency_key == "k1"
        assert rec.spec_payload == job.spec.as_dict()
        assert JobSpec.from_payload(rec.spec_payload) == job.spec
        journal.close()

    def test_terminal_job_restores_result_and_events(self, tmp_path):
        journal = JobJournal(_db(tmp_path))
        job = _job()
        journal.record_submit(job)
        journal.record_event(job.id, job.add_event("state", state="queued"))
        job.state, job.attempts = RUNNING, 1
        journal.record_state(job)
        journal.record_event(job.id, job.add_event("state", state="running"))
        payload = {"results": [{"circuit": "mux", "digest": "abc"}]}
        job.state, job.result, job.finished_s = DONE, payload, job.created_s
        journal.record_result(job, payload)
        journal.record_state(job)
        journal.record_event(job.id, job.add_event("state", state="done"))
        restored, requeue = journal.recover()
        assert requeue == [] and len(restored) == 1
        rec = restored[0]
        assert rec.state == "done" and rec.attempts == 1
        assert rec.result == payload
        assert [e["seq"] for e in rec.events] == [0, 1, 2]
        assert journal.non_terminal_count() == 0
        journal.close()

    def test_corrupt_result_blob_is_demoted_to_requeue(self, tmp_path):
        journal = JobJournal(_db(tmp_path))
        job = _job()
        journal.record_submit(job)
        job.state, job.finished_s = DONE, job.created_s
        journal.record_result(job, {"results": []}, corrupt=True)
        journal.record_state(job)
        restored, requeue = journal.recover()
        assert restored == [] and len(requeue) == 1
        assert requeue[0].result is None  # blob failed its checksum
        assert journal.stats()["corrupt_results"] == 1
        journal.close()

    def test_forget_drops_the_job_and_its_events(self, tmp_path):
        journal = JobJournal(_db(tmp_path))
        job = _job()
        journal.record_submit(job)
        journal.record_event(job.id, job.add_event("state", state="queued"))
        journal.forget(job.id)
        restored, requeue = journal.recover()
        assert restored == [] and requeue == []
        journal.close()


class TestIdempotency:
    def test_find_idempotent_answers_across_connections(self, tmp_path):
        path = _db(tmp_path)
        journal = JobJournal(path)
        job = _job(idempotency_key="retry-me")
        journal.record_submit(job)
        journal.close()
        reopened = JobJournal(path)
        assert reopened.find_idempotent("retry-me") == job.id
        assert reopened.find_idempotent("never-seen") is None
        reopened.close()


class TestLifecycle:
    def test_schema_version_mismatch_clears_the_journal(self, tmp_path):
        path = _db(tmp_path)
        journal = JobJournal(path)
        journal.record_submit(_job())
        journal.close()
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE meta SET value='0'"
                         " WHERE key='schema_version'")
        reopened = JobJournal(path)
        restored, requeue = reopened.recover()
        assert restored == [] and requeue == []
        assert reopened.errors == 0
        reopened.close()

    def test_every_operation_degrades_to_noop_on_sqlite_error(self, tmp_path):
        # a directory is not a database: every call must absorb the
        # sqlite error (bumping ``errors``) instead of failing the job.
        # Both sqlite tiers share one helper, so both inputs run here.
        journal = JobJournal(str(tmp_path))
        job = _job()
        journal.record_submit(job)
        journal.record_state(job)
        journal.record_result(job, {"results": []})
        journal.record_event(job.id, {"seq": 0, "kind": "state"})
        journal.forget(job.id)
        assert journal.recover() == ([], [])
        assert journal.find_idempotent("k") is None
        assert journal.non_terminal_count() == 0
        assert journal.stats()["errors"] == journal.errors
        assert journal.errors == 9  # one per degraded call above
        journal.close()

        store = CacheStore(str(tmp_path))
        assert store.get("k") is None
        assert store.put("k", b"payload") is False
        stats = store.stats()
        assert stats["entries"] == 0 and stats["hits"] == 0
        assert stats["session"]["errors"] == store.errors
        assert store.errors == 3  # one per degraded call above
        assert (store.misses, store.stores, store.evictions) == (0, 0, 0)
        store.close()

    def test_default_path_honors_the_environment(self, monkeypatch):
        monkeypatch.setenv(JOURNAL_ENV, "/elsewhere/journal.sqlite")
        assert default_journal_path() == "/elsewhere/journal.sqlite"
        monkeypatch.delenv(JOURNAL_ENV)
        monkeypatch.setenv("XDG_CACHE_HOME", "/xdg")
        assert default_journal_path() == "/xdg/soidomino/journal.sqlite"

    def test_stats_counts_rows_and_cumulative_counters(self, tmp_path):
        journal = JobJournal(_db(tmp_path))
        first, second = _job(), _job()
        journal.record_submit(first)
        journal.record_submit(second)
        first.state, first.finished_s = DONE, first.created_s
        journal.record_state(first)
        stats = journal.stats()
        assert stats["jobs"] == {"queued": 1, "done": 1}
        assert stats["non_terminal"] == 1
        assert stats["submitted"] == 2 and stats["finished"] == 1
        journal.close()
