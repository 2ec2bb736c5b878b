"""The mapping service: a warm pool and a fair queue behind an API.

:class:`MappingService` is the long-lived object a daemon (or a test)
holds: one :class:`~repro.pipeline.WorkerPool` kept warm for the
process lifetime and one :class:`~repro.service.jobs.JobQueue`
deciding which tenant's job runs next.

Jobs execute **one at a time**: the scheduler coroutine awaits the
queue and pushes each job's batch through the warm pool in a worker
thread (``asyncio.to_thread``), so the event loop — and therefore
status queries, event streams and ``/metrics`` — stays responsive while
a sweep runs.  Per-task completions are bridged back onto the loop with
``call_soon_threadsafe`` and appended to the job's event log, which is
what ``GET /v1/jobs/{id}/events`` streams.

Results carry *warmth evidence*: alongside the standard batch report
(bit-identical digests to ``soidomino batch`` by construction), each
job's ``cache`` block reports the parsed-network memo and the pool's
build/run counters — so a client can see that its second submission
hit a warm pool and a primed memo.

Failures follow the resilience taxonomy: :func:`error_payload` renders
any exception as the service's typed error contract
(``{type, message, retryable, kind}``), with :class:`ReproError`
subclasses keeping their classification (DESIGN.md §13).

Durability and self-healing (DESIGN.md §14) layer on top:

* a :class:`~repro.service.journal.JobJournal` write-ahead journals
  every admitted job, state transition, progress event and checksummed
  result, and :meth:`MappingService.recover` (run at construction)
  replays it — restart-safe jobs, idempotent resubmission, event
  cursors that survive ``kill -9``;
* a :class:`~repro.service.breaker.CircuitBreaker` trips after
  consecutive retryable job failures and gates admission (503) until a
  half-open probe succeeds — readiness, separate from liveness;
* admission control sheds load (retryable 429 + ``Retry-After``) when
  the estimated queue wait (queued jobs x an EWMA of job duration)
  crosses a watermark;
* :meth:`MappingService.drain` stops admission and lets in-flight work
  finish (or stay journaled for the successor) — the SIGTERM path.
"""

from __future__ import annotations

import asyncio
import functools
import os
import re
import time
from typing import Dict, Optional

from ..errors import ReproError, WorkerCrashError, is_retryable
from ..obs import MetricsRegistry, batch_report, job_report
from ..pipeline import BatchRunner, WorkerPool
from ..resilience.faults import fire_at_attempt
from .breaker import OPEN, STATE_CODES, CircuitBreaker
from .jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobQueue,
    JobSpec,
    JobSpecError,
    OverloadError,
    QuotaExceededError,
    ServiceUnavailableError,
)
from .journal import JobJournal


def error_payload(exc: BaseException) -> Dict[str, object]:
    """The service's typed error contract for any exception."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "retryable": is_retryable(exc),
        "kind": ("repro" if isinstance(exc, ReproError) else "internal"),
    }


class MappingService:
    """Mapping-as-a-service: submit sweeps, stream progress, reuse warmth.

    Parameters
    ----------
    max_workers:
        Pool width for every job; ``1`` maps in-process (no pool).
    max_queued_per_tenant:
        Admission quota forwarded to :class:`JobQueue`.
    keep_jobs:
        Finished jobs retained for status/result queries (oldest
        finished jobs are dropped beyond this).
    journal_path:
        sqlite path for the crash-safe job journal; ``None`` disables
        journaling entirely — bit-identical to the pre-journal service,
        zero overhead.  The journal is recovered at construction.
    breaker_threshold / breaker_reset_s:
        Circuit-breaker tuning (consecutive retryable job failures to
        trip; seconds before a half-open probe).
    queue_wait_watermark_s:
        Shed submits (retryable 429) once the estimated queue wait
        crosses this; ``None`` disables backpressure.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 max_queued_per_tenant: int = 16,
                 keep_jobs: int = 256,
                 journal_path: Optional[str] = None,
                 breaker_threshold: int = 3,
                 breaker_reset_s: float = 30.0,
                 queue_wait_watermark_s: Optional[float] = 120.0):
        self.queue = JobQueue(max_queued_per_tenant=max_queued_per_tenant)
        self.jobs: Dict[str, Job] = {}
        self.keep_jobs = keep_jobs
        self.started_s = time.time()
        self.pool = WorkerPool(max_workers=max_workers)
        self.runner = BatchRunner(
            max_workers=max_workers,
            pool=self.pool if self.pool.width > 1 else None)
        #: cumulative mapping counters across every finished job — the
        #: live ``/metrics`` endpoint merges this with service counters
        self._mapping_metrics = MetricsRegistry()
        self._service_metrics = MetricsRegistry()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._scheduler_task: Optional[asyncio.Task] = None
        self._closing = False
        self.journal = JobJournal(journal_path) if journal_path else None
        self.breaker = CircuitBreaker(threshold=breaker_threshold,
                                      reset_s=breaker_reset_s)
        self.queue_wait_watermark_s = queue_wait_watermark_s
        self.draining = False
        self._running_job: Optional[Job] = None
        #: idempotency key -> job id (journal-backed across restarts)
        self._idempotent: Dict[str, str] = {}
        #: shed count per submission identity (drives the
        #: ``queue.overload`` fault's attempt window)
        self._sheds: Dict[str, int] = {}
        #: EWMA of job wall time, the backpressure estimator's unit
        self._job_ewma_s = 0.0
        self.recovered_jobs = 0
        self.requeued_jobs = 0
        if self.journal is not None:
            self._recover()

    # ------------------------------------------------------------------
    # journal recovery (construction time, before the loop exists)
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Replay the journal: restore terminal jobs, re-enqueue the
        rest.  Recovered reruns are digest-identical by determinism."""
        restored, requeue = self.journal.recover()
        for rec in restored + requeue:
            try:
                spec = JobSpec.from_payload(rec.spec_payload)
            except JobSpecError:
                continue  # journaled under an older validation contract
            job = Job(spec=spec, id=rec.job_id, state=rec.state,
                      created_s=rec.created_s, started_s=rec.started_s,
                      finished_s=rec.finished_s, error=rec.error,
                      result=rec.result, attempts=rec.attempts,
                      recovered=True)
            job.events = list(rec.events)
            if rec in requeue:
                job.state = QUEUED
                job.result = None
                job.error = None
                job.finished_s = None
                self._log_event(job, "state", state=QUEUED, recovered=True,
                                attempt=job.attempts)
                self.journal.record_state(job)
                self.queue.push(job, enforce_quota=False)
                self.requeued_jobs += 1
            self.jobs[job.id] = job
            if spec.idempotency_key:
                self._idempotent[spec.idempotency_key] = job.id
            self.recovered_jobs += 1
        if self.recovered_jobs:
            self._service_metrics.counter(
                "repro_service_jobs_recovered_total",
                "jobs replayed from the journal at startup").inc(
                self.recovered_jobs)
            self._service_metrics.counter(
                "repro_service_jobs_requeued_total",
                "non-terminal jobs re-enqueued at startup").inc(
                self.requeued_jobs)

    # ------------------------------------------------------------------
    # job lifecycle (event-loop side)
    # ------------------------------------------------------------------
    def submit(self, payload: object) -> Job:
        """Validate and enqueue one job.

        Admission runs in a fixed order, each gate with its own typed
        error: spec validation (400), idempotency dedupe (returns the
        existing job), draining (503), backpressure shed (429), tenant
        quota (429), circuit breaker (503) — then the job is journaled
        and queued.
        """
        if self._closing:
            raise ReproError("service is shutting down")
        spec = JobSpec.from_payload(payload)
        if spec.idempotency_key:
            existing = self._find_idempotent(spec.idempotency_key)
            if existing is not None:
                self._count("deduped", tenant=spec.tenant)
                return existing
        if self.draining:
            raise ServiceUnavailableError(
                "service is draining; not admitting new jobs",
                retry_after_s=5.0)
        self._check_overload(spec)
        if (self.queue.queued_count(spec.tenant)
                >= self.queue.max_queued_per_tenant):
            raise QuotaExceededError(
                f"tenant {spec.tenant!r} already has "
                f"{self.queue.max_queued_per_tenant} queued job(s); "
                "retry after one finishes")
        if not self.breaker.allow():
            self._count("breaker_rejected", tenant=spec.tenant)
            raise ServiceUnavailableError(
                f"circuit breaker {self.breaker.state} after "
                f"{self.breaker.failures} consecutive failures; "
                "not admitting new jobs",
                retry_after_s=max(0.5, self.breaker.retry_after_s()))
        job = Job(spec=spec)
        self.queue.push(job)  # quota pre-checked above
        self.jobs[job.id] = job
        if spec.idempotency_key:
            self._idempotent[spec.idempotency_key] = job.id
        if self.journal is not None:
            self.journal.record_submit(job)
        self._log_event(job, "state", state=QUEUED, tenant=spec.tenant)
        self._count("submitted", tenant=spec.tenant)
        self._trim_finished()
        return job

    def _find_idempotent(self, key: str) -> Optional[Job]:
        """The live job a previous submit journaled under ``key``."""
        job_id = self._idempotent.get(key)
        if job_id is None and self.journal is not None:
            job_id = self.journal.find_idempotent(key)
            if job_id is not None:
                self._idempotent[key] = job_id
        return self.jobs.get(job_id) if job_id is not None else None

    def _check_overload(self, spec: JobSpec) -> None:
        """Backpressure gate: shed when the queue-wait estimate (or the
        ``queue.overload`` fault) says the caller would wait too long."""
        shed_key = spec.idempotency_key or f"{spec.tenant}/{spec.label}"
        attempt = self._sheds.get(shed_key, 0) + 1
        injected = fire_at_attempt("queue.overload", spec.label, attempt)
        wait_s = self.estimated_queue_wait_s()
        breached = (self.queue_wait_watermark_s is not None
                    and wait_s > self.queue_wait_watermark_s)
        if injected is None and not breached:
            return
        self._sheds[shed_key] = attempt
        self._count("shed", tenant=spec.tenant)
        retry_after = max(0.5, round(self._job_ewma_s, 3))
        if injected is not None:
            raise OverloadError(
                "overloaded (injected queue.overload); retry later",
                retry_after_s=retry_after)
        raise OverloadError(
            f"estimated queue wait {wait_s:.1f}s exceeds the "
            f"{self.queue_wait_watermark_s:.1f}s watermark; retry later",
            retry_after_s=retry_after)

    def estimated_queue_wait_s(self) -> float:
        """Queued jobs x the job-duration EWMA (+ half a job if one is
        running) — the admission-control latency estimate."""
        wait = self.queue.queued_count() * self._job_ewma_s
        if self._running_job is not None:
            wait += self._job_ewma_s / 2.0
        return wait

    def cancel(self, job_id: str) -> Job:
        """Cancel a *queued* job (running jobs finish their batch)."""
        job = self.jobs[job_id]
        if job.state == QUEUED:
            job.state = CANCELLED
            job.finished_s = time.time()
            self._log_event(job, "state", state=CANCELLED)
            if self.journal is not None:
                self.journal.record_state(job)
            self._count("cancelled", tenant=job.spec.tenant)
        return job

    def _trim_finished(self) -> None:
        finished = [j for j in self.jobs.values() if j.finished]
        excess = len(finished) - self.keep_jobs
        if excess > 0:
            finished.sort(key=lambda j: j.finished_s or 0.0)
            for job in finished[:excess]:
                self.jobs.pop(job.id, None)

    def _count(self, what: str, tenant: str = "default") -> None:
        self._service_metrics.counter(
            f"repro_service_jobs_{what}_total",
            f"jobs {what} since service start").inc()
        safe = re.sub(r"[^A-Za-z0-9_]", "_", tenant)
        self._service_metrics.counter(
            f"repro_service_tenant_{safe}_jobs_{what}_total",
            f"jobs {what} for tenant {tenant}").inc()

    # ------------------------------------------------------------------
    # the scheduler
    # ------------------------------------------------------------------
    async def scheduler(self) -> None:
        """Run queued jobs one at a time until cancelled.

        Every state transition is journaled *before* the next step
        runs, so a crash at any point leaves a replayable journal; job
        outcomes drive the circuit breaker (retryable failure counts
        against it, anything else proves the pool works).
        """
        self._loop = asyncio.get_running_loop()
        while True:
            job = await self.queue.get()
            self._running_job = job
            job.state = RUNNING
            job.started_s = time.time()
            job.attempts += 1
            self._log_event(job, "state", state=RUNNING,
                            attempt=job.attempts)
            if self.journal is not None:
                self.journal.record_state(job)
            try:
                result = await asyncio.to_thread(self._run_job, job)
            except Exception as exc:  # noqa: BLE001 - typed error contract
                job.state = FAILED
                job.error = error_payload(exc)
                job.finished_s = time.time()
                self._log_event(job, "state", state=FAILED,
                                error=job.error)
                self._count("failed", tenant=job.spec.tenant)
                if is_retryable(exc):
                    self.breaker.record_failure()
                else:
                    self.breaker.record_success()
            else:
                job.result = result
                job.state = DONE if not result.get("failures") else FAILED
                if job.state == FAILED:
                    job.error = {
                        "type": "BatchTaskError",
                        "message": "; ".join(result["failures"]),
                        "retryable": False, "kind": "repro"}
                job.finished_s = time.time()
                if self.journal is not None:
                    corrupt = fire_at_attempt(
                        "journal.corrupt", job.label,
                        job.attempts) is not None
                    self.journal.record_result(job, result,
                                               corrupt=corrupt)
                self._log_event(job, "state", state=job.state)
                self._count("done" if job.state == DONE else "failed",
                            tenant=job.spec.tenant)
                self.breaker.record_success()
            finally:
                if job.finished_s is None:
                    job.finished_s = time.time()
                if self.journal is not None:
                    self.journal.record_state(job)
                duration = job.finished_s - (job.started_s
                                             or job.finished_s)
                self._job_ewma_s = (duration if self._job_ewma_s == 0.0
                                    else 0.3 * duration
                                    + 0.7 * self._job_ewma_s)
                self._running_job = None

    def start(self) -> None:
        """Launch the scheduler on the running loop (idempotent)."""
        if self._scheduler_task is None or self._scheduler_task.done():
            self._scheduler_task = asyncio.get_running_loop().create_task(
                self.scheduler())

    async def drain(self, grace_s: float = 30.0) -> Dict[str, object]:
        """Graceful-shutdown phase one: stop admission, let work finish.

        Sets :attr:`draining` (submits now 503 with ``Retry-After``
        while status/result/metrics keep serving), then waits up to
        ``grace_s`` for the queue to empty and the running job to
        finish.  Jobs still pending at the deadline stay journaled —
        the successor daemon recovers and runs them.
        """
        self.draining = True
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            if self.queue.queued_count() == 0 and self._running_job is None:
                break
            await asyncio.sleep(0.05)
        remaining = self.queue.queued_count() + (
            1 if self._running_job is not None else 0)
        return {"drained": remaining == 0, "remaining": remaining,
                "grace_s": grace_s}

    async def aclose(self) -> None:
        self._closing = True
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass
            self._scheduler_task = None
        self.close()

    def close(self) -> None:
        self._closing = True
        self.runner.close()
        self.pool.close()
        if self.journal is not None:
            self.journal.close()

    # ------------------------------------------------------------------
    # job execution (worker-thread side)
    # ------------------------------------------------------------------
    def _log_event(self, job: Job, kind: str, **fields_) -> None:
        """Append a job event and write it through to the journal."""
        event = job.add_event(kind, **fields_)
        if self.journal is not None:
            self.journal.record_event(job.id, event)

    def _emit(self, job: Job, kind: str, **fields_) -> None:
        """Append a job event from the worker thread, loop-safely."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(
                functools.partial(self._log_event, job, kind, **fields_))
        else:  # direct (test) use without a loop
            self._log_event(job, kind, **fields_)

    def _run_job(self, job: Job) -> Dict[str, object]:
        """Execute one job's batch on the warm pool; returns the result
        payload.  Runs in a worker thread."""
        if fire_at_attempt("pool.breaker", job.label, job.attempts):
            raise WorkerCrashError(
                "injected pool failure (pool.breaker): worker pool "
                "kept dying through rebuilds")
        tasks = job.spec.tasks()
        total = len(tasks)
        done_count = 0

        def on_result(index: int, result) -> None:
            nonlocal done_count
            self._emit(job, "task_done", index=index,
                       label=result.task.label, ok=result.ok,
                       digest=result.digest,
                       attempts=result.attempts, total=total)
            done_count += 1
            if done_count == 1 and fire_at_attempt(
                    "service.crash", job.label, job.attempts):
                # a deliberate kill -9 mid-batch: no cleanup, no
                # journal flush beyond what WAL already committed
                os._exit(86)

        report = self.runner.run(tasks, on_result=on_result)
        self._mapping_metrics.merge(report.total_metrics())
        payload = batch_report(report, cost_objective=job.spec.cost)
        payload["job"] = job_report(job)
        payload["failures"] = [f"{r.task.label}: {r.error}"
                               for r in report.failures]
        payload["cache"] = self.warmth()
        return payload

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def warmth(self) -> Dict[str, object]:
        """Evidence of reuse: pool and parsed-network memo counters."""
        from ..pipeline.runner import network_memo_stats

        return {
            "pool": {"width": self.pool.width, "warm": self.pool.warm,
                     "pools_built": self.pool.pools_built,
                     "rebuilds": self.pool.rebuilds,
                     "runs": self.pool.runs,
                     "consecutive_degraded_runs":
                         self.pool.consecutive_degraded_runs},
            "network_memo": network_memo_stats(),
        }

    def counts(self) -> Dict[str, int]:
        by_state: Dict[str, int] = {}
        for job in self.jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        return by_state

    def health(self) -> Dict[str, object]:
        """The ``/healthz`` body: liveness is implicit (we answered),
        readiness is explicit (admitting new work right now?)."""
        ready = not self.draining and self.breaker.state != OPEN
        return {
            "status": "ok",
            "ready": ready,
            "draining": self.draining,
            "breaker": self.breaker.snapshot(),
            "jobs": self.counts(),
            "queued": len(self.queue),
            "queue_wait_s": round(self.estimated_queue_wait_s(), 3),
            "journal": (self.journal.stats()
                        if self.journal is not None else None),
            "warmth": self.warmth(),
        }

    def metrics_registry(self) -> MetricsRegistry:
        """Everything ``/metrics`` exposes: cumulative mapping counters
        from every job plus service-level counters and gauges."""
        merged = MetricsRegistry()
        merged.merge(self._mapping_metrics)
        merged.merge(self._service_metrics)
        merged.gauge("repro_service_jobs_queued",
                     "jobs waiting in the fair queue").set(len(self.queue))
        merged.gauge("repro_service_uptime_seconds",
                     "seconds since service start").set(
            time.time() - self.started_s)
        merged.gauge("repro_service_pool_warm",
                     "1 when a live worker pool is resident").set(
            1 if self.pool.warm else 0)
        merged.gauge("repro_service_breaker_state",
                     "circuit breaker: 0 closed, 1 open, 2 half-open"
                     ).set(STATE_CODES[self.breaker.state])
        merged.gauge("repro_service_breaker_opens",
                     "times the circuit breaker tripped").set(
            self.breaker.opens)
        merged.gauge("repro_service_draining",
                     "1 while graceful drain is in progress").set(
            1 if self.draining else 0)
        merged.gauge("repro_service_queue_wait_seconds",
                     "estimated queue wait for a new submission").set(
            self.estimated_queue_wait_s())
        if self.journal is not None:
            merged.gauge("repro_service_journal_errors",
                         "journal operations degraded to no-ops").set(
                self.journal.errors)
        return merged
