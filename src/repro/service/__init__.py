"""Mapping-as-a-service: the daemon layer over the batch pipeline.

``soidomino serve`` exposes the warm :class:`~repro.pipeline.WorkerPool`
as a small JSON HTTP API (DESIGN.md §13):

* :mod:`repro.service.jobs` — job specs/states and the fair per-tenant
  priority queue with admission quotas;
* :mod:`repro.service.core` — :class:`MappingService`: one warm pool,
  a one-job-at-a-time scheduler, cumulative metrics, and the typed
  error contract;
* :mod:`repro.service.journal` — the crash-safe sqlite-WAL job
  journal (write-ahead submits, checksummed results, event cursors,
  idempotency dedupe, restart recovery — DESIGN.md §14);
* :mod:`repro.service.breaker` — the circuit breaker separating
  readiness (admitting work) from liveness (answering requests);
* :mod:`repro.service.server` — the asyncio HTTP front end
  (submit/status/result, NDJSON event streaming, live ``/metrics``);
* :mod:`repro.service.client` — a stdlib blocking client;
* :mod:`repro.service.smoke` — the end-to-end drill CI runs: daemon
  up, sweep over HTTP, digest parity with ``soidomino batch``, warm
  resubmission, restart and ``kill -9`` recovery from the journal.

Jobs map bit-identically to the CLI: a spec compiles to the same task
list ``soidomino batch`` builds, and the warm pool preserves digest
determinism by construction.
"""

from __future__ import annotations

_LAZY = {
    "Job": ("jobs", "Job"),
    "JobQueue": ("jobs", "JobQueue"),
    "JobSpec": ("jobs", "JobSpec"),
    "JobSpecError": ("jobs", "JobSpecError"),
    "QuotaExceededError": ("jobs", "QuotaExceededError"),
    "OverloadError": ("jobs", "OverloadError"),
    "ServiceUnavailableError": ("jobs", "ServiceUnavailableError"),
    "MappingService": ("core", "MappingService"),
    "error_payload": ("core", "error_payload"),
    "JobJournal": ("journal", "JobJournal"),
    "default_journal_path": ("journal", "default_journal_path"),
    "CircuitBreaker": ("breaker", "CircuitBreaker"),
    "ServiceServer": ("server", "ServiceServer"),
    "serve": ("server", "serve"),
    "start_in_thread": ("server", "start_in_thread"),
    "ServiceClient": ("client", "ServiceClient"),
    "ServiceError": ("client", "ServiceError"),
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    return getattr(import_module(f".{module_name}", __name__), attr)


def __dir__():
    return sorted(__all__)
