"""Circuit breaker separating daemon readiness from liveness.

The worker pool already self-heals at the *task* level: a crashed
worker is rebuilt and the task retried (DESIGN.md §11).  But when the
pool keeps dying — a poisoned libc, a cgroup OOM loop, a bad deploy —
every retry burns a pool rebuild and every queued job fails slowly.
:class:`CircuitBreaker` is the service-level fuse around that loop:

* **closed** (normal): jobs run; each jobwide *retryable* failure bumps
  a consecutive-failure count, any success resets it.
* **open**: after ``threshold`` consecutive failures the breaker opens
  and admission rejects submits with a retryable 503 + ``Retry-After``
  — the daemon is *alive* (status, results and metrics keep serving)
  but not *ready*.
* **half-open**: once ``reset_s`` has elapsed the next admitted job is
  a probe; its success closes the breaker, its failure re-opens it and
  restarts the clock.

The breaker is driven by the scheduler (one job at a time on the event
loop), so plain attributes suffice — no locking.  ``/healthz`` exposes
:meth:`snapshot` and ``/metrics`` gauges the numeric state so an
orchestrator can distinguish "restart me" (liveness) from "stop sending
traffic" (readiness).
"""

from __future__ import annotations

import time
from typing import Dict

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: numeric encoding for the ``repro_service_breaker_state`` gauge
STATE_CODES = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}


class CircuitBreaker:
    """Consecutive-failure fuse with a timed half-open probe."""

    def __init__(self, threshold: int = 3, reset_s: float = 30.0):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.reset_s = reset_s
        self.state = CLOSED
        self.failures = 0          # consecutive retryable job failures
        self.opens = 0             # times the breaker tripped
        self.opened_s = 0.0        # when it last tripped
        self.probe_inflight = False

    def allow(self) -> bool:
        """May a new job be admitted right now?

        Transitions open → half-open once the reset window elapses, and
        lets exactly one probe job in while half-open.
        """
        if self.state == OPEN:
            if time.time() - self.opened_s >= self.reset_s:
                self.state = HALF_OPEN
                self.probe_inflight = False
            else:
                return False
        if self.state == HALF_OPEN:
            if self.probe_inflight:
                return False
            self.probe_inflight = True
        return True

    def record_success(self) -> None:
        """A job completed: close the breaker, reset the count."""
        self.state = CLOSED
        self.failures = 0
        self.probe_inflight = False

    def record_failure(self) -> None:
        """A job failed retryably: count it, maybe trip the fuse."""
        self.failures += 1
        if self.state == HALF_OPEN or self.failures >= self.threshold:
            if self.state != OPEN:
                self.opens += 1
            self.state = OPEN
            self.opened_s = time.time()
            self.probe_inflight = False

    def retry_after_s(self) -> float:
        """Seconds until the next half-open probe could be admitted."""
        if self.state != OPEN:
            return 0.0
        return max(0.0, self.reset_s - (time.time() - self.opened_s))

    def snapshot(self) -> Dict[str, object]:
        """The ``/healthz`` view of the fuse."""
        return {
            "state": self.state,
            "failures": self.failures,
            "threshold": self.threshold,
            "opens": self.opens,
            "reset_s": self.reset_s,
            "retry_after_s": round(self.retry_after_s(), 3),
        }

    def __repr__(self) -> str:
        return (f"CircuitBreaker(state={self.state!r}, "
                f"failures={self.failures}/{self.threshold})")
