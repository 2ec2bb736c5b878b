"""Minimal blocking HTTP client for the mapping service.

Built on :mod:`http.client` so tests, the smoke driver and operator
scripts need no third-party HTTP stack.  Every call opens one
connection (the server is ``Connection: close``) and raises
:class:`ServiceError` — carrying the server's typed error payload —
on any non-2xx response.

The client is **retry-aware** (DESIGN.md §14): responses the server
marks retryable (429 sheds, 503 while draining or with the breaker
open) and transport failures the resilience taxonomy classifies as
retryable (connection refused/reset — the daemon is restarting) are
retried with exponential backoff and *deterministic* jitter, honoring
any ``Retry-After`` the server sent.  Retries are safe because
:meth:`submit` attaches a generated idempotency key: if the first
attempt actually reached the daemon, the retry returns the *same* job
instead of double-running it — even across a daemon restart, because
the key is journaled.
"""

from __future__ import annotations

import http.client
import json
import time
import uuid
from typing import Dict, Iterator, List, Optional

from ..errors import ReproError, is_retryable
from ..resilience.faults import backoff_s


class ServiceError(ReproError):
    """A non-2xx response; ``payload`` holds the typed error body."""

    def __init__(self, status: int, payload: Dict[str, object],
                 retry_after: Optional[float] = None):
        error = payload.get("error", {}) if isinstance(payload, dict) else {}
        super().__init__(f"HTTP {status}: {error.get('type', 'unknown')}: "
                         f"{error.get('message', payload)}")
        self.status = status
        self.payload = payload
        self.retryable = bool(error.get("retryable", status == 429))
        #: the server's ``Retry-After`` header, in seconds, when sent
        self.retry_after = retry_after


class ServiceClient:
    """Talk to one ``soidomino serve`` daemon.

    Parameters
    ----------
    retries:
        Extra attempts after the first for retryable failures (0
        disables retrying entirely).
    backoff_base_s / backoff_cap_s:
        Exponential-backoff schedule: attempt ``n`` sleeps
        ``min(cap, base * 2**(n-1))`` scaled by a deterministic jitter
        in [0.5, 1.5) derived from ``seed`` — reproducible, but two
        clients with different seeds never thunder in lockstep.
    seed:
        Jitter seed (also deterministic fault-plan friendly).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8650,
                 timeout: float = 60.0, retries: int = 3,
                 backoff_base_s: float = 0.1, backoff_cap_s: float = 2.0,
                 seed: int = 0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.seed = seed
        #: retryable failures absorbed (observability for tests/smoke)
        self.retried = 0

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _backoff_s(self, what: str, attempt: int,
                   retry_after: Optional[float]) -> float:
        """How long to sleep before retry ``attempt`` (1-based)."""
        if retry_after is not None:
            return max(0.0, float(retry_after))
        return backoff_s(self.seed, "client.backoff", what, attempt,
                         base_s=self.backoff_base_s,
                         cap_s=self.backoff_cap_s)

    def _request_once(self, method: str, path: str,
                      body: Optional[object] = None) -> Dict[str, object]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            data = (json.dumps(body).encode("utf-8")
                    if body is not None else None)
            conn.request(method, path, body=data,
                         headers={"Content-Type": "application/json"}
                         if data else {})
            response = conn.getresponse()
            raw = response.read()
            if response.status >= 400:
                try:
                    payload = json.loads(raw)
                except ValueError:
                    payload = {"error": {"message": raw.decode("utf-8",
                                                               "replace")}}
                header = response.getheader("Retry-After")
                retry_after = None
                if header is not None:
                    try:
                        retry_after = float(header)
                    except ValueError:
                        pass
                raise ServiceError(response.status, payload,
                                   retry_after=retry_after)
            return json.loads(raw) if raw else {}
        finally:
            conn.close()

    def _request(self, method: str, path: str,
                 body: Optional[object] = None) -> Dict[str, object]:
        """One API call with the retry loop around it.

        Retries retryable :class:`ServiceError` responses and
        retryable transport errors (``is_retryable`` taxonomy: refused,
        reset, timed out) — all requests here are idempotent by
        construction (submits carry idempotency keys).
        """
        what = f"{method} {path}"
        attempt = 0
        while True:
            attempt += 1
            try:
                return self._request_once(method, path, body=body)
            except ServiceError as exc:
                if not exc.retryable or attempt > self.retries:
                    raise
                delay = self._backoff_s(what, attempt, exc.retry_after)
            except OSError as exc:
                # includes ConnectionRefusedError/ConnectionResetError
                # (a restarting daemon) and socket timeouts
                if not is_retryable(exc) or attempt > self.retries:
                    raise
                delay = self._backoff_s(what, attempt, None)
            self.retried += 1
            time.sleep(delay)

    # ------------------------------------------------------------------
    # the API
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def metrics_text(self) -> str:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            raw = response.read()
            if response.status >= 400:
                raise ServiceError(response.status,
                                   {"error": {"message": raw.decode()}})
            return raw.decode("utf-8")
        finally:
            conn.close()

    def submit(self, spec: Dict[str, object]) -> Dict[str, object]:
        """POST one job spec; returns the job status (with ``id``).

        A fresh idempotency key is attached when the caller didn't
        supply one, so the retry loop can never double-run a job: a
        retried submit that already reached the daemon (or its
        restarted successor — the key is journaled) dedupes to the
        original job.
        """
        spec = dict(spec)
        spec.setdefault("idempotency_key", uuid.uuid4().hex)
        return self._request("POST", "/v1/jobs", body=spec)

    def jobs(self) -> List[Dict[str, object]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def status(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 300.0,
             poll_s: float = 0.05) -> Dict[str, object]:
        """Poll until the job is terminal; returns the result body."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in ("done", "failed", "cancelled"):
                return self.result(job_id)
            if time.monotonic() >= deadline:
                raise ServiceError(408, {"error": {
                    "type": "Timeout", "retryable": True,
                    "message": f"job {job_id} still {status['state']} "
                               f"after {timeout}s"}})
            time.sleep(poll_s)

    def _events_once(self, job_id: str, since: int,
                     timeout: Optional[float]
                     ) -> Iterator[Dict[str, object]]:
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events?since={since}")
            response = conn.getresponse()
            if response.status >= 400:
                raise ServiceError(response.status, json.loads(
                    response.read()))
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()

    def events(self, job_id: str, since: int = 0,
               timeout: Optional[float] = None
               ) -> Iterator[Dict[str, object]]:
        """Stream the job's NDJSON events until the job is terminal.

        Resumes from the last seen ``seq`` cursor if the connection
        drops mid-stream (a daemon restart): the journal persists the
        event log, so the reconnect — up to ``retries`` times — picks
        up exactly where the dead stream stopped, no gaps and no
        duplicates.
        """
        cursor = since
        attempt = 0
        while True:
            try:
                for event in self._events_once(job_id, cursor, timeout):
                    cursor = int(event.get("seq", cursor)) + 1
                    attempt = 0  # progress resets the retry budget
                    yield event
                return
            except (ServiceError, OSError) as exc:
                retryable = (exc.retryable if isinstance(exc, ServiceError)
                             else is_retryable(exc))
                attempt += 1
                if not retryable or attempt > self.retries:
                    raise
                self.retried += 1
                time.sleep(self._backoff_s(
                    f"GET /v1/jobs/{job_id}/events", attempt,
                    getattr(exc, "retry_after", None)))
