"""Job model and fair queue for the mapping service.

A :class:`JobSpec` is the validated request payload — which circuits,
flow presets, cost objective and kernel to sweep — and compiles to the
same :class:`~repro.pipeline.BatchTask` list ``soidomino batch`` builds,
so a job's digests are bit-identical to the CLI's by construction.

:class:`JobQueue` decides *which* job runs next:

* **round-robin across tenants** — the queue keeps one priority heap
  per tenant and rotates through tenants that have work, so a tenant
  that enqueues 50 jobs cannot starve a tenant that enqueues one
  (fairness beats priority across tenants);
* **priority within a tenant** — higher ``priority`` first, FIFO among
  equals (heap key ``(-priority, seq)``);
* **admission quotas** — at most ``max_queued_per_tenant`` jobs may
  wait per tenant; beyond that :meth:`push` raises
  :class:`QuotaExceededError`, a *retryable* :class:`ReproError` the
  HTTP layer maps to 429.

The queue is single-consumer and lives on the service's event loop:
:meth:`push`/:meth:`pop` are plain synchronous calls, :meth:`get`
awaits work.  Cancelled jobs stay in their heap and are skipped at pop
time (lazy deletion), which keeps cancellation O(1).
"""

from __future__ import annotations

import heapq
import itertools
import sys
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..mapping import FLOW_PRESETS
from ..mapping.kernel import KERNELS

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL = (DONE, FAILED, CANCELLED)

_COSTS = ("area", "clock", "depth")


class JobSpecError(ReproError):
    """The submitted job payload is invalid (HTTP 400, not retryable)."""


class QuotaExceededError(ReproError):
    """The tenant's queue quota is full (HTTP 429; retry later)."""

    retryable = True


class OverloadError(ReproError):
    """Admission control shed this submit (HTTP 429; back off).

    Raised when the estimated queue wait crosses the service watermark
    (or the ``queue.overload`` fault fires).  Carries ``retry_after_s``
    so the HTTP layer can emit a ``Retry-After`` header.
    """

    retryable = True

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServiceUnavailableError(ReproError):
    """The daemon is alive but not admitting work (HTTP 503; back off).

    Raised while draining (SIGTERM received) or while the circuit
    breaker is open.  Carries ``retry_after_s`` for ``Retry-After``.
    """

    retryable = True

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class JobSpec:
    """One validated mapping-sweep request.

    Compiles to ``circuits x flows`` batch tasks under a single cost
    objective and kernel — the same cross product as
    ``soidomino batch CIRCUITS -a FLOW -c COST --kernel K``.
    """

    circuits: Tuple[str, ...]
    flows: Tuple[str, ...] = ("soi",)
    cost: str = "area"
    k: float = 2.0
    kernel: str = "auto"
    tenant: str = "default"
    priority: int = 0
    #: client-supplied dedupe token: two submits with the same key are
    #: the same job, even across a daemon restart (journal-persisted)
    idempotency_key: Optional[str] = None

    @classmethod
    def from_payload(cls, payload: object) -> "JobSpec":
        """Validate an untrusted JSON payload into a spec.

        Raises :class:`JobSpecError` with a message naming the first
        offending field — the service's 400 contract.
        """
        if not isinstance(payload, dict):
            raise JobSpecError("job payload must be a JSON object, "
                               f"got {type(payload).__name__}")
        unknown = set(payload) - {"circuits", "flows", "cost", "k",
                                  "kernel", "tenant", "priority",
                                  "idempotency_key"}
        if unknown:
            raise JobSpecError(
                f"unknown job field(s): {', '.join(sorted(unknown))}")
        circuits = payload.get("circuits")
        if (not isinstance(circuits, (list, tuple)) or not circuits
                or not all(isinstance(c, str) and c for c in circuits)):
            raise JobSpecError(
                "'circuits' must be a non-empty list of circuit names")
        flows = payload.get("flows", ["soi"])
        if (not isinstance(flows, (list, tuple)) or not flows
                or not all(isinstance(f, str) for f in flows)):
            raise JobSpecError("'flows' must be a non-empty list of "
                               f"flow names (one of {', '.join(FLOW_PRESETS)})")
        for flow in flows:
            if flow not in FLOW_PRESETS:
                raise JobSpecError(
                    f"unknown flow {flow!r}; expected one of "
                    f"{', '.join(FLOW_PRESETS)}")
        cost = payload.get("cost", "area")
        if cost not in _COSTS:
            raise JobSpecError(f"unknown cost {cost!r}; expected one of "
                               f"{', '.join(_COSTS)}")
        k = payload.get("k", 2.0)
        # NaN, the infinities and ints beyond any float fail the bounds.
        if (not isinstance(k, (int, float)) or isinstance(k, bool)
                or not 0 < k <= sys.float_info.max):
            raise JobSpecError(
                f"'k' must be a positive finite number, got {k!r}")
        kernel = payload.get("kernel", "auto")
        if not isinstance(kernel, str) or kernel not in KERNELS:
            raise JobSpecError(f"unknown kernel {kernel!r}; expected one "
                               f"of {', '.join(KERNELS)}")
        tenant = payload.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise JobSpecError("'tenant' must be a non-empty string")
        priority = payload.get("priority", 0)
        # the journal stores priority in a signed 64-bit sqlite column
        if (not isinstance(priority, int) or isinstance(priority, bool)
                or not -2 ** 63 <= priority < 2 ** 63):
            raise JobSpecError(
                "'priority' must be a signed 64-bit integer, "
                f"got {priority!r}")
        idempotency_key = payload.get("idempotency_key")
        if idempotency_key is not None and (
                not isinstance(idempotency_key, str) or not idempotency_key
                or len(idempotency_key) > 200):
            raise JobSpecError(
                "'idempotency_key' must be a non-empty string "
                "(at most 200 chars)")
        return cls(circuits=tuple(circuits), flows=tuple(flows), cost=cost,
                   k=float(k), kernel=kernel, tenant=tenant,
                   priority=priority, idempotency_key=idempotency_key)

    def tasks(self):
        """The batch-task list this job maps (CLI-identical)."""
        from ..mapping import ClockWeightedCost, DepthCost, MapperConfig
        from ..pipeline import BatchRunner

        if self.cost == "clock":
            model = ClockWeightedCost(self.k)
        elif self.cost == "depth":
            model = DepthCost()
        else:
            model = None
        return BatchRunner.sweep_tasks(
            circuits=list(self.circuits), flows=self.flows,
            cost_models=[model], config=MapperConfig(kernel=self.kernel))

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "circuits": list(self.circuits), "flows": list(self.flows),
            "cost": self.cost, "k": self.k, "kernel": self.kernel,
            "tenant": self.tenant, "priority": self.priority}
        if self.idempotency_key is not None:
            payload["idempotency_key"] = self.idempotency_key
        return payload

    @property
    def label(self) -> str:
        """A human/fault-matchable summary, e.g. ``mux/soi/area``."""
        return (f"{'+'.join(self.circuits)}/{'+'.join(self.flows)}"
                f"/{self.cost}")


@dataclass
class Job:
    """One submitted job and everything observable about it."""

    spec: JobSpec
    id: str = field(default_factory=lambda: uuid.uuid4().hex[:12])
    state: str = QUEUED
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    #: progress events, monotonically numbered (``seq``) for ``?since=``
    events: List[Dict[str, object]] = field(default_factory=list)
    #: the full result payload once DONE (report + cache evidence)
    result: Optional[Dict[str, object]] = None
    #: the typed error payload once FAILED
    error: Optional[Dict[str, object]] = None
    #: execution attempts (bumped when the scheduler picks the job up;
    #: a journal-recovered rerun is attempt 2)
    attempts: int = 0
    #: True for a job replayed from the journal after a restart
    recovered: bool = False

    @property
    def label(self) -> str:
        return self.spec.label

    def add_event(self, kind: str, **fields_) -> Dict[str, object]:
        event: Dict[str, object] = {"seq": len(self.events), "kind": kind,
                                    "ts": time.time()}
        event.update(fields_)
        self.events.append(event)
        return event

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL

    def status(self) -> Dict[str, object]:
        """The ``GET /v1/jobs/{id}`` body (everything but the result)."""
        return {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.as_dict(),
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "events": len(self.events),
            "error": self.error,
            "attempts": self.attempts,
            "recovered": self.recovered,
        }


class JobQueue:
    """Per-tenant priority heaps drained round-robin (see module doc)."""

    def __init__(self, max_queued_per_tenant: int = 16):
        if max_queued_per_tenant < 1:
            raise ValueError("max_queued_per_tenant must be >= 1, got "
                             f"{max_queued_per_tenant}")
        self.max_queued_per_tenant = max_queued_per_tenant
        self._heaps: Dict[str, List[Tuple[int, int, Job]]] = {}
        self._ring: Deque[str] = deque()
        self._seq = itertools.count()
        self._available = None  # asyncio.Event, created on the loop

    def _event(self):
        import asyncio

        if self._available is None:
            self._available = asyncio.Event()
        return self._available

    def queued_count(self, tenant: Optional[str] = None) -> int:
        """Jobs still waiting (cancelled ones excluded)."""
        heaps = ([self._heaps.get(tenant, [])] if tenant is not None
                 else self._heaps.values())
        return sum(1 for heap in heaps
                   for _, _, job in heap if job.state == QUEUED)

    def push(self, job: Job, enforce_quota: bool = True) -> None:
        """Admit one job, or raise :class:`QuotaExceededError`.

        Journal recovery re-enqueues with ``enforce_quota=False``: the
        jobs were already admitted once, and recovery must not drop
        accepted work just because it exceeds today's quota.
        """
        tenant = job.spec.tenant
        if enforce_quota and \
                self.queued_count(tenant) >= self.max_queued_per_tenant:
            raise QuotaExceededError(
                f"tenant {tenant!r} already has "
                f"{self.max_queued_per_tenant} queued job(s); "
                "retry after one finishes")
        heap = self._heaps.setdefault(tenant, [])
        if tenant not in self._ring:
            self._ring.append(tenant)
        heapq.heappush(heap, (-job.spec.priority, next(self._seq), job))
        if self._available is not None:
            self._available.set()

    def pop(self) -> Optional[Job]:
        """The next job to run, or ``None`` when idle.

        Takes the highest-priority live job of the tenant at the front
        of the rotation, then moves that tenant to the back.
        """
        while self._ring:  # every non-yielding turn drains one tenant
            tenant = self._ring[0]
            heap = self._heaps.get(tenant, [])
            job = None
            while heap:
                _, _, candidate = heapq.heappop(heap)
                if candidate.state == QUEUED:
                    job = candidate
                    break
            if heap:
                self._ring.rotate(-1)
            else:
                # tenant drained: drop it from the rotation entirely
                self._ring.popleft()
                self._heaps.pop(tenant, None)
            if job is not None:
                return job
        return None

    async def get(self) -> Job:
        """Await the next runnable job (single consumer)."""
        event = self._event()
        while True:
            job = self.pop()
            if job is not None:
                return job
            event.clear()
            await event.wait()

    def __len__(self) -> int:
        return self.queued_count()
