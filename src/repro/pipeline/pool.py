"""Long-lived worker pool: process lifetime decoupled from batch lifetime.

:class:`WorkerPool` owns everything about worker *processes* that
:class:`~repro.pipeline.runner.BatchRunner` used to rebuild per batch:

* the :class:`~concurrent.futures.ProcessPoolExecutor` itself, built
  lazily on first use and **kept warm across** :meth:`run_tasks` calls —
  imports, numpy kernel state and each worker's parsed-network memo
  all survive from one batch (or service job) to the next;
* the resilience machinery around it: per-task timeouts, classified
  retries with deterministic-jitter exponential backoff, pool rebuild on
  hang/crash (a running future cannot be cancelled, so replacing the
  executor is the only way to reclaim a hung slot), and the whole-batch
  deadline budget;
* worker initialization: the fault plan.

:meth:`run_tasks` executes one batch against the warm pool and returns
``(results, attempts)`` by task index; indices absent from ``results``
ran out of retries (or budget) and are the *caller's* to degrade — the
runner falls back to in-process execution, keeping batch semantics out
of this class.  Degradation decisions are reported through the caller's
``record`` callback, so events/metrics land in the same stream
(``retry`` / ``pool_rebuild`` / ``fail_fast`` kinds, exactly as before
the split).

The pool survives everything except :meth:`close` (and interpreter
exit): a broken executor is replaced, a deadline-abandoned run discards
the executor rather than inheriting hung futures, and the next
:meth:`run_tasks` simply builds a fresh one.  ``pools_built`` /
``rebuilds`` / ``runs`` make warmth observable (and testable).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..errors import is_retryable
from ..resilience.faults import (
    FaultPlan,
    backoff_s,
    install,
    install_from_env,
)

#: Lazily-chosen multiprocessing context shared by every pool.
_MP_CONTEXT: Optional[multiprocessing.context.BaseContext] = None


def _mp_context() -> multiprocessing.context.BaseContext:
    """The start method for pool workers: ``forkserver`` when available.

    Plain ``fork`` children duplicate every open file descriptor of the
    parent at fork time.  Now that pools outlive batches, a pool may be
    (re)built while the owning process holds live sockets — a serving
    daemon's listener or an accepted event-stream connection — and a
    forked worker keeps those sockets open for its whole lifetime: the
    port stays bound after the daemon dies and clients never see EOF.
    ``forkserver`` forks workers from a clean, exec'd server process
    that holds no such descriptors.  The server preloads this module so
    per-worker fork cost stays fork-like after the one-time launch.
    """
    global _MP_CONTEXT
    if _MP_CONTEXT is None:
        if "forkserver" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("forkserver")
            try:
                context.set_forkserver_preload(["repro.pipeline.pool"])
            except (AttributeError, ValueError):  # pragma: no cover
                pass
            _MP_CONTEXT = context
        else:  # pragma: no cover - non-Unix fallback
            _MP_CONTEXT = multiprocessing.get_context()
    return _MP_CONTEXT


def _init_worker(plan: Optional[FaultPlan] = None) -> None:
    if plan is not None:
        install(plan)
    else:
        install_from_env()


def _pool_execute(task, attempt: int = 1):
    from .runner import execute_task

    return execute_task(task, mode="pool", attempt=attempt)


class WorkerPool:
    """A resident process pool that outlives individual batches.

    Parameters
    ----------
    max_workers:
        Pool width; ``None`` uses the CPU count.
    timeout_s:
        Per-task result deadline; a task that misses it is retried on a
        rebuilt pool.  ``None`` waits forever.
    retries:
        Resubmissions allowed per task for *retryable* failures before
        the task is handed back unfinished.
    backoff_base_s, backoff_cap_s:
        Exponential-backoff schedule: retry *n* waits
        ``min(cap, base * 2**(n-1))`` scaled by a deterministic jitter
        factor in [0.5, 1.5) derived from the task label.
    fault_plan:
        Default :class:`FaultPlan` installed in workers when
        :meth:`run_tasks` is not given one explicitly.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 timeout_s: Optional[float] = None,
                 retries: int = 1,
                 backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 5.0,
                 fault_plan: Optional[FaultPlan] = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff_base_s < 0 or backoff_cap_s < 0:
            raise ValueError("backoff times must be >= 0")
        self.width = max_workers or os.cpu_count() or 1
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.fault_plan = fault_plan
        self._executor: Optional[ProcessPoolExecutor] = None
        self._built_plan: Optional[FaultPlan] = None
        self.closed = False
        #: executors ever built (1 after warm reuse, +1 per rebuild)
        self.pools_built = 0
        #: mid-run executor replacements (hangs, crashes)
        self.rebuilds = 0
        #: completed :meth:`run_tasks` calls
        self.runs = 0
        #: runs in a row that rebuilt or left work unfinished — the
        #: service circuit breaker's pool-health signal
        self.consecutive_degraded_runs = 0

    # ------------------------------------------------------------------
    # executor lifecycle
    # ------------------------------------------------------------------
    @property
    def warm(self) -> bool:
        """True when a live executor is resident."""
        return self._executor is not None

    def _build(self, plan: Optional[FaultPlan]) -> ProcessPoolExecutor:
        self.pools_built += 1
        self._built_plan = plan
        return ProcessPoolExecutor(
            max_workers=self.width, initializer=_init_worker,
            initargs=(plan,),
            mp_context=_mp_context())

    def _ensure(self, plan: Optional[FaultPlan]) -> ProcessPoolExecutor:
        if self.closed:
            raise RuntimeError("WorkerPool is closed")
        if self._executor is not None and plan is not self._built_plan:
            # a different fault plan must reach the workers' initializer
            self._discard()
        if self._executor is None:
            self._executor = self._build(plan)
        return self._executor

    def _discard(self, wait: bool = False) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        """Shut the resident executor down, joining its (idle) worker
        processes so inherited resources — a daemon's forked listening
        socket, sqlite handles — are actually released; idempotent.
        (Mid-run discards stay non-blocking: a hung worker must not
        block recovery, see :meth:`run_tasks`.)"""
        self._discard(wait=True)
        self.closed = True

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # one batch against the warm pool
    # ------------------------------------------------------------------
    def _backoff_s(self, label: str, attempt: int, seed: int) -> float:
        """Deterministic-jitter exponential backoff before retry
        ``attempt + 1`` of the task labelled ``label``."""
        return backoff_s(seed, "backoff", label, attempt,
                         base_s=self.backoff_base_s,
                         cap_s=self.backoff_cap_s)

    def run_tasks(self, tasks: List, *,
                  deadline: Optional[float] = None,
                  plan: Optional[FaultPlan] = None,
                  record: Optional[Callable[..., None]] = None,
                  on_result: Optional[Callable[[int, object], None]] = None
                  ) -> Tuple[Dict[int, object], Dict[int, int]]:
        """Run ``tasks`` on the (warm) pool.

        Parameters
        ----------
        deadline:
            Absolute ``time.perf_counter()`` budget; once reached the
            run stops and unfinished tasks are handed back.
        plan:
            Fault plan for the workers (default: the pool's own);
            changing plans rebuilds the executor so initializers see it.
        record:
            ``record(kind, **fields)`` callback for degradation events
            (``retry`` / ``pool_rebuild`` / ``fail_fast``).
        on_result:
            Called as ``on_result(index, result)`` the moment a task's
            result is accepted — the service's progress-event hook.

        Returns ``(results, attempts)`` keyed by task index.  An index
        missing from ``results`` exhausted its retries or the deadline;
        the caller decides how to degrade it (``attempts`` says how many
        pool submissions it consumed).
        """
        if plan is None:
            plan = self.fault_plan
        seed = plan.seed if plan is not None else 0
        record = record if record is not None else (lambda kind, **kw: None)
        results: Dict[int, object] = {}
        attempts: Dict[int, int] = dict.fromkeys(range(len(tasks)), 0)
        rebuilds_before = self.rebuilds
        pool = self._ensure(plan)
        inflight: Deque[Tuple[int, object]] = deque()
        scheduled: List[Tuple[float, int]] = []  # (ready_at, index)

        def accept(index: int, result) -> None:
            result.attempts = attempts[index]
            results[index] = result
            if on_result is not None:
                on_result(index, result)

        def submit(index: int, count_attempt: bool = True) -> None:
            if count_attempt:
                attempts[index] += 1
            try:
                future = pool.submit(_pool_execute, tasks[index],
                                     attempts[index])
            except BrokenExecutor as exc:
                # a worker died since an earlier submission: hold the
                # failure as this task's future, so the BrokenExecutor
                # path below rebuilds the pool and resubmits the task
                future = Future()
                future.set_exception(exc)
            inflight.append((index, future))

        def schedule_retry(index: int, reason: str) -> None:
            delay = self._backoff_s(tasks[index].label, attempts[index],
                                    seed)
            scheduled.append((time.perf_counter() + delay, index))
            record("retry", task=tasks[index].label, detail=reason,
                   attempt=attempts[index], backoff_s=round(delay, 4))

        def rebuild_pool(reason: str, victim: Optional[int] = None) -> None:
            # cancel() is a no-op on running futures, so a hung or dead
            # worker would keep its slot forever; replacing the whole
            # executor is the only way to guarantee retries real
            # capacity.
            nonlocal pool
            resubmit: List[int] = []
            for i, f in list(inflight):
                if i == victim:
                    continue
                if f.done() and not f.cancelled() and f.exception() is None:
                    accept(i, f.result())
                else:
                    f.cancel()
                    resubmit.append(i)
            inflight.clear()
            self._discard()
            self.rebuilds += 1
            pool = self._executor = self._build(plan)
            for i in resubmit:
                submit(i, count_attempt=False)
            record("pool_rebuild", detail=reason, resubmitted=len(resubmit))

        try:
            for i in range(len(tasks)):
                submit(i)
            while inflight or scheduled:
                now = time.perf_counter()
                if deadline is not None and now >= deadline:
                    break
                if scheduled:
                    due = [e for e in scheduled if e[0] <= now]
                    if due:
                        scheduled = [e for e in scheduled if e[0] > now]
                        for _, i in due:
                            submit(i)
                if not inflight:
                    # everything left is waiting out its backoff
                    wake = min(ready for ready, _ in scheduled)
                    if deadline is not None:
                        wake = min(wake, deadline)
                    pause = wake - time.perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                    continue
                index, future = inflight.popleft()
                timeout = self.timeout_s
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        inflight.appendleft((index, future))
                        break
                    timeout = (remaining if timeout is None
                               else min(timeout, remaining))
                try:
                    result = future.result(timeout=timeout)
                except FuturesTimeoutError:
                    if (deadline is not None
                            and time.perf_counter() >= deadline
                            and (self.timeout_s is None
                                 or timeout < self.timeout_s)):
                        # the *batch* budget cut this wait short, not
                        # the per-task timeout: let the caller's
                        # deadline path account for the task
                        inflight.appendleft((index, future))
                        break
                    future.cancel()
                    rebuild_pool(f"task {tasks[index].label} exceeded "
                                 f"timeout {self.timeout_s}s",
                                 victim=index)
                    if attempts[index] <= self.retries:
                        schedule_retry(index, "per-task timeout")
                    # else: left unfinished -> the caller degrades it
                    continue
                except BrokenExecutor as exc:
                    rebuild_pool(f"pool broke under {tasks[index].label}: "
                                 f"{type(exc).__name__}", victim=index)
                    if attempts[index] <= self.retries:
                        schedule_retry(
                            index, f"worker died: {type(exc).__name__}")
                    # else: left unfinished -> the caller degrades it
                    continue
                except Exception as exc:  # noqa: BLE001 - classified below
                    if is_retryable(exc):
                        if attempts[index] <= self.retries:
                            schedule_retry(
                                index, f"{type(exc).__name__}: {exc}")
                        # else: retries exhausted -> caller degrades
                        continue
                    # deterministic task failure (parse/pickling/...):
                    # retrying or falling back would reproduce it
                    from .runner import BatchResult

                    accept(index, BatchResult(
                        task=tasks[index],
                        error=f"{type(exc).__name__}: {exc}",
                        mode="pool", attempts=attempts[index]))
                    record("fail_fast", task=tasks[index].label,
                           detail=f"{type(exc).__name__}: {exc}")
                    continue
                accept(index, result)
        except (BrokenExecutor, OSError):
            # the executor itself died and could not be rebuilt:
            # everything unfinished degrades in the caller; drop the
            # carcass so the next run starts from a clean build
            self._discard()
        finally:
            if inflight:
                # hung or budget-abandoned futures must not haunt the
                # warm pool: discard the executor, keep the warm path
                # for clean completions only
                self._discard()
            self.runs += 1
            rebuilt = self.rebuilds - rebuilds_before
            unfinished = len(tasks) - len(results)
            if rebuilt or unfinished:
                self.consecutive_degraded_runs += 1
            else:
                self.consecutive_degraded_runs = 0
        return results, attempts
