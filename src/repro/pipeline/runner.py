"""Batch mapping pipeline: fan a work-list of mapping tasks out.

A :class:`BatchTask` names one mapping run — circuit, flow preset, cost
model, :class:`~repro.mapping.engine.MapperConfig` — by value, so tasks
pickle across a :class:`concurrent.futures.ProcessPoolExecutor`.
:class:`BatchRunner` executes a list of them with

* **parallel fan-out** across a :class:`~repro.pipeline.WorkerPool`
  (``max_workers`` processes),
* **per-task timeouts**, **classified retries** with exponential
  backoff and deterministic jitter (only *retryable* infrastructure
  failures — a hung or crashed worker — are resubmitted; deterministic
  task failures fail fast, see :func:`repro.errors.is_retryable`),
* **hung-slot reclamation**: a timed-out future cannot be cancelled
  once running, so the runner rebuilds the pool instead of leaking the
  slot — retries always get real capacity,
* a **whole-batch deadline budget** (``deadline_s``) after which
  unfinished tasks are reported as structured
  ``BatchDeadlineError`` failures instead of stalling the sweep, and
* **graceful degradation**: ``max_workers=1`` — or a broken pool, or a
  task that exhausted its retries — runs in-process serially, so a
  sweep always completes.

Workers return :class:`BatchResult` values: the circuit *cost* and a
netlist digest (not the circuit object — a mapped c7552 is megabytes),
the run's :class:`~repro.pipeline.MappingStats`, per-flow-pass wall
times, the worker's span tree and metrics registry (stitched by
:meth:`BatchReport.build_trace` / merged by
:meth:`BatchReport.total_metrics` in the parent), total wall time, and
the error string for failed tasks.  Results come back in task order and are
bit-identical between pool and serial execution: each task is a
deterministic function of its fields.

Every degradation decision the runner takes — a retry, a pool rebuild,
a fail-fast, a fallback — is recorded on :attr:`BatchReport.events`
and counted in :attr:`BatchReport.runner_metrics`
(``repro_resilience_*``), and the fault points of
:mod:`repro.resilience` (worker crash, task hang, parse failure, ...)
inject exactly those failures deterministically, so the whole recovery
surface is testable (``tests/resilience``, ``soidomino chaos``).

**Pool lifetime is decoupled from batch lifetime** (DESIGN.md §13): the
process-lifecycle half of the old runner lives in
:class:`~repro.pipeline.WorkerPool` (``pipeline/pool.py``), which stays
warm across :meth:`BatchRunner.run` calls — a runner reused for several
batches (or a :mod:`repro.service` daemon serving jobs) keeps worker
processes and their parsed-network memos resident.  A ``BatchRunner``
builds its own pool lazily and owns it (close with
:meth:`BatchRunner.close` / ``with``), or accepts a shared long-lived
pool via ``pool=``.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..domino.circuit import CircuitCost
from ..errors import ParseError, WorkerCrashError, is_retryable
from ..mapping import CostModel, MapperConfig, map_network
from ..mapping.flows import FLOW_PRESETS
from ..network import LogicNetwork
from ..obs import MetricsRegistry, Span, Tracer, stitch
from ..resilience.faults import (
    FaultPlan,
    active_plan,
    emit_recovery,
    fire,
    install,
)
from ..synth import UnateReport
from .metrics import MappingStats
from .pool import WorkerPool


@dataclass(frozen=True)
class BatchTask:
    """One unit of batch work, picklable by construction.

    ``circuit`` is a benchmark-registry name or a path to a
    ``.bench``/``.blif``/``.pla`` file — resolved inside the worker, so
    only strings and small configs cross the process boundary.
    """

    circuit: str
    flow: str = "soi"
    cost_model: Optional[CostModel] = None
    config: Optional[MapperConfig] = None

    @property
    def label(self) -> str:
        model = self.cost_model.name if self.cost_model is not None else "area"
        return f"{self.circuit}/{self.flow}/{model}"


@dataclass
class BatchResult:
    """Outcome of one task (success or failure)."""

    task: BatchTask
    cost: Optional[CircuitCost] = None
    stats: Optional[MappingStats] = None
    #: sha256 of the mapped transistor netlist (bit-identity witness)
    digest: Optional[str] = None
    #: pass name -> wall-clock seconds for the flow passes that ran
    pass_times: Optional[Dict[str, float]] = None
    #: the task's span tree (root ``task`` span, pass/node spans nested
    #: inside); recorded in the executing process and pickled back
    trace: Optional[Span] = None
    #: the task's metrics registry (merged into the report's aggregate)
    metrics: Optional[MetricsRegistry] = None
    #: the DP kernel that actually ran ("reference", "soa", "hybrid")
    kernel: Optional[str] = None
    elapsed_s: float = 0.0
    error: Optional[str] = None
    #: "pool", "serial", "serial-fallback" (pool gave up on this task),
    #: or "deadline" (the batch budget expired before it could run)
    mode: str = "serial"
    #: pool submissions made for this task (the in-process fallback run,
    #: if any, is not counted)
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class BatchReport:
    """All results of one :meth:`BatchRunner.run`, in task order."""

    results: List[BatchResult] = field(default_factory=list)
    wall_s: float = 0.0
    mode: str = "serial"
    #: runner-side degradation log: one dict per retry / rebuild /
    #: fail-fast / fallback / deadline decision, in the order taken
    events: List[Dict[str, object]] = field(default_factory=list)
    #: runner-side ``repro_resilience_*`` counters (parent process);
    #: worker-side counters ride each result's ``metrics``
    runner_metrics: Optional[MetricsRegistry] = None

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> List[BatchResult]:
        return [r for r in self.results if not r.ok]

    def total_stats(self) -> MappingStats:
        total = MappingStats()
        for r in self.results:
            if r.stats is not None:
                total.merge(r.stats)
        return total

    def total_metrics(self) -> MetricsRegistry:
        """All task registries merged (deterministic: fixed buckets),
        plus the runner's own recovery counters."""
        total = MetricsRegistry()
        for r in self.results:
            if r.metrics is not None:
                total.merge(r.metrics)
        if self.runner_metrics is not None:
            total.merge(self.runner_metrics)
        return total

    def build_trace(self) -> Span:
        """Stitch the workers' span trees under per-circuit root spans.

        Worker clocks are private to their processes, so the stitched
        timeline is schematic — circuits (and tasks within a circuit)
        are laid end-to-end in task order — but every task subtree's
        internal nesting and durations are real.  Runner-side
        degradation events are appended as a ``resilience`` lane of
        zero-duration marker spans.  The returned root is what
        ``soidomino batch --trace FILE`` exports.
        """
        by_circuit: Dict[str, List[Span]] = {}
        for r in self.results:
            if r.trace is not None:
                by_circuit.setdefault(r.task.circuit, []).append(r.trace)
        circuit_spans = [
            stitch(f"circuit:{name}", trees, category="circuit",
                   attributes={"tasks": len(trees)})
            for name, trees in by_circuit.items()]
        root = stitch("batch", circuit_spans, category="batch",
                      attributes={"mode": self.mode,
                                  "results": len(self.results)})
        if self.events:
            lane = Span(name="resilience", category="resilience",
                        start_s=root.start_s, end_s=root.end_s,
                        attributes={"events": len(self.events)})
            for event in self.events:
                at = float(event.get("t_s", 0.0))
                lane.children.append(Span(
                    name=f"{event.get('kind', 'event')}",
                    category="recovery", start_s=at, end_s=at,
                    attributes={k: v for k, v in event.items()
                                if k != "t_s"}))
            root.children.append(lane)
        return root

    @property
    def task_time_s(self) -> float:
        """Summed per-task wall time (serial-equivalent work)."""
        return sum(r.elapsed_s for r in self.results)

    def __repr__(self) -> str:
        done = sum(1 for r in self.results if r.ok)
        return (f"BatchReport({done}/{len(self.results)} ok, "
                f"wall={self.wall_s:.2f}s, mode={self.mode!r})")


# ---------------------------------------------------------------------------
# task execution (top-level functions so the process pool can import them)
# ---------------------------------------------------------------------------
def _load_network(source: str):
    from ..bench_suite import load_circuit
    from ..io import load_bench, load_blif, load_pla

    if source.endswith(".bench"):
        return load_bench(source)
    if source.endswith(".blif"):
        return load_blif(source)
    if source.endswith(".pla"):
        return load_pla(source)
    return load_circuit(source)


@dataclass
class _MemoEntry:
    """One memoized circuit source: its parsed network and, once a task
    has run the synthesis front end on it, ``(unate_network,
    unate_report)`` — the input every flow maps."""

    network: LogicNetwork
    prepared: Optional[Tuple[LogicNetwork, Optional[UnateReport]]] = None


class _NetworkMemo:
    """Per-process LRU memo of circuit sources.

    Retries of a task, the other flows of the same circuit and warm-pool
    re-runs skip the parse, and all but the first skip the synthesis
    front end too.  Sharing is safe because the mapping flow never
    mutates a network it is handed (every front-end pass returns a fresh
    network, and the DP only reads the unate network), and the front
    end reads nothing but the network, so one prepared network serves
    every :class:`MapperConfig` and cost model.
    """

    def __init__(self, max_entries: int = 256):
        self.max_entries = max_entries
        self.entries: "OrderedDict[object, _MemoEntry]" = OrderedDict()
        self.clear()

    @staticmethod
    def key(source: str):
        """Memo key for a circuit source; files key on (path, mtime,
        size) so an edited file re-parses, ``None`` marks unkeyable
        sources."""
        if source.endswith((".bench", ".blif", ".pla")):
            try:
                stat = os.stat(source)
            except OSError:
                return None  # let the loader raise its structured error
            return (source, stat.st_mtime_ns, stat.st_size)
        return source

    def entry(self, source: str) -> _MemoEntry:
        """The memo entry of ``source``, parsing it on a miss.  A source
        that fails to load raises and leaves no entry."""
        key = self.key(source)
        entry = self.entries.get(key) if key is not None else None
        if entry is not None:
            self.entries.move_to_end(key)
            self.hits += 1
            return entry
        entry = _MemoEntry(_load_network(source))
        self.misses += 1
        if key is not None:
            self.entries[key] = entry
            while len(self.entries) > self.max_entries:
                self.entries.popitem(last=False)
                self.evictions += 1
        return entry

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self.entries), "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions,
                "frontend_hits": self.frontend_hits,
                "frontend_misses": self.frontend_misses}

    def clear(self) -> None:
        self.entries.clear()
        self.hits = self.misses = self.evictions = 0
        self.frontend_hits = self.frontend_misses = 0


_NETWORK_MEMO = _NetworkMemo()


def load_network_cached(source: str) -> LogicNetwork:
    """:func:`_load_network` with the per-process memo in front."""
    return _NETWORK_MEMO.entry(source).network


def network_memo_stats() -> Dict[str, int]:
    """This process's memo counters (observable warmth): parse
    ``hits``/``misses``, LRU ``evictions`` and synthesis
    ``frontend_hits``/``frontend_misses``."""
    return _NETWORK_MEMO.stats()


def clear_network_memo() -> None:
    _NETWORK_MEMO.clear()


def execute_task(task: BatchTask, mode: str = "serial",
                 attempt: int = 1) -> BatchResult:
    """Run one task to completion; failures become error results.

    Each task records into a private tracer/registry: the root ``task``
    span (tagged with the worker pid so Chrome-trace lanes separate)
    and the registry ride the picklable :class:`BatchResult` back to
    the parent, which stitches and merges them.

    ``attempt`` is the submission number the runner is on for this
    task; fault rules with an ``max_attempt`` window read it, which is
    how chaos runs make first attempts fail and retries succeed.  In
    pool mode, *retryable* errors (see :func:`repro.errors.is_retryable`)
    propagate to the parent as future exceptions so the retry policy
    can classify them; everything else is reported as an error result.
    """
    started = time.perf_counter()
    tracer = Tracer(name=f"task:{task.label}")
    metrics = MetricsRegistry()
    plan = active_plan()
    if plan is not None:
        plan.attempt = attempt
    try:
        with tracer.span(f"task:{task.label}", category="task",
                         circuit=task.circuit, flow=task.flow,
                         pid=os.getpid(), mode=mode,
                         attempt=attempt) as root:
            rule = fire("worker.crash", task.label, tracer, metrics)
            if rule is not None:
                if rule.hard and mode == "pool":
                    os._exit(13)
                raise WorkerCrashError(
                    f"injected worker crash executing {task.label}")
            rule = fire("task.hang", task.label, tracer, metrics)
            if rule is not None:
                time.sleep(rule.sleep_s)
            if fire("parse.fail", task.circuit, tracer, metrics) is not None:
                raise ParseError("injected parse failure",
                                 filename=task.circuit)
            entry = _NETWORK_MEMO.entry(task.circuit)
            if entry.prepared is None:
                _NETWORK_MEMO.frontend_misses += 1
            else:
                _NETWORK_MEMO.frontend_hits += 1
            result = map_network(entry.network, flow=task.flow,
                                 cost_model=task.cost_model,
                                 config=task.config, tracer=tracer, metrics=metrics,
                                 prepared=entry.prepared)
            if entry.prepared is None:
                entry.prepared = (result.unate_network, result.unate_report)
        return BatchResult(task=task, cost=result.cost, stats=result.stats,
                           digest=result.circuit.digest(),
                           pass_times=result.pass_times(),
                           trace=root, metrics=metrics,
                           kernel=result.mapping.kernel,
                           elapsed_s=time.perf_counter() - started,
                           mode=mode, attempts=attempt)
    except Exception as exc:  # noqa: BLE001 - one bad task must not kill a sweep
        if mode == "pool" and is_retryable(exc):
            # infrastructure failure: let the parent's retry policy see
            # the real exception instead of a flattened error string
            raise
        return BatchResult(task=task, error=f"{type(exc).__name__}: {exc}",
                           trace=tracer.roots[0] if tracer.roots else None,
                           metrics=metrics,
                           elapsed_s=time.perf_counter() - started,
                           mode=mode, attempts=attempt)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------
class BatchRunner:
    """Execute batch mapping tasks, in parallel where possible.

    The runner is a thin *per-batch client* of a long-lived
    :class:`WorkerPool`: it validates and orders tasks, decides
    pool-vs-serial, degrades unfinished work, and assembles the
    :class:`BatchReport` — while the pool owns process lifecycle and
    stays warm across :meth:`run` calls.  Call :meth:`run` repeatedly on
    one runner (or share one pool between runners via ``pool=``) and
    worker processes and their parsed-network memos are reused; call :meth:`close` (or use the runner as a context manager)
    to release the owned pool.

    Parameters
    ----------
    max_workers:
        Process-pool width; ``None`` uses the CPU count, ``1`` runs
        serially in-process (no pool at all).
    timeout_s:
        Per-task result deadline in pool mode; a task that misses it is
        retried (on a rebuilt pool, so the hung worker's slot is not
        leaked) and finally degraded to in-process execution.  ``None``
        waits forever.  (Serial execution cannot enforce timeouts.)
    retries:
        Resubmissions allowed per task for *retryable* failures
        (timeout, worker crash) before degrading to serial.
        Non-retryable errors fail fast regardless.
    backoff_base_s, backoff_cap_s:
        Exponential-backoff schedule for retries: attempt *n* waits
        ``min(cap, base * 2**(n-1))`` scaled by a deterministic jitter
        factor in [0.5, 1.5) derived from the task label, so a sweep's
        retry timing is reproducible yet uncorrelated across tasks.
    deadline_s:
        Whole-batch wall-clock budget.  Once expired, no further
        retries or fallbacks run; unfinished tasks are reported as
        ``BatchDeadlineError`` failures with ``mode="deadline"``.
        ``None`` (default) means no budget.
    use_cache, store_path:
        Accepted and ignored: ``bench/workloads.py`` still passes them.
    pool:
        Optional shared :class:`WorkerPool`.  When given, the runner
        uses it for pooled execution and never closes it (the pool's
        own width/timeout/retry settings govern); otherwise the runner
        lazily builds a pool from its own parameters and owns it.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` installed for the
        run (parent process and every pool worker).  Default: the
        ambient plan (:func:`repro.resilience.active_plan`), if any, is
        forwarded to workers.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 timeout_s: Optional[float] = None,
                 retries: int = 1,
                 use_cache: bool = True,  # ignored; bench/workloads.py
                 backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 5.0,
                 deadline_s: Optional[float] = None,
                 store_path: Optional[str] = None,  # ignored; likewise
                 pool: Optional[WorkerPool] = None,
                 fault_plan: Optional[FaultPlan] = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff_base_s < 0 or backoff_cap_s < 0:
            raise ValueError("backoff times must be >= 0")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        self.max_workers = max_workers
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.deadline_s = deadline_s
        self.fault_plan = fault_plan
        self._shared_pool = pool
        self._pool: Optional[WorkerPool] = None

    # -- pool lifetime ----------------------------------------------------
    @property
    def pool(self) -> Optional[WorkerPool]:
        """The pool this runner would execute on (shared or owned);
        ``None`` until an owned pool has been built."""
        return self._shared_pool if self._shared_pool is not None \
            else self._pool

    def _ensure_pool(self) -> WorkerPool:
        if self._shared_pool is not None:
            return self._shared_pool
        if self._pool is None or self._pool.closed:
            self._pool = WorkerPool(
                max_workers=self.max_workers,
                timeout_s=self.timeout_s,
                retries=self.retries,
                backoff_base_s=self.backoff_base_s,
                backoff_cap_s=self.backoff_cap_s,
                fault_plan=self.fault_plan)
        return self._pool

    def close(self) -> None:
        """Release the owned pool (a shared ``pool=`` is left alone)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- task construction ----------------------------------------------
    @staticmethod
    def sweep_tasks(circuits: Optional[Sequence[str]] = None,
                    flows: Sequence[str] = ("soi",),
                    cost_models: Sequence[Optional[CostModel]] = (None,),
                    config: Optional[MapperConfig] = None) -> List[BatchTask]:
        """Cross product of circuits x flows x cost models.

        ``circuits=None`` takes the full benchmark registry.
        """
        from ..bench_suite import circuit_names

        names = list(circuits) if circuits else circuit_names()
        return [BatchTask(circuit=name, flow=flow, cost_model=model,
                          config=config)
                for name in names
                for flow in flows
                for model in cost_models]

    # -- execution -------------------------------------------------------
    def run(self, tasks: Iterable[BatchTask], *,
            on_result: Optional[Callable[[int, BatchResult], None]] = None
            ) -> BatchReport:
        """Run every task; the report lists results in task order.

        ``on_result(index, result)`` — when given — fires the moment
        each task's result is accepted (out of task order in pool mode):
        the progress hook the service's event stream rides on.
        """
        tasks = list(tasks)
        for task in tasks:
            if task.flow not in FLOW_PRESETS:
                raise ValueError(
                    f"task {task.label!r}: unknown flow {task.flow!r}; "
                    f"expected one of {', '.join(FLOW_PRESETS)}")
        started = time.perf_counter()
        previous = (install(self.fault_plan)
                    if self.fault_plan is not None else None)
        try:
            if self._shared_pool is not None:
                # a shared long-lived pool: its width governs, and even
                # single-task batches ride the warm workers
                pooled = bool(tasks) and self._shared_pool.width > 1
            else:
                workers = self.max_workers or os.cpu_count() or 1
                workers = min(workers, max(1, len(tasks)))
                pooled = workers > 1
            if pooled:
                report = self._run_pool(tasks, started, on_result)
            else:
                report = self._run_serial_list(tasks, started, on_result)
        finally:
            if self.fault_plan is not None:
                install(previous)
        report.wall_s = time.perf_counter() - started
        return report

    def run_serial(self, tasks: Iterable[BatchTask], *,
                   on_result: Optional[Callable[[int, BatchResult],
                                                None]] = None
                   ) -> BatchReport:
        """Force in-process serial execution (no pool)."""
        tasks = list(tasks)
        started = time.perf_counter()
        previous = (install(self.fault_plan)
                    if self.fault_plan is not None else None)
        try:
            report = self._run_serial_list(tasks, started, on_result)
        finally:
            if self.fault_plan is not None:
                install(previous)
        report.wall_s = time.perf_counter() - started
        return report

    def _run_serial_list(self, tasks: List[BatchTask], started: float,
                         on_result: Optional[Callable[[int, BatchResult],
                                                      None]] = None
                         ) -> BatchReport:
        """In-process execution honouring the batch deadline budget."""
        deadline = (started + self.deadline_s
                    if self.deadline_s is not None else None)
        metrics = MetricsRegistry()
        events: List[Dict[str, object]] = []
        results: List[BatchResult] = []
        for index, task in enumerate(tasks):
            if deadline is not None and time.perf_counter() >= deadline:
                result = self._deadline_result(task, attempts=0)
                self._record(events, metrics, started, "deadline_abandon",
                             task=task.label,
                             detail=f"budget {self.deadline_s}s expired")
            else:
                result = execute_task(task)
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return BatchReport(results=results, mode="serial", events=events,
                           runner_metrics=metrics)

    # -- pool delegation -------------------------------------------------
    def _deadline_result(self, task: BatchTask,
                         attempts: int) -> BatchResult:
        return BatchResult(
            task=task, mode="deadline", attempts=max(0, attempts),
            error=(f"BatchDeadlineError: batch deadline "
                   f"{self.deadline_s}s expired before task completed"))

    @staticmethod
    def _record(events: List[Dict[str, object]], metrics: MetricsRegistry,
                started: float, kind: str, **fields_) -> None:
        """Log one degradation decision (event list + counters)."""
        event: Dict[str, object] = {
            "kind": kind, "t_s": time.perf_counter() - started}
        event.update(fields_)
        events.append(event)
        emit_recovery(kind, str(fields_.get("detail", "")), metrics=metrics)

    def _run_pool(self, tasks: List[BatchTask], started: float,
                  on_result: Optional[Callable[[int, BatchResult],
                                               None]] = None
                  ) -> BatchReport:
        """Delegate one batch to the (warm) :class:`WorkerPool`, then
        degrade whatever the pool handed back unfinished."""
        plan = (self.fault_plan if self.fault_plan is not None
                else active_plan())
        deadline = (started + self.deadline_s
                    if self.deadline_s is not None else None)
        metrics = MetricsRegistry()
        events: List[Dict[str, object]] = []

        def record(kind: str, **fields_) -> None:
            self._record(events, metrics, started, kind, **fields_)

        pool = self._ensure_pool()
        results, attempts = pool.run_tasks(
            tasks, deadline=deadline, plan=plan, record=record,
            on_result=on_result)

        deadline_hit = (deadline is not None
                        and time.perf_counter() >= deadline)
        for index in range(len(tasks)):
            if index in results:
                continue
            task = tasks[index]
            if deadline_hit:
                results[index] = self._deadline_result(
                    task, attempts=attempts[index])
                record("deadline_abandon", task=task.label,
                       detail=f"budget {self.deadline_s}s expired")
            else:
                record("serial_fallback", task=task.label,
                       detail=f"after {attempts[index]} pool attempts")
                result = execute_task(task, mode="serial-fallback",
                                      attempt=attempts[index] + 1)
                result.attempts = max(1, attempts[index])
                results[index] = result
            if on_result is not None:
                on_result(index, results[index])
        return BatchReport(results=[results[i] for i in range(len(tasks))],
                           mode="pool", events=events,
                           runner_metrics=metrics)
