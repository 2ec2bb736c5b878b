"""The fault-matrix chaos drill behind ``soidomino chaos``.

:func:`run_chaos` runs one scenario per registered fault point (the
full :data:`~repro.resilience.faults.FAULT_POINTS` matrix, or a chosen
subset): a seeded :class:`FaultPlan` activating exactly that site is
installed, a small real workload runs through the production stack —
the batch pool for the worker-facing sites, a shared
:class:`~repro.pipeline.TreeCache` for cache poisoning, a real daemon
for the service sites — and the scenario passes only if the site's
*documented* recovery happened: hung/crashed workers were retried to
success, deterministic failures failed fast as structured per-task
errors, poisoned cache entries were evicted and recomputed.  Every
scenario also demands **bit-identical digests** against a fault-free
baseline for all work that was supposed to survive, which is what
separates "recovered" from "limped to a different answer".

Everything is deterministic in ``seed``: fault decisions are hash-based
(see :mod:`repro.resilience.faults`), so a failing chaos run reproduces
from its command line alone.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bench_suite import load_circuit
from ..mapping import map_network
from .faults import FAULT_POINTS, FaultPlan, FaultRule, install

#: Default chaos workload: small enough for a CI smoke run, large
#: enough that every scenario has non-faulted neighbours to digest-pin.
DEFAULT_CIRCUITS = ("mux", "cm150", "z4ml")


def chaos_sites() -> List[str]:
    """Registered fault-point names, in registry order."""
    return list(FAULT_POINTS)


@dataclass
class ChaosOutcome:
    """Result of one fault point's scenario."""

    site: str
    spec: str                 #: the exact fault-plan spec that ran
    ok: bool
    detail: str
    #: per-task outcome strings, label -> "ok" / the error (batch sites)
    tasks: Dict[str, str] = field(default_factory=dict)
    #: True when every non-faulted task's digest matched the baseline
    digests_ok: Optional[bool] = None

    def as_dict(self) -> Dict[str, object]:
        return {"site": self.site, "spec": self.spec, "ok": self.ok,
                "detail": self.detail, "tasks": dict(self.tasks),
                "digests_ok": self.digests_ok}


@dataclass
class ChaosReport:
    """All scenario outcomes of one chaos run."""

    seed: int
    circuits: Tuple[str, ...]
    outcomes: List[ChaosOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def as_dict(self) -> Dict[str, object]:
        return {"schema": "soidomino-chaos/1", "seed": self.seed,
                "circuits": list(self.circuits), "ok": self.ok,
                "outcomes": [o.as_dict() for o in self.outcomes]}

    def __repr__(self) -> str:
        good = sum(1 for o in self.outcomes if o.ok)
        return f"ChaosReport({good}/{len(self.outcomes)} ok, seed={self.seed})"


# ---------------------------------------------------------------------------
# scenario plumbing
# ---------------------------------------------------------------------------
def _batch_scenario(plan: FaultPlan, circuits: Sequence[str], jobs: int,
                    timeout_s: Optional[float], retries: int):
    """Run the standard workload under ``plan`` through the batch pool."""
    from ..pipeline import BatchRunner

    runner = BatchRunner(max_workers=jobs, timeout_s=timeout_s,
                         retries=retries, fault_plan=plan)
    tasks = BatchRunner.sweep_tasks(circuits=list(circuits))
    return runner.run(tasks), tasks


def _task_outcomes(report) -> Dict[str, str]:
    return {r.task.label: "ok" if r.ok else (r.error or "failed")
            for r in report.results}


def _check_digests(report, baseline: Dict[str, str],
                   faulted_label: str) -> bool:
    """Non-faulted tasks must reproduce the baseline bit-for-bit."""
    return all(r.digest == baseline[r.task.label]
               for r in report.results
               if faulted_label not in r.task.label and r.ok)


def _verdict(site: str, spec: str, ok: bool, detail: str, report,
             digests_ok: Optional[bool]) -> ChaosOutcome:
    return ChaosOutcome(site=site, spec=spec, ok=ok, detail=detail,
                        tasks=_task_outcomes(report) if report else {},
                        digests_ok=digests_ok)


# ---------------------------------------------------------------------------
# the drill
# ---------------------------------------------------------------------------
def run_chaos(circuits: Optional[Sequence[str]] = None, *, seed: int = 0,
              jobs: int = 2, sites: Optional[Sequence[str]] = None,
              timeout_s: float = 30.0, hang_timeout_s: float = 0.5,
              retries: int = 1) -> ChaosReport:
    """Run the fault-matrix drill; every scenario must recover.

    ``circuits[0]`` is the *target* the fault rules match, so its
    neighbours double as the bit-identity control group.  ``jobs`` is
    the pool width for the batch scenarios (>= 2 exercises real
    parallelism); ``hang_timeout_s`` is the per-task timeout the
    ``task.hang`` scenario runs under (the injected hang sleeps past
    it).
    """
    circuits = tuple(circuits) if circuits else DEFAULT_CIRCUITS
    target = circuits[0]
    chosen = list(sites) if sites else chaos_sites()
    for site in chosen:
        if site not in FAULT_POINTS:
            raise ValueError(
                f"unknown chaos site {site!r}; registered: "
                f"{', '.join(FAULT_POINTS)}")

    report = ChaosReport(seed=seed, circuits=circuits)

    # fault-free baseline: the digests every scenario is held to
    from ..pipeline import BatchRunner

    baseline_run = BatchRunner(max_workers=1).run(
        BatchRunner.sweep_tasks(circuits=list(circuits)))
    if not baseline_run.ok:
        raise RuntimeError(
            "chaos baseline failed (without any faults): "
            + "; ".join(f"{r.task.label}: {r.error}"
                        for r in baseline_run.failures))
    baseline = {r.task.label: r.digest for r in baseline_run.results}

    runners = {
        "worker.crash": _run_worker_crash,
        "task.hang": _run_task_hang,
        "parse.fail": _run_parse_fail,
        "resource.exhaust": _run_resource_exhaust,
        "cache.poison": _run_cache_poison,
        "journal.corrupt": _run_journal_corrupt,
        "service.crash": _run_service_crash,
        "queue.overload": _run_queue_overload,
        "pool.breaker": _run_pool_breaker,
    }
    for site in chosen:
        report.outcomes.append(runners[site](
            seed=seed, circuits=circuits, target=target, jobs=jobs,
            timeout_s=timeout_s, hang_timeout_s=hang_timeout_s,
            retries=retries, baseline=baseline))
    return report


def _run_worker_crash(*, seed, circuits, target, jobs, timeout_s,
                      retries, baseline, **_) -> ChaosOutcome:
    plan = FaultPlan(seed=seed, rules=(
        FaultRule("worker.crash", match=target),))
    run, _tasks = _batch_scenario(plan, circuits, jobs, timeout_s, retries)
    digests_ok = (run.ok
                  and all(r.digest == baseline[r.task.label]
                          for r in run.results))
    retried = any(e["kind"] in ("retry", "pool_rebuild")
                  for e in run.events)
    ok = run.ok and digests_ok and retried
    detail = (f"crash on {target!r} attempt 1, "
              f"{'retried to success' if retried else 'NO RETRY SEEN'}, "
              f"digests {'match' if digests_ok else 'DIVERGED'}")
    return _verdict("worker.crash", plan.spec(), ok, detail, run, digests_ok)


def _run_task_hang(*, seed, circuits, target, jobs, hang_timeout_s,
                   retries, baseline, **_) -> ChaosOutcome:
    plan = FaultPlan(seed=seed, rules=(
        FaultRule("task.hang", match=target,
                  sleep_s=max(4 * hang_timeout_s, 2.0)),))
    run, _tasks = _batch_scenario(plan, circuits, jobs, hang_timeout_s,
                                  retries)
    digests_ok = (run.ok
                  and all(r.digest == baseline[r.task.label]
                          for r in run.results))
    reclaimed = any(e["kind"] == "pool_rebuild" for e in run.events)
    ok = run.ok and digests_ok and reclaimed
    detail = (f"hang on {target!r} past timeout {hang_timeout_s}s, "
              f"{'slot reclaimed' if reclaimed else 'NO POOL REBUILD'}, "
              f"digests {'match' if digests_ok else 'DIVERGED'}")
    return _verdict("task.hang", plan.spec(), ok, detail, run, digests_ok)


def _run_parse_fail(*, seed, circuits, target, jobs, timeout_s, retries,
                    baseline, **_) -> ChaosOutcome:
    plan = FaultPlan(seed=seed, rules=(
        FaultRule("parse.fail", match=target),))
    run, _tasks = _batch_scenario(plan, circuits, jobs, timeout_s, retries)
    faulted = [r for r in run.results if target in r.task.label]
    others_ok = _check_digests(run, baseline, target)
    failed_fast = all(not r.ok and "ParseError" in (r.error or "")
                      and r.attempts == 1 for r in faulted)
    ok = bool(faulted) and failed_fast and others_ok
    shape = ("failed fast with ParseError" if failed_fast
             else "DID NOT FAIL FAST")
    detail = (f"{target!r} {shape}, neighbours "
              f"{'match baseline' if others_ok else 'DIVERGED'}")
    return _verdict("parse.fail", plan.spec(), ok, detail, run, others_ok)


def _run_resource_exhaust(*, seed, circuits, target, jobs, timeout_s,
                          retries, baseline, **_) -> ChaosOutcome:
    plan = FaultPlan(seed=seed, rules=(
        FaultRule("resource.exhaust", match=target),))
    run, _tasks = _batch_scenario(plan, circuits, jobs, timeout_s, retries)
    faulted = [r for r in run.results if target in r.task.label]
    others_ok = _check_digests(run, baseline, target)
    structured = all(not r.ok and "ResourceLimitError" in (r.error or "")
                     for r in faulted)
    ok = bool(faulted) and structured and others_ok
    shape = ("reported structured ResourceLimitError" if structured
             else "WRONG FAILURE SHAPE")
    detail = (f"{target!r} {shape}, neighbours "
              f"{'match baseline' if others_ok else 'DIVERGED'}")
    return _verdict("resource.exhaust", plan.spec(), ok, detail, run,
                    others_ok)


# ---------------------------------------------------------------------------
# service-tier scenarios (DESIGN.md §14)
# ---------------------------------------------------------------------------
def _service_digests_ok(result: Dict, baseline: Dict[str, str]) -> bool:
    """Every entry of a service job result must match the baseline."""
    return all(entry["digest"] == baseline.get(
        f"{entry['circuit']}/{entry['flow']}/area")
        for entry in result.get("results", []))


def _run_journal_corrupt(*, seed, target, baseline, **_) -> ChaosOutcome:
    """A done job's journaled result blob is corrupted on disk; the
    restarted daemon must demote it and recompute to the same digest."""
    from ..service import MappingService, ServiceClient, start_in_thread

    plan = FaultPlan(seed=seed, rules=(
        FaultRule("journal.corrupt", match=target),))
    with tempfile.TemporaryDirectory(prefix="soidomino-chaos-") as tmpdir:
        journal = f"{tmpdir}/journal.sqlite"
        previous = install(plan)
        try:
            service = MappingService(max_workers=1, journal_path=journal)
            handle = start_in_thread(service)
            try:
                client = ServiceClient(port=handle.port)
                job = client.submit({"circuits": [target]})
                first = client.wait(job["id"])
            finally:
                handle.stop()
            # the daemon restarts with the same fault env: the rule's
            # max_attempt=1 window must keep the rerun (attempt 2) clean
            service2 = MappingService(max_workers=1, journal_path=journal)
            demoted = service2.journal.stats()["corrupt_results"] >= 1
            requeued = service2.requeued_jobs >= 1
            handle2 = start_in_thread(service2)
            try:
                client2 = ServiceClient(port=handle2.port)
                second = client2.wait(job["id"])
                status = client2.status(job["id"])
            finally:
                handle2.stop()
        finally:
            install(previous)
    digests_ok = (first["state"] == "done" and second["state"] == "done"
                  and _service_digests_ok(first["result"], baseline)
                  and _service_digests_ok(second["result"], baseline))
    recomputed = status["attempts"] == 2 and status["recovered"]
    ok = demoted and requeued and recomputed and digests_ok
    detail = (f"corrupt result blob "
              f"{'detected and demoted' if demoted else 'NOT DETECTED'}, "
              f"{'re-enqueued' if requeued else 'NOT RE-ENQUEUED'}, "
              f"rerun (attempt 2) digest "
              f"{'matches baseline' if digests_ok else 'DIVERGED'}")
    return ChaosOutcome(site="journal.corrupt", spec=plan.spec(), ok=ok,
                        detail=detail, digests_ok=digests_ok)


def _sleep(seconds: float) -> None:
    import time

    time.sleep(seconds)


def _run_service_crash(*, seed, circuits, target, baseline,
                       **_) -> ChaosOutcome:
    """kill -9 the daemon mid-batch; the restarted daemon must replay
    the journal and finish the job with baseline digests."""
    import subprocess

    from ..service import ServiceClient
    from ..service.smoke import free_port, start_daemon, stop_daemon

    faults = f"seed={seed};service.crash:match={target}"
    with tempfile.TemporaryDirectory(prefix="soidomino-chaos-") as tmpdir:
        journal = f"{tmpdir}/journal.sqlite"
        serve = ["--journal", journal, "--no-store", "-j", "1"]
        env = {"REPRO_FAULTS": faults}
        port = free_port()
        daemon = start_daemon(port, serve, env)
        try:
            client = ServiceClient(port=port, retries=0)
            job = client.submit({"circuits": list(circuits)})
            try:
                daemon.wait(timeout=120)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait(timeout=15)
            crashed = daemon.returncode == 86
            # the successor runs with the SAME fault env: recovery must
            # survive it (the rerun is attempt 2, past the window)
            daemon = start_daemon(port, serve, env)
            retry_client = ServiceClient(port=port, retries=3)
            result = retry_client.wait(job["id"], timeout=120.0)
            status = retry_client.status(job["id"])
            events = list(retry_client.events(job["id"]))
        finally:
            stop_daemon(daemon)
    digests_ok = (result["state"] == "done"
                  and _service_digests_ok(result["result"], baseline))
    replayed = status["recovered"] and status["attempts"] == 2
    seqs = [e["seq"] for e in events]
    cursor_ok = seqs == sorted(set(seqs))  # continuous, no duplicates
    ok = crashed and replayed and digests_ok and cursor_ok
    detail = (f"daemon {'crashed mid-batch (exit 86)' if crashed else 'DID NOT CRASH'}, "
              f"restart {'replayed the journal' if replayed else 'DID NOT REPLAY'}, "
              f"digests {'match baseline' if digests_ok else 'DIVERGED'}, "
              f"event cursor {'continuous' if cursor_ok else 'BROKEN'}")
    return ChaosOutcome(site="service.crash",
                        spec=faults, ok=ok, detail=detail,
                        digests_ok=digests_ok)


def _run_queue_overload(*, seed, target, baseline, **_) -> ChaosOutcome:
    """Admission sheds the first submit (retryable 429 + Retry-After);
    the client's idempotent retry must run the job exactly once."""
    from ..service import MappingService, ServiceClient, start_in_thread

    plan = FaultPlan(seed=seed, rules=(
        FaultRule("queue.overload", match=target),))
    previous = install(plan)
    try:
        service = MappingService(max_workers=1)
        handle = start_in_thread(service)
        try:
            client = ServiceClient(port=handle.port, retries=3)
            job = client.submit({"circuits": [target]})
            result = client.wait(job["id"])
        finally:
            handle.stop()
    finally:
        install(previous)
    shed = client.retried >= 1
    exactly_once = len(service.jobs) == 1
    digests_ok = (result["state"] == "done"
                  and _service_digests_ok(result["result"], baseline))
    ok = shed and exactly_once and digests_ok
    detail = (f"first submit {'shed, client retried' if shed else 'NOT SHED'}, "
              f"{len(service.jobs)} job(s) ran "
              f"{'(exactly once)' if exactly_once else '(EXPECTED 1)'}, "
              f"digest {'matches baseline' if digests_ok else 'DIVERGED'}")
    return ChaosOutcome(site="queue.overload", spec=plan.spec(), ok=ok,
                        detail=detail, digests_ok=digests_ok)


def _run_pool_breaker(*, seed, target, baseline, **_) -> ChaosOutcome:
    """Consecutive injected pool failures must open the breaker (503 at
    admission); after the reset window a probe job closes it."""
    from ..service import (
        MappingService,
        ServiceClient,
        ServiceError,
        start_in_thread,
    )

    plan = FaultPlan(seed=seed, rules=(
        FaultRule("pool.breaker", match=target),))
    previous = install(plan)
    try:
        service = MappingService(max_workers=1, breaker_threshold=2,
                                 breaker_reset_s=3.0)
        handle = start_in_thread(service)
        try:
            client = ServiceClient(port=handle.port, retries=0)
            for _i in range(2):  # each job fails at attempt 1
                job = client.submit({"circuits": [target]})
                client.wait(job["id"])
            opened = service.breaker.state == "open"
            rejected = False
            try:
                client.submit({"circuits": [target]})
            except ServiceError as exc:
                rejected = (exc.status == 503 and exc.retryable
                            and exc.retry_after is not None)
            install(previous)  # the pool "heals": faults stop firing
            _sleep(3.1)  # past breaker_reset_s: next submit is the probe
            probe = client.submit({"circuits": [target]})
            result = client.wait(probe["id"])
            closed = service.breaker.state == "closed"
            opens = service.breaker.opens
        finally:
            handle.stop()
    finally:
        install(previous)
    digests_ok = (result["state"] == "done"
                  and _service_digests_ok(result["result"], baseline))
    ok = opened and rejected and closed and opens >= 1 and digests_ok
    detail = (f"breaker {'opened after 2 failures' if opened else 'DID NOT OPEN'}, "
              f"admission {'rejected 503+Retry-After' if rejected else 'NOT GATED'}, "
              f"probe {'closed it' if closed else 'DID NOT CLOSE'}, "
              f"digest {'matches baseline' if digests_ok else 'DIVERGED'}")
    return ChaosOutcome(site="pool.breaker", spec=plan.spec(), ok=ok,
                        detail=detail, digests_ok=digests_ok)


def _run_cache_poison(*, seed, target, baseline, **_) -> ChaosOutcome:
    from ..mapping import MapperConfig
    from ..pipeline import TreeCache

    try:
        import numpy  # noqa: F401
        recovery_kernel = "soa"
    except ImportError:  # pragma: no cover - numpy is installed in CI
        recovery_kernel = "reference"

    clean = map_network(load_circuit(target), flow="soi")
    cache = TreeCache()
    # first run populates the cache fault-free (reference kernel)...
    map_network(load_circuit(target), flow="soi", cache=cache)
    plan = FaultPlan(seed=seed, rules=(FaultRule("cache.poison"),))
    previous = install(plan)
    try:
        # ...the second run's hits are poisoned and must be recomputed.
        # The recompute runs under the soa kernel (when available): the
        # recovery path must be bit-identical across kernels too.
        poisoned = map_network(load_circuit(target), flow="soi",
                               cache=cache,
                               config=MapperConfig(kernel=recovery_kernel))
    finally:
        install(previous)
    digests_ok = poisoned.circuit.digest() == clean.circuit.digest()
    evicted = cache.evictions > 0
    ok = digests_ok and evicted
    detail = (f"{cache.evictions} poisoned entries evicted"
              f"{'' if evicted else ' (EXPECTED > 0)'}, "
              f"recomputed under kernel={recovery_kernel}, "
              f"digest {'matches uncached run' if digests_ok else 'DIVERGED'}")
    return ChaosOutcome(site="cache.poison", spec=plan.spec(), ok=ok,
                        detail=detail, digests_ok=digests_ok)
