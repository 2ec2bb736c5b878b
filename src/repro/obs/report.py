"""The one JSON report schema behind ``map --json`` and ``batch --json``.

Every report shares the same top-level keys:

``schema_version``
    :data:`REPORT_SCHEMA_VERSION` — bump on breaking changes.
``kind``
    ``"map"`` or ``"batch"``.
``circuit`` / ``flow``
    The mapped circuit and flow preset (a single name for ``map``,
    the swept name lists for ``batch``).
``stats``
    The run's :class:`~repro.pipeline.MappingStats` record
    (``as_dict()``: every counter plus the derived ratios), or the
    merge of the runs' records for ``batch``.  The
    :class:`~repro.obs.MetricsRegistry` only exports these counters; a
    report never reads them back from it.
``timings``
    ``elapsed_s`` / ``wall_s`` plus a ``passes`` name→seconds map.

Beyond the header each surface carries its own payload: ``map`` adds
``config``, ``cost`` and the per-pass ``passes`` records (the only place
the report holds the full config, the circuit cost, and each pass's
record), and ``batch`` its per-task ``results``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Unified report format identifier; bump on breaking schema changes.
REPORT_SCHEMA_VERSION = "soidomino-report/3"

#: Top-level keys every report kind shares (tests pin these).
SHARED_REPORT_KEYS = ("schema_version", "kind", "circuit", "flow",
                      "stats", "timings")


def flow_report(result, *, cost_objective: Optional[str] = None,
                input_stats: Optional[Dict] = None,
                digest: Optional[str] = None) -> Dict[str, object]:
    """Unified report of one :class:`~repro.mapping.FlowResult`.

    The shared header and ``timings`` block, plus the run's kernel
    routing, ``config``, ``cost`` and per-pass records.
    """
    from dataclasses import asdict

    pass_seconds = result.pass_times()
    data: Dict[str, object] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "map",
        "circuit": result.circuit.name,
        "flow": result.flow,
        "stats": result.stats.as_dict(),
        "kernel": {
            "requested": result.config.kernel,
            "active": result.mapping.kernel,
            "routed": {
                "soa": result.stats.auto_routed_soa,
                "reference": result.stats.auto_routed_reference,
            },
        },
        "timings": {
            "elapsed_s": result.elapsed_s,
            "passes": pass_seconds,
        },
        "config": asdict(result.config),
        "cost": result.cost.as_dict(),
        "passes": [r.as_dict() for r in result.passes],
    }
    trace = getattr(result, "trace", None)
    if trace is not None:
        data["trace_summary"] = {
            "spans": trace.span_count(),
            "duration_s": trace.duration_s,
        }
    if result.unate_report is not None:
        report = asdict(result.unate_report)
        report["duplication_ratio"] = result.unate_report.duplication_ratio
        data["unate_report"] = report
    else:
        data["unate_report"] = None
    if cost_objective is not None:
        data["cost_objective"] = cost_objective
    if input_stats is not None:
        data["input"] = input_stats
    if digest is not None:
        data["digest"] = digest
    return data


def batch_report(report, *,
                 cost_objective: Optional[str] = None) -> Dict[str, object]:
    """Unified report of one :class:`~repro.pipeline.BatchReport`."""
    circuits: List[str] = []
    flows: List[str] = []
    entries: List[Dict[str, object]] = []
    for r in report.results:
        if r.task.circuit not in circuits:
            circuits.append(r.task.circuit)
        if r.task.flow not in flows:
            flows.append(r.task.flow)
        entry: Dict[str, object] = {
            "circuit": r.task.circuit,
            "flow": r.task.flow,
            "ok": r.ok,
            "stats": r.stats.as_dict() if r.stats is not None else None,
            "timings": {
                "elapsed_s": r.elapsed_s,
                "passes": dict(r.pass_times or {}),
            },
            "cost": r.cost.as_dict() if r.cost is not None else None,
            "digest": r.digest,
            "kernel": r.kernel,
            "mode": r.mode,
            "attempts": r.attempts,
        }
        if r.error is not None:
            entry["error"] = r.error
        entries.append(entry)
    pass_seconds: Dict[str, float] = {}
    for r in report.results:
        for name, seconds in (r.pass_times or {}).items():
            pass_seconds[name] = pass_seconds.get(name, 0.0) + seconds
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "batch",
        "circuit": circuits,
        "flow": flows,
        "stats": report.total_stats().as_dict(),
        "timings": {
            "wall_s": report.wall_s,
            "task_time_s": report.task_time_s,
            "passes": pass_seconds,
        },
        "mode": report.mode,
        "ok": report.ok,
        "cost_objective": cost_objective,
        "results": entries,
    }


def job_report(job) -> Dict[str, object]:
    """The ``job`` block of a service result payload.

    Identity plus durability evidence: execution attempts (1 for an
    uninterrupted run, 2+ when the journal re-enqueued it after a
    crash) and whether the job was recovered at daemon startup —
    everything a client needs to see that a result it received came
    from a replayed run rather than the original submission.
    """
    return {
        "id": job.id,
        "tenant": job.spec.tenant,
        "attempts": job.attempts,
        "recovered": job.recovered,
        "idempotency_key": job.spec.idempotency_key,
    }
