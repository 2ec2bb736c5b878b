"""The traced pass: each mapping stage called directly and timed from here.

:func:`staged_task` replays what ``map_network`` does for one task —
input, the ``decompose``/``sweep``/``unate`` front end (with its
already-mappable short-circuit), ``MappingEngine.run_dp``, ``plan``,
rearrangement, discharge insertion, ``digest`` — with one layer span
around each call.  No pass manager, tracer or metrics registry runs
inside the program, so the untraced per-task time minus the sum of
these spans is what that in-program machinery costs (``flow.overhead_s``).

The ``*_layers`` helpers turn a traced pass into per-layer metrics: from
the spans and engine stats of a staged pass, or from the worker-side
``pass_times`` and ``stats`` that pooled workloads get back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro import (CostModel, MapperConfig, MappingEngine, decompose,
                   flow_config, sweep, unate_with_sweep)
from repro.bench_suite import load_circuit
from repro.io import load_blif
from repro.mapping import apply_rearrangement, materialize_plan
from repro.pipeline import MappingStats

from .harness import LAYER, layer_coverage_s, layer_totals, ratio


def load_input(source: str):
    """A registry circuit by name, or a BLIF file by path."""
    return load_blif(source) if source.endswith(".blif") else \
        load_circuit(source)


@dataclass
class StagedResult:
    # counts only: holding every mapped circuit would grow the heap the
    # garbage collector scans and slow the tasks that follow
    digest: str
    gates: int
    stats: MappingStats
    unate_nodes: int


def staged_task(tracer, source: str, flow: str,
                config: Optional[MapperConfig] = None) -> StagedResult:
    """Map one task stage by stage, one layer span per call."""
    def span(name: str):
        return tracer.span(name, LAYER)

    with span("input.load"):
        network = load_input(source)
    if network.is_mappable():
        unate = network
    else:
        with span("synth.decompose"):
            network = decompose(network)
        with span("synth.sweep"):
            network = sweep(network)
        with span("synth.unate"):
            unate, _ = unate_with_sweep(network)
    effective = flow_config(flow, config)
    with span("dp.run"):
        engine = MappingEngine(unate, CostModel(), effective)
        engine.run_dp()
    with span("dp.plan"):
        plan = engine.plan()
    if effective.rearrange_gates:
        with span("domino.rearrange"):
            apply_rearrangement(plan)
    with span("domino.materialize"):
        mapping = materialize_plan(plan)
    with span("domino.digest"):
        digest = mapping.circuit.digest()
    return StagedResult(digest=digest, gates=len(mapping.circuit),
                        stats=engine.stats, unate_nodes=len(unate))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------
def dp_counters(stats: MappingStats) -> Dict[str, float]:
    """The DP work counters and ratios of (merged) engine stats."""
    routed = stats.auto_routed_soa + stats.auto_routed_reference
    return {
        "dp.combine_s": stats.combine_time_s,
        "dp.tuples_created": stats.tuples_created,
        "dp.kept_ratio": ratio(stats.tuples_kept, stats.tuples_created),
        "dp.bound_skip_ratio": ratio(stats.bound_skips,
                                     stats.tuples_created),
        "dp.combine_calls": stats.combine_calls,
        "dp.tuples_per_combine_s": ratio(stats.tuples_created,
                                         stats.combine_time_s),
        "dp.soa_routed_ratio": ratio(stats.auto_routed_soa, routed),
        "dp.soa_candidates": stats.soa_candidates,
        "dp.gate_formations": stats.gate_formations,
    }


def merged_stats(stats: Iterable) -> MappingStats:
    """Merge engine stats given as objects or ``as_dict()`` payloads."""
    total = MappingStats()
    for item in stats:
        if isinstance(item, dict):
            item = MappingStats(**{k: v for k, v in item.items()
                                   if k in MappingStats.__dataclass_fields__})
        total.merge(item)
    return total


def tiling(root) -> Dict[str, float]:
    """How much of the traced wall the layer spans account for."""
    covered = layer_coverage_s(root)
    return {"unattributed_s": root.duration_s - covered,
            "tiling_ratio": ratio(covered, root.duration_s)}


def staged_layers(root, results: List[StagedResult],
                  untraced_task_s: float, untraced_wall_s: float
                  ) -> Dict[str, float]:
    """Layer metrics of a staged traced pass rooted at ``root``."""
    totals = layer_totals(root)
    stats = merged_stats(r.stats for r in results)
    metrics = {
        "input.load_s": totals.get("input.load", 0.0),
        "synth.decompose_s": totals.get("synth.decompose", 0.0),
        "synth.sweep_s": totals.get("synth.sweep", 0.0),
        "synth.unate_s": totals.get("synth.unate", 0.0),
        "synth.nodes_out": sum(r.unate_nodes for r in results),
        "dp.run_s": totals.get("dp.run", 0.0),
        "dp.plan_s": totals.get("dp.plan", 0.0),
        "domino.rearrange_s": totals.get("domino.rearrange", 0.0),
        "domino.materialize_s": totals.get("domino.materialize", 0.0),
        "domino.digest_s": totals.get("domino.digest", 0.0),
        "domino.gates": sum(r.gates for r in results),
        "flow.overhead_s": untraced_task_s - sum(totals.values()),
        "obs.trace_overhead_ratio": ratio(root.duration_s,
                                          untraced_wall_s) - 1.0,
    }
    metrics.update(dp_counters(stats))
    metrics["dp.noncombine_s"] = metrics["dp.run_s"] - stats.combine_time_s
    metrics.update(tiling(root))
    return metrics


def pooled_layers(tasks: List[Tuple[float, Dict[str, float], object, int]]
                  ) -> Dict[str, float]:
    """Layer metrics read back from pool workers.

    Each task is ``(elapsed_s, pass_times, stats, gates)`` as a worker
    reported it.  ``dp-map`` covers both the DP and plan selection, so
    ``dp.run_s`` includes the plan here and ``dp.plan_s`` stays 0; the
    input load and digest run outside the flow passes and land in
    ``flow.overhead_s``.
    """
    passes: Dict[str, float] = {}
    overhead = 0.0
    for elapsed, pass_times, _, _ in tasks:
        for name, seconds in pass_times.items():
            passes[name] = passes.get(name, 0.0) + seconds
        overhead += elapsed - sum(pass_times.values())
    stats = merged_stats(task[2] for task in tasks)
    metrics = {
        "synth.decompose_s": passes.get("decompose", 0.0),
        "synth.sweep_s": passes.get("sweep", 0.0),
        "synth.unate_s": passes.get("unate", 0.0),
        "dp.run_s": passes.get("dp-map", 0.0),
        "domino.rearrange_s": passes.get("rearrange", 0.0),
        "domino.materialize_s": (passes.get("discharge", 0.0)
                                 + passes.get("analyze", 0.0)),
        "domino.gates": sum(task[3] for task in tasks),
        "flow.overhead_s": overhead,
        "cache.tree_hit_ratio": stats.cache_hit_rate,
    }
    metrics.update(dp_counters(stats))
    metrics["dp.noncombine_s"] = metrics["dp.run_s"] - stats.combine_time_s
    return metrics
