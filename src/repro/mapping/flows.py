"""End-to-end mapping flows: the three algorithms compared in the paper.

:func:`map_network` is the single entry point: one fixed loop over the
requested flow's stage list (:data:`FLOW_PASSES`) — synthesis front end
(decompose -> sweep -> unate conversion), the DP mapper, and the
post-processing stages (series-stack rearrangement, discharge
insertion, cost analysis) — each stage a named, individually timed
pass with its own :class:`PassRecord`.  The returned
:class:`FlowResult` carries the mapped circuit, the front-end report,
instrumentation counters, per-pass records, and the wall-clock time.

The paper's three algorithms are declarative presets over it:

* ``domino`` — the bulk-CMOS baseline (discharge transistors added by
  post-processing only, invisible to the optimizer);
* ``rs``     — baseline + series-stack rearrangement post-processing
  (Table I's ``RS_Map``);
* ``soi``    — the paper's PBE-aware algorithm (Table II-IV's
  ``SOI_Domino_Map``).

A preset pins two things: the :class:`MapperConfig` fields that define
the algorithm (:data:`FLOW_PRESETS`) and the stage list it runs
(:data:`FLOW_PASSES`).  All three share the one synthesis front end, so
for a given circuit they map the *same* unate network — exactly the
paper's experimental setup.  The batch pipeline (:mod:`repro.pipeline`)
dispatches on the preset names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Tuple

from ..domino.circuit import CircuitCost
from ..errors import MappingError
from ..network import LogicNetwork
from ..pipeline.metrics import MappingStats
from ..synth import UnateReport, decompose, sweep, unate_with_sweep
from .cost import CostModel
from .engine import (
    MapperConfig,
    MappingEngine,
    MappingResult,
    apply_rearrangement,
    materialize_plan,
)

#: The paper's pulldown limits (section VI).
PAPER_W_MAX = 5
PAPER_H_MAX = 8

#: Named flow presets: the MapperConfig fields each flow pins.  A preset
#: only fixes what *defines* the flow; everything else stays caller
#: controlled through ``config=``.
FLOW_PRESETS: Dict[str, Dict[str, object]] = {
    "domino": {"pbe_aware": False, "ordering": "adverse",
               "rearrange_gates": False},
    "rs": {"pbe_aware": False, "ordering": "adverse",
           "rearrange_gates": True},
    "soi": {"pbe_aware": True},
}

#: Stage name -> one-line description, in stage order (``soidomino
#: passes`` lists it).
PASS_DESCRIPTIONS: Dict[str, str] = {
    "decompose": ("decompose arbitrary-fanin gates to 2-input AND/OR + "
                  "INV (publishes an already-mappable input as the unate "
                  "network directly)"),
    "sweep": "propagate constants, drop dead logic, dedup gates",
    "unate": ("bubble-pushing unate conversion (with a final sweep) "
              "to the 2-input AND/OR network the DP maps"),
    "dp-map": ("the {W,H} tuple dynamic program: per-node tables, "
               "gate formation, gate selection into a mapping plan"),
    "rearrange": ("RS_Map post-processing: sink parallel stacks toward "
                  "ground in every selected gate"),
    "discharge": ("insert the discharge transistors the ground policy "
                  "demands and assemble the domino circuit"),
    "analyze": ("cost/analysis readout: transistor accounting of the "
                "mapped circuit (pure diagnostics, no transforms)"),
}

#: Shared synthesis front end (identical across flows, by construction).
FRONTEND_PASSES: Tuple[str, ...] = ("decompose", "sweep", "unate")

#: The stage list each preset runs.  ``domino`` and ``soi`` omit the
#: rearrangement stage their configs disable anyway; ``custom`` (the
#: ``flow=None`` path) keeps it, gated on ``config.rearrange_gates``.
FLOW_PASSES: Dict[str, Tuple[str, ...]] = {
    "domino": (*FRONTEND_PASSES, "dp-map", "discharge", "analyze"),
    "rs": (*FRONTEND_PASSES, "dp-map", "rearrange", "discharge", "analyze"),
    "soi": (*FRONTEND_PASSES, "dp-map", "discharge", "analyze"),
    "custom": (*FRONTEND_PASSES, "dp-map", "rearrange", "discharge",
               "analyze"),
}


@dataclass
class PassRecord:
    """Observability record of one stage of a :func:`map_network` run.

    ``status`` is ``"ok"`` for a stage that ran and ``"skipped"`` for one
    that did not (reason in ``detail``): a front-end stage once a unate
    network is available, ``rearrange`` while
    ``config.rearrange_gates`` is off.
    """

    name: str
    status: str = "ok"
    detail: Optional[str] = None
    elapsed_s: float = 0.0
    #: the MappingStats counters that moved during this stage, valued as
    #: :meth:`~repro.pipeline.MappingStats.since` gives them
    stats_delta: Dict[str, float] = field(default_factory=dict)
    #: the stage's own structured diagnostics
    diagnostics: Dict[str, object] = field(default_factory=dict)

    @property
    def ran(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "name": self.name,
            "status": self.status,
            "elapsed_s": self.elapsed_s,
            "stats_delta": dict(self.stats_delta),
            "diagnostics": dict(self.diagnostics),
        }
        if self.detail is not None:
            data["detail"] = self.detail
        return data


@dataclass
class FlowResult:
    """A mapped circuit together with front-end reports and run metrics."""

    mapping: MappingResult
    unate_report: Optional[UnateReport]
    #: which preset produced this result ("custom" for raw configs)
    flow: str = "custom"
    #: wall-clock seconds for the whole flow (front end + mapping)
    elapsed_s: float = 0.0
    #: per-pass observability records, in execution order
    passes: List[PassRecord] = field(default_factory=list)
    #: root :class:`~repro.obs.Span` of the run (pass spans nested
    #: inside, thresholded node spans under ``dp-map``)
    trace: Optional[object] = None
    #: the run's :class:`~repro.obs.MetricsRegistry`, into which
    #: ``stats`` was published at the end of the run
    metrics: Optional[object] = None
    #: the unate network the DP mapped (with ``unate_report``, the
    #: front-end result another flow can start from via ``prepared=``)
    unate_network: Optional[LogicNetwork] = None

    @property
    def circuit(self):
        return self.mapping.circuit

    @property
    def cost(self) -> CircuitCost:
        return self.mapping.cost

    @property
    def stats(self) -> MappingStats:
        """Instrumentation counters of the mapping run."""
        return self.mapping.stats

    @property
    def config(self) -> MapperConfig:
        return self.mapping.config

    def pass_times(self) -> Dict[str, float]:
        """Pass name -> wall-clock seconds, for passes that ran."""
        return {r.name: r.elapsed_s for r in self.passes if r.ran}

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready rendering: the unified report schema.

        Delegates to :func:`repro.obs.report.flow_report`, so
        ``soidomino map --json``, ``batch --json`` and the bench
        payload all share top-level keys (``schema_version``,
        ``circuit``, ``flow``, ``stats``, ``timings``).
        """
        from ..obs import flow_report

        return flow_report(self)


def prepare_network(network: LogicNetwork):
    """Run the synthesis front end; returns ``(unate_network, report)``.

    The result satisfies ``unate_network.is_mappable()`` and is the common
    input handed to all three mappers.  (:func:`map_network`'s front-end
    stages run this exact recipe stage by stage.)
    """
    if network.is_mappable():
        return network, None
    cleaned = sweep(decompose(network))
    unate, report = unate_with_sweep(cleaned)
    return unate, report


def flow_config(flow: Optional[str],
                config: Optional[MapperConfig] = None,
                w_max: int = PAPER_W_MAX,
                h_max: int = PAPER_H_MAX) -> MapperConfig:
    """Resolve the effective :class:`MapperConfig` of a flow invocation.

    ``config`` supplies every knob (``w_max``/``h_max`` are only used
    when it is None); the named ``flow`` preset then pins the fields that
    define that algorithm.  ``flow=None`` applies no preset: the config
    is taken verbatim.
    """
    if config is None:
        config = MapperConfig(w_max=w_max, h_max=h_max)
    if flow is None:
        return config
    try:
        preset = FLOW_PRESETS[flow]
    except KeyError:
        raise MappingError(
            f"unknown flow {flow!r}; expected one of "
            f"{', '.join(FLOW_PRESETS)}") from None
    return replace(config, **preset)


def map_network(network: LogicNetwork,
                flow: Optional[str] = None,
                cost_model: Optional[CostModel] = None,
                config: Optional[MapperConfig] = None,
                *,
                w_max: int = PAPER_W_MAX,
                h_max: int = PAPER_H_MAX,
                stats: Optional[MappingStats] = None,
                tracer=None,
                metrics=None,
                prepared: Optional[Tuple[LogicNetwork,
                                         Optional[UnateReport]]] = None
                ) -> FlowResult:
    """Map ``network`` end-to-end: the unified entry point.

    Runs the flow's stages (:data:`FLOW_PASSES`) in order, one
    :class:`PassRecord` per stage on :attr:`FlowResult.passes`.

    Parameters
    ----------
    flow:
        Optional preset name (``"domino"``, ``"rs"``, ``"soi"``); None
        maps with ``config`` exactly as given (default
        :class:`MapperConfig`, which is the SOI paper configuration).
    cost_model:
        Objective; defaults to plain transistor area.
    config:
        The single source of truth for mapper knobs; a named flow pins
        only its defining fields on top of it.
    w_max, h_max:
        Convenience pulldown limits, used only when ``config`` is None.
    stats:
        Optional :class:`~repro.pipeline.MappingStats` to accumulate into.
    tracer:
        Optional :class:`~repro.obs.Tracer` to record into (the CLI
        passes one covering the whole invocation); a private tracer is
        created otherwise.  The run's root span — one ``flow`` span
        with nested pass and node spans — lands on
        :attr:`FlowResult.trace` either way.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` to publish into; a
        private registry is created otherwise and exposed on
        :attr:`FlowResult.metrics`.  The run's own
        :class:`~repro.pipeline.MappingStats` counters (what it added to
        ``stats``, which may carry earlier runs) are published into it
        once, at the end of the run; a registry shared by several runs
        accumulates their sum.
    prepared:
        Optional ``(unate_network, unate_report)``: the synthesis front
        end's result for ``network``, as :func:`prepare_network` or an
        earlier run's :attr:`FlowResult.unate_network` /
        :attr:`FlowResult.unate_report` give it.  The front-end stages
        then skip and the DP maps that network.  The front end reads
        only the network, so one result serves every flow and config.
    """
    if isinstance(flow, CostModel):
        # removed in 0.5 (was a pre-1.1 deprecation shim): the second
        # positional argument is the flow name
        raise TypeError(
            "map_network() no longer accepts a CostModel as its second "
            "positional argument; pass cost_model=... by keyword")
    from ..obs import MetricsRegistry, Tracer

    started = time.perf_counter()
    effective = flow_config(flow, config, w_max=w_max, h_max=h_max)
    model = cost_model if cost_model is not None else CostModel()
    flow_name = flow or "custom"
    tracer = tracer if tracer is not None else Tracer()
    metrics = metrics if metrics is not None else MetricsRegistry()
    stats = stats if stats is not None else MappingStats()
    before = replace(stats)
    current = network
    unate, report = prepared if prepared is not None else (None, None)
    plan = mapping = None
    records: List[PassRecord] = []
    with tracer.span(f"flow:{network.name}", category="flow",
                     circuit=network.name, flow=flow_name) as flow_span:
        for stage in FLOW_PASSES[flow_name]:
            if stage in FRONTEND_PASSES and unate is not None:
                records.append(PassRecord(
                    stage, "skipped", "unate network already available"))
                continue
            if stage == "rearrange" and not effective.rearrange_gates:
                records.append(PassRecord(
                    stage, "skipped", "config.rearrange_gates is off"))
                continue
            # the span covers the stats snapshot and delta too: pass
            # spans should tile the flow span, leaving only loop
            # overhead in the gaps between them.
            with tracer.span(stage, category="pass", flow=flow_name) as span:
                start = replace(stats)
                if stage == "decompose":
                    if current.is_mappable():
                        # prepare_network's short-circuit: the input is
                        # already a unate 2-input AND/OR network; the
                        # front end must not touch it (sweep could dedup
                        # nodes and change the mapped netlist).
                        unate = current
                        diagnostics = {"already_mappable": True}
                    else:
                        size = len(current)
                        current = decompose(current)
                        diagnostics = {"already_mappable": False,
                                       "nodes_before": size,
                                       "nodes_after": len(current)}
                elif stage == "sweep":
                    size = len(current)
                    current = sweep(current)
                    diagnostics = {"nodes_before": size,
                                   "nodes_after": len(current)}
                elif stage == "unate":
                    unate, report = unate_with_sweep(current)
                    diagnostics = {
                        "unate_gates": report.unate_gates,
                        "duplication_ratio": report.duplication_ratio,
                        "negated_pis": report.negated_pis}
                elif stage == "dp-map":
                    plan = MappingEngine(unate, model, effective,
                                         stats=stats, tracer=tracer,
                                         metrics=metrics).run_to_plan()
                    diagnostics = {"gates_selected": len(plan.gates),
                                   "pbe_aware": effective.pbe_aware,
                                   "ordering": effective.ordering}
                elif stage == "rearrange":
                    diagnostics = {
                        "gates_rearranged": apply_rearrangement(plan)}
                elif stage == "discharge":
                    mapping = materialize_plan(plan)
                    diagnostics = {"gates": len(mapping.circuit),
                                   "ground_policy": effective.ground_policy}
                else:  # analyze
                    diagnostics = dict(mapping.cost.as_dict())
                delta = _stats_delta(stats, start)
            if delta:
                span.attributes["stats_delta"] = dict(delta)
            records.append(PassRecord(stage, elapsed_s=span.duration_s,
                                      stats_delta=delta,
                                      diagnostics=diagnostics))
    metrics.record_mapping_stats(stats.since(before))
    return FlowResult(mapping=mapping,
                      unate_report=report,
                      flow=flow_name,
                      elapsed_s=time.perf_counter() - started,
                      passes=records,
                      trace=flow_span,
                      metrics=metrics,
                      unate_network=unate)


def _stats_delta(stats: MappingStats,
                 start: MappingStats) -> Dict[str, float]:
    """The counters that moved since ``start``, valued by ``since``.

    A max-merged counter reports its new maximum, not the difference of
    two maxima.
    """
    added = stats.since(start)
    return {f.name: getattr(added, f.name) for f in fields(stats)
            if getattr(stats, f.name) != getattr(start, f.name)}


def domino_map(network: LogicNetwork,
               cost_model: Optional[CostModel] = None,
               w_max: int = PAPER_W_MAX, h_max: int = PAPER_H_MAX,
               config: Optional[MapperConfig] = None) -> FlowResult:
    """The bulk-CMOS baseline ``Domino_Map``.

    The DP ignores discharge points entirely; the materialized gates then
    receive the p-discharge transistors that the structural PBE analysis
    demands (the paper's post-processing step).
    """
    return map_network(network, flow="domino", cost_model=cost_model,
                       config=config, w_max=w_max, h_max=h_max)


def rs_map(network: LogicNetwork,
           cost_model: Optional[CostModel] = None,
           w_max: int = PAPER_W_MAX, h_max: int = PAPER_H_MAX,
           config: Optional[MapperConfig] = None) -> FlowResult:
    """``RS_Map``: the baseline plus series-stack rearrangement.

    Identical DP to :func:`domino_map`, but every selected gate is
    post-processed by the ``rearrange`` pass
    (:func:`repro.domino.rearrange.rearrange`) before the discharge
    transistors are inserted, sinking parallel stacks toward ground
    (Table I).
    """
    return map_network(network, flow="rs", cost_model=cost_model,
                       config=config, w_max=w_max, h_max=h_max)


def soi_domino_map(network: LogicNetwork,
                   cost_model: Optional[CostModel] = None,
                   w_max: int = PAPER_W_MAX, h_max: int = PAPER_H_MAX,
                   config: Optional[MapperConfig] = None) -> FlowResult:
    """The paper's ``SOI_Domino_Map`` (listing 2).

    The ablation switches documented in DESIGN.md (``ordering``,
    ``ground_policy``, ``pareto``, ``duplication``) live on
    :class:`MapperConfig` and are passed via ``config=``; the defaults
    reproduce the paper.  ``duplication=False`` selects the
    duplication-free tree regime where the per-tree DP is exact — Table
    III's weighted-objective comparison uses it, because only for exact
    optima does raising the clock weight provably never increase the
    clock load.  (The pre-0.5 loose keyword spellings of those switches
    were removed on schedule.)
    """
    return map_network(network, flow="soi", cost_model=cost_model,
                       config=config, w_max=w_max, h_max=h_max)
