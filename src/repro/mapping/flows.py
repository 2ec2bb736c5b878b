"""End-to-end mapping flows: the three algorithms compared in the paper.

:func:`map_network` is the single entry point: it assembles a
:class:`~repro.flow.FlowPipeline` for the requested flow and executes it
over a typed :class:`~repro.flow.FlowContext` — synthesis front end
(decompose -> sweep -> unate conversion), the DP mapper, and the
post-processing stages (series-stack rearrangement, discharge
insertion, cost analysis) each run as a named, individually timed pass.
The returned :class:`FlowResult` carries the mapped circuit, the
front-end report, instrumentation counters, per-pass records, and the
wall-clock time.

The paper's three algorithms are declarative presets over it:

* ``domino`` — the bulk-CMOS baseline (discharge transistors added by
  post-processing only, invisible to the optimizer);
* ``rs``     — baseline + series-stack rearrangement post-processing
  (Table I's ``RS_Map``);
* ``soi``    — the paper's PBE-aware algorithm (Table II-IV's
  ``SOI_Domino_Map``).

A preset pins two things: the :class:`MapperConfig` fields that define
the algorithm (:data:`FLOW_PRESETS`) and the pass list it executes
(:data:`FLOW_PASSES`).  All three share the one synthesis front end, so
for a given circuit they map the *same* unate network — exactly the
paper's experimental setup.  The batch pipeline (:mod:`repro.pipeline`)
dispatches on the preset names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..domino.circuit import CircuitCost
from ..errors import MappingError
from ..network import LogicNetwork
from ..pipeline.metrics import MappingStats
from ..synth import UnateReport, decompose, sweep, unate_with_sweep
from .cost import CostModel
from .engine import MapperConfig, MappingResult

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

#: Shared synthesis front end (identical across flows, by construction).
FRONTEND_PASSES: Tuple[str, ...] = ("decompose", "sweep", "unate")

#: The pass list each preset executes.  ``domino`` and ``soi`` omit the
#: rearrangement stage their configs disable anyway; ``custom`` (the
#: ``flow=None`` path) keeps it, gated on ``config.rearrange_gates``.
FLOW_PASSES: Dict[str, Tuple[str, ...]] = {
    "domino": (*FRONTEND_PASSES, "dp-map", "discharge", "analyze"),
    "rs": (*FRONTEND_PASSES, "dp-map", "rearrange", "discharge", "analyze"),
    "soi": (*FRONTEND_PASSES, "dp-map", "discharge", "analyze"),
    "custom": (*FRONTEND_PASSES, "dp-map", "rearrange", "discharge",
               "analyze"),
}


def flow_passes(flow: Optional[str]) -> Tuple[str, ...]:
    """The pass list of a named flow (``None`` -> the custom list)."""
    try:
        return FLOW_PASSES[flow or "custom"]
    except KeyError:
        raise MappingError(
            f"unknown flow {flow!r}; expected one of "
            f"{', '.join(FLOW_PRESETS)}") from None


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
    passes: List = field(default_factory=list)
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
        ``circuit``, ``flow``, ``stats``, ``timings``); the pre-obs
        keys survive as aliases.
        """
        from ..obs import flow_report

        return flow_report(self)


def prepare_network(network: LogicNetwork):
    """Run the synthesis front end; returns ``(unate_network, report)``.

    The result satisfies ``unate_network.is_mappable()`` and is the common
    input handed to all three mappers.  (The flow pipeline's front-end
    passes execute this exact recipe stage by stage.)
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


def build_flow_pipeline(flow: Optional[str] = None,
                        passes: Optional[Sequence[str]] = None):
    """The :class:`~repro.flow.FlowPipeline` a flow invocation executes.

    ``passes`` overrides the preset's pass list (power users composing
    their own stage sequence); the default is :func:`flow_passes`.
    """
    from ..flow import FlowPipeline

    return FlowPipeline(passes if passes is not None else flow_passes(flow),
                        name=flow or "custom")


def map_network(network: LogicNetwork,
                flow: Optional[str] = None,
                cost_model: Optional[CostModel] = None,
                config: Optional[MapperConfig] = None,
                *,
                w_max: int = PAPER_W_MAX,
                h_max: int = PAPER_H_MAX,
                cache=None,
                stats: Optional[MappingStats] = None,
                passes: Optional[Sequence[str]] = None,
                tracer=None,
                metrics=None,
                prepared: Optional[Tuple[LogicNetwork,
                                         Optional[UnateReport]]] = None
                ) -> FlowResult:
    """Map ``network`` end-to-end: the unified entry point.

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
    cache:
        Optional :class:`~repro.pipeline.TreeCache` shared across runs.
    stats:
        Optional :class:`~repro.pipeline.MappingStats` to accumulate into.
    passes:
        Optional explicit pass list overriding the flow's preset.
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
        :attr:`FlowResult.unate_report` give it.  The front-end passes
        then skip and the DP maps that network.  The front end reads
        only the network, so one result serves every flow and config.
    """
    if isinstance(flow, CostModel):
        # removed in 0.5 (was a pre-1.1 deprecation shim): the second
        # positional argument is the flow name
        raise TypeError(
            "map_network() no longer accepts a CostModel as its second "
            "positional argument; pass cost_model=... by keyword")
    from ..flow import FlowContext
    from ..obs import MetricsRegistry, Tracer

    started = time.perf_counter()
    effective = flow_config(flow, config, w_max=w_max, h_max=h_max)
    model = cost_model if cost_model is not None else CostModel()
    pipeline = build_flow_pipeline(flow, passes)
    tracer = tracer if tracer is not None else Tracer()
    metrics = metrics if metrics is not None else MetricsRegistry()
    ctx = FlowContext.for_network(network, effective, model,
                                  flow=flow or "custom", cache=cache,
                                  stats=stats, tracer=tracer,
                                  metrics=metrics)
    before = replace(ctx.stats)
    if prepared is not None:
        ctx.set("unate_network", prepared[0])
        ctx.set("unate_report", prepared[1])
    with tracer.span(f"flow:{network.name}", category="flow",
                     circuit=network.name,
                     flow=flow or "custom") as flow_span:
        records = pipeline.run(ctx)
    metrics.record_mapping_stats(ctx.stats.since(before))
    return FlowResult(mapping=ctx.get("mapping"),
                      unate_report=ctx.artifacts.get("unate_report"),
                      flow=flow or "custom",
                      elapsed_s=time.perf_counter() - started,
                      passes=records,
                      trace=flow_span,
                      metrics=metrics,
                      unate_network=ctx.artifacts.get("unate_network"))


def domino_map(network: LogicNetwork,
               cost_model: Optional[CostModel] = None,
               w_max: int = PAPER_W_MAX, h_max: int = PAPER_H_MAX,
               config: Optional[MapperConfig] = None,
               cache=None) -> FlowResult:
    """The bulk-CMOS baseline ``Domino_Map``.

    The DP ignores discharge points entirely; the materialized gates then
    receive the p-discharge transistors that the structural PBE analysis
    demands (the paper's post-processing step).
    """
    return map_network(network, flow="domino", cost_model=cost_model,
                       config=config, w_max=w_max, h_max=h_max, cache=cache)


def rs_map(network: LogicNetwork,
           cost_model: Optional[CostModel] = None,
           w_max: int = PAPER_W_MAX, h_max: int = PAPER_H_MAX,
           config: Optional[MapperConfig] = None,
           cache=None) -> FlowResult:
    """``RS_Map``: the baseline plus series-stack rearrangement.

    Identical DP to :func:`domino_map`, but every selected gate is
    post-processed by the ``rearrange`` pass
    (:func:`repro.domino.rearrange.rearrange`) before the discharge
    transistors are inserted, sinking parallel stacks toward ground
    (Table I).
    """
    return map_network(network, flow="rs", cost_model=cost_model,
                       config=config, w_max=w_max, h_max=h_max, cache=cache)


def soi_domino_map(network: LogicNetwork,
                   cost_model: Optional[CostModel] = None,
                   w_max: int = PAPER_W_MAX, h_max: int = PAPER_H_MAX,
                   config: Optional[MapperConfig] = None,
                   cache=None) -> FlowResult:
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
                       config=config, w_max=w_max, h_max=h_max, cache=cache)
