"""The mapping stages as named, independently instrumented passes.

Each :class:`Pass` declares the artifacts it consumes and produces (the
pipeline validates the chain before running anything) and implements one
stage of the paper's recipe:

``decompose -> sweep -> unate -> dp-map -> rearrange -> discharge ->
analyze``

The front-end trio reproduces :func:`repro.mapping.flows.prepare_network`
exactly: a network that is already mappable short-circuits in
``decompose`` (which publishes it as the unate network directly), and
the downstream front-end passes skip.  The back-end trio is the staged
form of :meth:`MappingEngine.run` — DP, series-stack rearrangement,
discharge insertion — split at the :class:`MappingPlan` boundary so each
stage can be timed, skipped, or swapped on its own.

Passes are stateless: all run state lives on the :class:`FlowContext`.
They register themselves in :data:`PASS_REGISTRY` at import time;
``soidomino passes`` lists the registry.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..errors import FlowError
from ..mapping.engine import (
    MappingEngine,
    apply_rearrangement,
    materialize_plan,
)
from ..synth import decompose, sweep, unate_with_sweep
from .context import FlowContext

#: name -> Pass instance, in registration (= canonical pipeline) order.
PASS_REGISTRY: Dict[str, "Pass"] = {}


def register(pass_cls):
    """Class decorator: instantiate and register a pass by its name."""
    instance = pass_cls()
    if instance.name in PASS_REGISTRY:
        raise FlowError(f"duplicate pass name {instance.name!r}")
    PASS_REGISTRY[instance.name] = instance
    return pass_cls


def get_pass(name: str) -> "Pass":
    try:
        return PASS_REGISTRY[name]
    except KeyError:
        raise FlowError(
            f"unknown pass {name!r}; registered passes: "
            f"{', '.join(PASS_REGISTRY)}") from None


def available_passes() -> Tuple["Pass", ...]:
    """Registered passes in registration order."""
    return tuple(PASS_REGISTRY.values())


class Pass:
    """One named stage of a mapping flow.

    Subclasses set the class attributes and implement :meth:`run`; the
    pipeline handles timing, stats deltas and artifact validation around
    it.
    """

    #: registry name (kebab-case)
    name: str = ""
    #: artifacts read (must be available when the pass runs)
    requires: Tuple[str, ...] = ()
    #: artifacts written (checked present after a non-skipped run)
    provides: Tuple[str, ...] = ()
    #: one-line human description (``soidomino passes``)
    description: str = ""

    def skip_reason(self, ctx: FlowContext) -> Optional[str]:
        """Why this pass will not run for ``ctx`` (None = it runs)."""
        return None

    def run(self, ctx: FlowContext) -> Dict[str, object]:
        """Execute the stage; returns structured diagnostics."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"<Pass {self.name}: {', '.join(self.requires) or '-'} -> "
                f"{', '.join(self.provides) or '-'}>")


def _frontend_done(ctx: FlowContext) -> Optional[str]:
    if ctx.has("unate_network"):
        return "unate network already available"
    return None


@register
class DecomposePass(Pass):
    name = "decompose"
    requires = ("network",)
    provides = ("network",)
    description = ("decompose arbitrary-fanin gates to 2-input AND/OR + "
                   "INV (publishes an already-mappable input as the unate "
                   "network directly)")

    def skip_reason(self, ctx):
        return _frontend_done(ctx)

    def run(self, ctx):
        network = ctx.get("network")
        if network.is_mappable():
            # prepare_network's short-circuit: the input is already a
            # unate 2-input AND/OR network; the front end must not touch
            # it (sweep could dedup nodes and change the mapped netlist).
            ctx.set("unate_network", network)
            ctx.set("unate_report", None)
            return {"already_mappable": True}
        before = len(network)
        decomposed = decompose(network)
        ctx.set("network", decomposed)
        return {"already_mappable": False, "nodes_before": before,
                "nodes_after": len(decomposed)}


@register
class SweepPass(Pass):
    name = "sweep"
    requires = ("network",)
    provides = ("network",)
    description = "propagate constants, drop dead logic, dedup gates"

    def skip_reason(self, ctx):
        return _frontend_done(ctx)

    def run(self, ctx):
        network = ctx.get("network")
        before = len(network)
        swept = sweep(network)
        ctx.set("network", swept)
        return {"nodes_before": before, "nodes_after": len(swept)}


@register
class UnatePass(Pass):
    name = "unate"
    requires = ("network",)
    provides = ("unate_network", "unate_report")
    description = ("bubble-pushing unate conversion (with a final sweep) "
                   "to the 2-input AND/OR network the DP maps")

    def skip_reason(self, ctx):
        return _frontend_done(ctx)

    def run(self, ctx):
        unate, report = unate_with_sweep(ctx.get("network"))
        ctx.set("unate_network", unate)
        ctx.set("unate_report", report)
        return {"unate_gates": report.unate_gates,
                "duplication_ratio": report.duplication_ratio,
                "negated_pis": report.negated_pis}


@register
class DPMapPass(Pass):
    name = "dp-map"
    requires = ("unate_network",)
    provides = ("plan",)
    description = ("the {W,H} tuple dynamic program: per-node tables, "
                   "gate formation, gate selection into a mapping plan")

    def run(self, ctx):
        engine = MappingEngine(ctx.get("unate_network"), ctx.cost_model,
                               ctx.config, cache=ctx.cache, stats=ctx.stats,
                               tracer=ctx.tracer, metrics=ctx.metrics)
        plan = engine.run_to_plan()
        ctx.set("plan", plan)
        return {"gates_selected": len(plan.gates),
                "pbe_aware": ctx.config.pbe_aware,
                "ordering": ctx.config.ordering}


@register
class RearrangePass(Pass):
    name = "rearrange"
    requires = ("plan",)
    provides = ("plan",)
    description = ("RS_Map post-processing: sink parallel stacks toward "
                   "ground in every selected gate")

    def skip_reason(self, ctx):
        if not ctx.config.rearrange_gates:
            return "config.rearrange_gates is off"
        return None

    def run(self, ctx):
        rewritten = apply_rearrangement(ctx.get("plan"))
        return {"gates_rearranged": rewritten}


@register
class DischargePass(Pass):
    name = "discharge"
    requires = ("plan",)
    provides = ("mapping",)
    description = ("insert the discharge transistors the ground policy "
                   "demands and assemble the domino circuit")

    def run(self, ctx):
        mapping = materialize_plan(ctx.get("plan"))
        ctx.set("mapping", mapping)
        return {"gates": len(mapping.circuit),
                "ground_policy": ctx.config.ground_policy}


@register
class AnalyzePass(Pass):
    name = "analyze"
    requires = ("mapping",)
    provides = ("mapping",)
    description = ("cost/analysis readout: transistor accounting of the "
                   "mapped circuit (pure diagnostics, no transforms)")

    def run(self, ctx):
        cost = ctx.get("mapping").cost
        return dict(cost.as_dict())
