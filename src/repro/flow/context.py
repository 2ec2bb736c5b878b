"""Typed artifacts and the shared context flow passes operate on.

A :class:`FlowContext` is the blackboard of one flow run: passes read
and write named **artifacts** (the evolving logic network, the unate
network, the mapping plan, the mapped result), and the pipeline checks
every read and write against the declared :data:`ARTIFACTS` schema — a
pass cannot silently publish the wrong type or consume an artifact that
no earlier pass provides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..errors import FlowError
from ..mapping.cost import CostModel
from ..mapping.engine import MapperConfig, MappingPlan, MappingResult
from ..network import LogicNetwork
from ..obs import MetricsRegistry, Tracer
from ..pipeline.metrics import MappingStats
from ..synth import UnateReport


@dataclass(frozen=True)
class ArtifactSpec:
    """Declared name, type, and meaning of one flow artifact."""

    name: str
    type: type
    description: str
    #: optional artifacts may legitimately hold ``None`` (e.g. the unate
    #: report of a network that needed no conversion)
    optional: bool = False


#: The artifact schema every pipeline is validated against.
ARTIFACTS: Dict[str, ArtifactSpec] = {
    spec.name: spec for spec in (
        ArtifactSpec("network", LogicNetwork,
                     "the evolving logic network (raw -> decomposed -> "
                     "swept)"),
        ArtifactSpec("unate_network", LogicNetwork,
                     "the unate 2-input AND/OR network the DP maps"),
        ArtifactSpec("unate_report", UnateReport,
                     "unate-conversion statistics (None when the input "
                     "was already mappable)", optional=True),
        ArtifactSpec("plan", MappingPlan,
                     "the DP's gate selection, before post-processing"),
        ArtifactSpec("mapping", MappingResult,
                     "the materialized domino circuit and its records"),
    )
}


@dataclass
class FlowContext:
    """Shared state of one flow-pipeline execution.

    The *configuration* fields (flow name, mapper config, cost model,
    cache, stats) are fixed for the run; the *artifacts* dict is what
    passes transform.  Artifact access goes through :meth:`get` /
    :meth:`set`, which enforce the :data:`ARTIFACTS` schema.
    """

    config: MapperConfig
    cost_model: CostModel
    flow: str = "custom"
    cache: Any = None
    stats: MappingStats = field(default_factory=MappingStats)
    #: span tracer the pipeline (pass spans) and engine (node spans)
    #: record into; always present so instrumentation never branches
    tracer: Tracer = field(default_factory=Tracer)
    #: typed metrics registry the run publishes into
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    artifacts: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def for_network(cls, network: LogicNetwork, config: MapperConfig,
                    cost_model: CostModel, *, flow: str = "custom",
                    cache: Any = None,
                    stats: Optional[MappingStats] = None,
                    tracer: Optional[Tracer] = None,
                    metrics: Optional[MetricsRegistry] = None
                    ) -> "FlowContext":
        """The standard starting context: one ``network`` artifact."""
        ctx = cls(config=config, cost_model=cost_model, flow=flow,
                  cache=cache,
                  stats=stats if stats is not None else MappingStats(),
                  tracer=tracer if tracer is not None else Tracer(),
                  metrics=(metrics if metrics is not None
                           else MetricsRegistry()))
        ctx.set("network", network)
        return ctx

    # -- artifact access -------------------------------------------------
    def has(self, name: str) -> bool:
        return name in self.artifacts

    def get(self, name: str) -> Any:
        spec = _spec(name)
        try:
            return self.artifacts[name]
        except KeyError:
            raise FlowError(
                f"artifact {spec.name!r} is not available; no completed "
                f"pass provided it") from None

    def set(self, name: str, value: Any) -> None:
        spec = _spec(name)
        if value is None:
            if not spec.optional:
                raise FlowError(f"artifact {name!r} cannot be None")
        elif not isinstance(value, spec.type):
            raise FlowError(
                f"artifact {name!r} must be {spec.type.__name__}, "
                f"got {type(value).__name__}")
        self.artifacts[name] = value

    def snapshot_stats(self) -> Tuple[float, ...]:
        """Flat copy of the stats counters (for per-pass deltas)."""
        from dataclasses import astuple

        return astuple(self.stats)

    def stats_delta(self, before: Tuple[float, ...]) -> Dict[str, float]:
        """Non-zero counter movement since ``before``, by field name."""
        from dataclasses import fields

        after = self.snapshot_stats()
        return {f.name: now - then
                for f, then, now in zip(fields(self.stats), before, after)
                if now != then}


def _spec(name: str) -> ArtifactSpec:
    try:
        return ARTIFACTS[name]
    except KeyError:
        raise FlowError(
            f"unknown artifact {name!r}; declared artifacts: "
            f"{', '.join(sorted(ARTIFACTS))}") from None
