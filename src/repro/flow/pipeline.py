"""Declarative pass lists executed over a :class:`FlowContext`.

A :class:`FlowPipeline` is a validated sequence of registered passes.
Validation is static: walking the list from the initial artifacts, every
pass's ``requires`` must be provided by an earlier pass (or be present
at the start), so a misassembled flow fails before any work happens.

Execution opens one :class:`~repro.obs.Span` per pass on the context's
tracer and records one :class:`PassRecord` — wall-clock time (the
span's duration), the movement of every
:class:`~repro.pipeline.MappingStats` counter during the pass, and the
pass's own structured diagnostics.  Records surface on
:attr:`FlowResult.passes`, ``soidomino map --json``, and the bench
harness; the span tree surfaces on :attr:`FlowResult.trace` and the
CLI's ``--trace FILE`` exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..errors import FlowError
from .context import ARTIFACTS, FlowContext
from .passes import Pass, get_pass

#: Pass statuses a record can carry.
PASS_STATUSES = ("ok", "skipped")


@dataclass
class PassRecord:
    """Observability record of one pass execution.

    ``status`` is ``"ok"`` for a pass that ran and ``"skipped"`` for one
    whose :meth:`Pass.skip_reason` declined (reason in ``detail``).
    """

    name: str
    status: str = "ok"
    detail: Optional[str] = None
    elapsed_s: float = 0.0
    #: non-zero MappingStats counter movement during this pass
    stats_delta: Dict[str, float] = field(default_factory=dict)
    #: the pass's own structured diagnostics
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


class FlowPipeline:
    """An ordered, validated list of passes.

    Parameters
    ----------
    passes:
        Pass names (resolved in the registry) or :class:`Pass` instances.
    name:
        Flow label carried into records and error messages.
    initial:
        Artifacts the caller provides before the first pass runs
        (default: just ``network``).
    """

    def __init__(self, passes: Sequence[Union[str, Pass]],
                 name: str = "custom",
                 initial: Sequence[str] = ("network",)):
        if not passes:
            raise FlowError("a flow pipeline needs at least one pass")
        self.name = name
        self.passes: List[Pass] = [
            p if isinstance(p, Pass) else get_pass(p) for p in passes]
        self.initial = tuple(initial)
        self.validate()

    @property
    def pass_names(self) -> List[str]:
        return [p.name for p in self.passes]

    def validate(self) -> None:
        """Check the artifact chain (and name uniqueness) statically."""
        seen = set()
        for p in self.passes:
            if p.name in seen:
                raise FlowError(
                    f"flow {self.name!r}: pass {p.name!r} listed twice")
            seen.add(p.name)
        available = set(self.initial)
        for artifact in available:
            if artifact not in ARTIFACTS:
                raise FlowError(f"unknown initial artifact {artifact!r}")
        for p in self.passes:
            for artifact in (*p.requires, *p.provides):
                if artifact not in ARTIFACTS:
                    raise FlowError(
                        f"pass {p.name!r} declares unknown artifact "
                        f"{artifact!r}")
            missing = [a for a in p.requires if a not in available]
            if missing:
                raise FlowError(
                    f"flow {self.name!r}: pass {p.name!r} requires "
                    f"{', '.join(missing)} but no earlier pass provides "
                    f"it (available: {', '.join(sorted(available)) or '-'})")
            available.update(p.provides)
            # the decompose short-circuit publishes the unate network
            # early; account for conditional provides declared nowhere
            available.update(_CONDITIONAL_PROVIDES.get(p.name, ()))

    # -- execution -------------------------------------------------------
    def run(self, ctx: FlowContext) -> List[PassRecord]:
        """Execute the pipeline over ``ctx``; returns per-pass records."""
        records: List[PassRecord] = []
        for p in self.passes:
            for artifact in p.requires:
                if not ctx.has(artifact):
                    raise FlowError(
                        f"pass {p.name!r} requires artifact {artifact!r} "
                        f"which is not available at run time")
            reason = p.skip_reason(ctx)
            if reason is not None:
                records.append(PassRecord(name=p.name, status="skipped",
                                          detail=reason))
            else:
                # the span covers the pass's own bookkeeping too (stats
                # snapshot/delta, artifact checks): pass spans should
                # tile the flow span, leaving only loop overhead in the
                # gaps between them.
                with ctx.tracer.span(p.name, category="pass",
                                     flow=ctx.flow) as span:
                    before = ctx.snapshot_stats()
                    diagnostics = p.run(ctx) or {}
                    for artifact in p.provides:
                        if not ctx.has(artifact):
                            raise FlowError(
                                f"pass {p.name!r} declared artifact "
                                f"{artifact!r} but did not set it")
                    delta = ctx.stats_delta(before)
                if delta:
                    span.attributes["stats_delta"] = dict(delta)
                records.append(PassRecord(
                    name=p.name, elapsed_s=span.duration_s,
                    stats_delta=delta,
                    diagnostics=diagnostics))
        return records

    def __repr__(self) -> str:
        return f"FlowPipeline({self.name!r}: {' -> '.join(self.pass_names)})"


#: Artifacts a pass may set beyond its declared provides, keyed by pass
#: name (the decompose short-circuit for already-mappable networks).
_CONDITIONAL_PROVIDES = {"decompose": ("unate_network", "unate_report")}
