"""Pass-manager flow architecture (see DESIGN.md section 9).

The mapping stack is a pipeline of named passes over typed artifacts:

* :mod:`repro.flow.context` — the artifact schema (:data:`ARTIFACTS`)
  and the :class:`FlowContext` blackboard passes transform;
* :mod:`repro.flow.passes` — the stages (decompose, sweep, unate,
  dp-map, rearrange, discharge, analyze) and the :data:`PASS_REGISTRY`;
* :mod:`repro.flow.pipeline` — :class:`FlowPipeline`, which validates a
  declarative pass list and executes it with per-pass wall-clock,
  stats-delta and diagnostic records (:class:`PassRecord`).

:func:`repro.mapping.map_network` assembles these for the paper's three
flow presets; this package is the mechanism, presets are policy.
"""

from .context import ARTIFACTS, ArtifactSpec, FlowContext
from .passes import PASS_REGISTRY, Pass, available_passes, get_pass, register
from .pipeline import FlowPipeline, PassRecord

__all__ = [
    "ARTIFACTS",
    "ArtifactSpec",
    "FlowContext",
    "FlowPipeline",
    "PASS_REGISTRY",
    "Pass",
    "PassRecord",
    "available_passes",
    "get_pass",
    "register",
]
