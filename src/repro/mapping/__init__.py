"""Technology mapping: the paper's algorithms and their cost models."""

from .cost import AreaCost, ClockWeightedCost, CostModel, DepthCost
from .kernel import KernelProtocol
from .tuples import MapTuple, TupleTable
from .engine import (
    GateRecord,
    MapperConfig,
    MappingEngine,
    MappingPlan,
    MappingResult,
    PlannedGate,
    apply_rearrangement,
    materialize_plan,
)
from .flows import (
    FLOW_PASSES,
    FLOW_PRESETS,
    PAPER_H_MAX,
    PAPER_W_MAX,
    FlowResult,
    build_flow_pipeline,
    domino_map,
    flow_config,
    flow_passes,
    map_network,
    prepare_network,
    rs_map,
    soi_domino_map,
)

__all__ = [
    "AreaCost",
    "ClockWeightedCost",
    "CostModel",
    "DepthCost",
    "KernelProtocol",
    "MapTuple",
    "TupleTable",
    "GateRecord",
    "MapperConfig",
    "MappingEngine",
    "MappingPlan",
    "MappingResult",
    "PlannedGate",
    "apply_rearrangement",
    "materialize_plan",
    "map_network",
    "FLOW_PASSES",
    "FLOW_PRESETS",
    "PAPER_H_MAX",
    "PAPER_W_MAX",
    "FlowResult",
    "build_flow_pipeline",
    "domino_map",
    "flow_config",
    "flow_passes",
    "prepare_network",
    "rs_map",
    "soi_domino_map",
]
