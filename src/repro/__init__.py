"""repro — reproduction of "Technology Mapping for SOI Domino Logic
Incorporating Solutions for the Parasitic Bipolar Effect"
(Karandikar & Sapatnekar, DAC 2001).

The package builds domino-logic implementations of random logic networks
for SOI technology, minimizing the clock-driven pmos pre-discharge
transistors required to suppress the Parasitic Bipolar Effect (PBE).

Quick start::

    from repro import network_from_expression, soi_domino_map

    net = network_from_expression("(A + B + C) * D")
    result = soi_domino_map(net)
    print(result.cost)

See README.md for the full tour and DESIGN.md for the system inventory.
"""

from .errors import (
    BatchDeadlineError,
    BenchmarkError,
    MappingError,
    NetworkError,
    ParseError,
    ReproError,
    ResourceLimitError,
    SimulationError,
    StructureError,
    UnateConversionError,
    WorkerCrashError,
    is_retryable,
)
from .network import (
    LogicNetwork,
    LogicNode,
    NodeType,
    network_from_expression,
    network_from_expressions,
    network_stats,
)
from .synth import decompose, sweep, unate_convert, unate_with_sweep
from .domino import (
    CircuitCost,
    DominoCircuit,
    DominoGate,
    Leaf,
    Parallel,
    Series,
    analyse,
    count_discharge_transistors,
    parallel,
    rearrange,
    series,
)
from .mapping import (
    FLOW_PASSES,
    FLOW_PRESETS,
    AreaCost,
    ClockWeightedCost,
    CostModel,
    DepthCost,
    FlowResult,
    KernelProtocol,
    MapperConfig,
    MappingEngine,
    MappingResult,
    PassRecord,
    domino_map,
    flow_config,
    map_network,
    prepare_network,
    rs_map,
    soi_domino_map,
)
from .obs import (
    MetricsRegistry,
    Span,
    Tracer,
    batch_report,
    flow_report,
    prometheus_text,
    write_trace,
)
from .pipeline import (
    BatchReport,
    BatchResult,
    BatchRunner,
    BatchTask,
    MappingStats,
    WorkerPool,
)
from .resilience import (
    FAULT_POINTS,
    FaultPlan,
    FaultPoint,
    FaultRule,
    plan_from_spec,
)

__version__ = "0.9.0"

__all__ = [
    "BatchDeadlineError",
    "BenchmarkError",
    "MappingError",
    "NetworkError",
    "ParseError",
    "ReproError",
    "ResourceLimitError",
    "SimulationError",
    "StructureError",
    "UnateConversionError",
    "WorkerCrashError",
    "is_retryable",
    "LogicNetwork",
    "LogicNode",
    "NodeType",
    "network_from_expression",
    "network_from_expressions",
    "network_stats",
    "decompose",
    "sweep",
    "unate_convert",
    "unate_with_sweep",
    "CircuitCost",
    "DominoCircuit",
    "DominoGate",
    "Leaf",
    "Parallel",
    "Series",
    "analyse",
    "count_discharge_transistors",
    "parallel",
    "rearrange",
    "series",
    "AreaCost",
    "FLOW_PASSES",
    "FLOW_PRESETS",
    "PassRecord",
    "ClockWeightedCost",
    "CostModel",
    "DepthCost",
    "FlowResult",
    "KernelProtocol",
    "MapperConfig",
    "MappingEngine",
    "MappingResult",
    "domino_map",
    "flow_config",
    "map_network",
    "prepare_network",
    "rs_map",
    "soi_domino_map",
    "BatchReport",
    "BatchResult",
    "BatchRunner",
    "BatchTask",
    "MappingStats",
    "WorkerPool",
    "FAULT_POINTS",
    "FaultPlan",
    "FaultPoint",
    "FaultRule",
    "plan_from_spec",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "batch_report",
    "flow_report",
    "prometheus_text",
    "write_trace",
    "__version__",
]
