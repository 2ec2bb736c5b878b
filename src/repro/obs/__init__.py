"""Unified observability: span tracing, metrics, exporters, reports.

The obs subsystem (DESIGN.md section 10) is the one instrumentation
layer every part of the mapping stack reports through:

* :mod:`repro.obs.trace` — :class:`Tracer` / :class:`Span`, the
  hierarchical span model over monotonic clocks (context-manager API,
  retroactive hot-path recording, cross-process tree stitching);
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with typed
  counters, gauges, and fixed-bucket histograms that merge
  deterministically across batch workers, plus the one-way export of
  :class:`~repro.pipeline.MappingStats` into ``repro_mapping_*`` families;
* :mod:`repro.obs.export` — JSONL spans, Chrome ``trace_event`` JSON
  (Perfetto / ``chrome://tracing``), Prometheus text exposition;
* :mod:`repro.obs.report` — the shared JSON report schema behind
  ``soidomino map --json`` and ``batch --json``.

`map_network`'s stage loop opens one span per pass, `MappingEngine`
records thresholded per-batch ``level:<k>`` spans and histograms,
`BatchRunner` workers ship their span trees across the process pool,
and the CLI's ``--trace FILE`` flags export the result.
"""

from .export import (
    JSONL_FIELDS,
    TRACE_FORMATS,
    infer_trace_format,
    prometheus_text,
    read_jsonl,
    rows_to_spans,
    span_rows,
    spans_to_chrome,
    spans_to_jsonl,
    write_chrome,
    write_jsonl,
    write_metrics,
    write_trace,
)
from .metrics import (
    MAPPING_STATS_PREFIX,
    NODE_SECONDS_BUCKETS,
    TUPLES_PER_NODE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .report import (
    REPORT_SCHEMA_VERSION,
    SHARED_REPORT_KEYS,
    batch_report,
    flow_report,
    job_report,
)
from .trace import (
    DEFAULT_NODE_SPAN_THRESHOLD_S,
    DEFAULT_SAMPLE_EVERY,
    Span,
    Tracer,
    stitch,
)

__all__ = [
    "Counter",
    "DEFAULT_NODE_SPAN_THRESHOLD_S",
    "DEFAULT_SAMPLE_EVERY",
    "Gauge",
    "Histogram",
    "JSONL_FIELDS",
    "MAPPING_STATS_PREFIX",
    "MetricsRegistry",
    "NODE_SECONDS_BUCKETS",
    "REPORT_SCHEMA_VERSION",
    "SHARED_REPORT_KEYS",
    "Span",
    "TRACE_FORMATS",
    "TUPLES_PER_NODE_BUCKETS",
    "Tracer",
    "batch_report",
    "flow_report",
    "infer_trace_format",
    "job_report",
    "prometheus_text",
    "read_jsonl",
    "rows_to_spans",
    "span_rows",
    "spans_to_chrome",
    "spans_to_jsonl",
    "stitch",
    "write_chrome",
    "write_jsonl",
    "write_metrics",
    "write_trace",
]
