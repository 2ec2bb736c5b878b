"""Typed metrics registry: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` owns named metrics created through
``counter()`` / ``gauge()`` / ``histogram()`` — get-or-create with a
type check, so two call sites can never register the same name with
different kinds.  Histograms use *fixed* bucket boundaries declared at
creation, which makes :meth:`MetricsRegistry.merge` deterministic:
merging worker registries in any order yields identical counts, the
property the batch pipeline's process-pool fan-out relies on.

The registry is also the single source of truth behind
:class:`~repro.pipeline.MappingStats`: a finished run publishes its
stats into the registry (:meth:`record_mapping_stats`) and summaries
re-derive them (:meth:`mapping_stats`), so the two surfaces cannot
disagree.  ``obs/export.py`` renders a registry in Prometheus text
exposition format.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..errors import ObsError
from ..pipeline.metrics import MAX_MERGED_FIELDS, MappingStats

#: Fixed buckets for the engine's tuples-per-node histogram.
TUPLES_PER_NODE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384)

#: Fixed buckets for the engine's combine latency per kernel batch (seconds).
NODE_SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0)

#: Registry prefix under which MappingStats counters are published.
MAPPING_STATS_PREFIX = "repro_mapping_"


@dataclass
class Counter:
    """Monotonically increasing value (int or float)."""

    name: str
    help: str = ""
    value: Union[int, float] = 0

    kind = "counter"

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ObsError(f"counter {self.name!r} cannot decrease "
                           f"(inc by {amount})")
        self.value += amount

    def _merge(self, other: "Counter") -> None:
        self.value += other.value

    def as_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "name": self.name, "value": self.value}


@dataclass
class Gauge:
    """Last-written value; ``mode="max"`` keeps the maximum on merge."""

    name: str
    help: str = ""
    value: float = 0.0
    mode: str = "last"

    kind = "gauge"

    def __post_init__(self):
        if self.mode not in ("last", "max"):
            raise ObsError(f"gauge {self.name!r}: unknown mode "
                           f"{self.mode!r} (expected 'last' or 'max')")

    def set(self, value: float) -> None:
        if self.mode == "max":
            self.value = max(self.value, value)
        else:
            self.value = value

    def _merge(self, other: "Gauge") -> None:
        if self.mode == "max":
            self.value = max(self.value, other.value)
        else:
            self.value = other.value

    def as_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "name": self.name, "value": self.value,
                "mode": self.mode}


@dataclass
class Histogram:
    """Fixed-boundary histogram (Prometheus-style cumulative export).

    ``buckets`` are upper bounds in strictly increasing order; an
    implicit ``+Inf`` bucket catches the rest.  Counts are stored
    per-bucket (not cumulative) and merged element-wise, which is only
    well-defined because the boundaries are fixed at creation — the
    reason results merge deterministically across batch workers.
    """

    name: str
    buckets: Tuple[float, ...]
    help: str = ""
    counts: List[int] = field(default_factory=list)
    sum: float = 0.0
    count: int = 0

    kind = "histogram"

    def __post_init__(self):
        self.buckets = tuple(self.buckets)
        if not self.buckets:
            raise ObsError(f"histogram {self.name!r} needs bucket bounds")
        if any(b >= a for b, a in zip(self.buckets, self.buckets[1:])):
            raise ObsError(f"histogram {self.name!r}: bucket bounds must "
                           "be strictly increasing")
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """Prometheus-style ``(le, cumulative_count)`` rows, +Inf last."""
        rows: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            rows.append((bound, running))
        rows.append((float("inf"), running + self.counts[-1]))
        return rows

    def _merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ObsError(
                f"histogram {self.name!r}: cannot merge differing bucket "
                f"bounds {other.buckets} into {self.buckets}")
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.sum += other.sum
        self.count += other.count

    def as_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "name": self.name,
                "buckets": list(self.buckets), "counts": list(self.counts),
                "sum": self.sum, "count": self.count}


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named metrics, created once and looked up by every instrument.

    Metrics keep insertion order, so exports and ``as_dict`` renderings
    are deterministic for a deterministic program.
    """

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}

    # -- creation / lookup ----------------------------------------------
    def _get_or_create(self, name: str, kind: str, factory) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = factory()
        elif metric.kind != kind:
            raise ObsError(
                f"metric {name!r} is a {metric.kind}, not a {kind}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(
            name, "counter", lambda: Counter(name=name, help=help))

    def gauge(self, name: str, help: str = "",
              mode: str = "last") -> Gauge:
        gauge = self._get_or_create(
            name, "gauge", lambda: Gauge(name=name, help=help, mode=mode))
        if gauge.mode != mode:
            raise ObsError(f"gauge {name!r} registered with mode "
                           f"{gauge.mode!r}, requested {mode!r}")
        return gauge

    def histogram(self, name: str, buckets: Tuple[float, ...],
                  help: str = "") -> Histogram:
        hist = self._get_or_create(
            name, "histogram",
            lambda: Histogram(name=name, buckets=buckets, help=help))
        if hist.buckets != tuple(buckets):
            raise ObsError(
                f"histogram {name!r} registered with buckets "
                f"{hist.buckets}, requested {tuple(buckets)}")
        return hist

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    # -- aggregation -----------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Accumulate ``other`` into self (returns self for chaining).

        Counters and histograms add; gauges follow their mode.  A metric
        present only in ``other`` is copied over whole.  Deterministic:
        merging the same registries in any order gives equal contents
        (up to gauge ``mode="last"``, which takes the merge-order last).
        """
        for name, metric in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                if metric.kind == "counter":
                    mine = self.counter(name, metric.help)
                elif metric.kind == "gauge":
                    mine = self.gauge(name, metric.help, mode=metric.mode)
                else:
                    mine = self.histogram(name, metric.buckets, metric.help)
            elif mine.kind != metric.kind:
                raise ObsError(
                    f"metric {name!r} is a {mine.kind} here but a "
                    f"{metric.kind} in the merged registry")
            mine._merge(metric)
        return self

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        return {name: metric.as_dict()
                for name, metric in self._metrics.items()}

    # -- the MappingStats bridge ----------------------------------------
    def record_mapping_stats(self, stats: MappingStats,
                             prefix: str = MAPPING_STATS_PREFIX) -> None:
        """Publish a run's stats counters into the registry.

        Every :class:`MappingStats` field becomes a counter (suffixed
        ``_total``) except the max-aggregated fields
        (:data:`~repro.pipeline.metrics.MAX_MERGED_FIELDS`, e.g.
        ``max_node_time_s``/``soa_max_batch``), which are max-mode
        gauges.  Summary surfaces then re-derive their stats through
        :meth:`mapping_stats`, keeping one source of truth.
        """
        for f in fields(stats):
            value = getattr(stats, f.name)
            if f.name in MAX_MERGED_FIELDS:
                self.gauge(f"{prefix}{f.name}", mode="max").set(value)
            else:
                self.counter(f"{prefix}{f.name}_total").inc(value)

    def mapping_stats(self,
                      prefix: str = MAPPING_STATS_PREFIX) -> MappingStats:
        """Re-derive a :class:`MappingStats` from the published counters."""
        values: Dict[str, float] = {}
        for f in fields(MappingStats):
            if f.name in MAX_MERGED_FIELDS:
                metric = self.get(f"{prefix}{f.name}")
            else:
                metric = self.get(f"{prefix}{f.name}_total")
            raw = metric.value if metric is not None else 0
            values[f.name] = raw if f.type in ("float", float) else int(raw)
        return MappingStats(**values)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"
