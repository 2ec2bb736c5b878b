"""Metrics registry: typing, deterministic merge, the MappingStats export."""

from dataclasses import fields

import pytest

from repro.errors import ObsError
from repro.obs import (
    MAPPING_STATS_PREFIX,
    TUPLES_PER_NODE_BUCKETS,
    MetricsRegistry,
)
from repro.pipeline import MappingStats
from repro.pipeline.metrics import MAX_MERGED_FIELDS


def test_counter_accumulates_and_rejects_decrease():
    reg = MetricsRegistry()
    c = reg.counter("hits")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ObsError, match="cannot decrease"):
        c.inc(-1)


def test_counter_is_get_or_create():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    assert len(reg) == 1


def test_kind_conflict_is_an_error():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ObsError, match="is a counter, not a gauge"):
        reg.gauge("x")


def test_gauge_modes():
    reg = MetricsRegistry()
    last = reg.gauge("last_g")
    last.set(3.0)
    last.set(1.0)
    assert last.value == 1.0
    peak = reg.gauge("peak_g", mode="max")
    peak.set(3.0)
    peak.set(1.0)
    assert peak.value == 3.0


def test_histogram_buckets_fixed_and_strictly_increasing():
    reg = MetricsRegistry()
    with pytest.raises(ObsError, match="strictly increasing"):
        reg.histogram("bad", buckets=(1, 1, 2))
    h = reg.histogram("h", buckets=(1, 10, 100))
    with pytest.raises(ObsError, match="registered with buckets"):
        reg.histogram("h", buckets=(1, 10))
    h.observe(0.5)   # <= 1
    h.observe(10)    # <= 10 (boundary belongs to its bucket)
    h.observe(99)    # <= 100
    h.observe(1e6)   # +Inf
    assert h.counts == [1, 1, 1, 1]
    assert h.cumulative() == [(1, 1), (10, 2), (100, 3), (float("inf"), 4)]
    assert h.count == 4
    assert h.sum == pytest.approx(0.5 + 10 + 99 + 1e6)


def test_merge_is_deterministic_and_order_independent():
    def worker(values):
        reg = MetricsRegistry()
        reg.counter("tuples").inc(len(values))
        h = reg.histogram("sizes", buckets=TUPLES_PER_NODE_BUCKETS)
        for v in values:
            h.observe(v)
        reg.gauge("peak", mode="max").set(max(values))
        return reg

    a, b, c = worker([1, 5]), worker([100, 3, 9]), worker([2000])
    ab = MetricsRegistry().merge(a).merge(b).merge(c)
    ba = MetricsRegistry().merge(c).merge(b).merge(a)
    assert ab.as_dict() == ba.as_dict()
    assert ab.get("tuples").value == 6
    assert ab.get("sizes").count == 6
    assert ab.get("peak").value == 2000


def test_merge_rejects_kind_and_bucket_conflicts():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("m")
    b.gauge("m")
    with pytest.raises(ObsError):
        a.merge(b)
    c, d = MetricsRegistry(), MetricsRegistry()
    c.histogram("h", buckets=(1, 2))
    d.histogram("h", buckets=(1, 3))
    with pytest.raises(ObsError, match="differing bucket"):
        c.merge(d)


def _published(reg):
    """The registry's repro_mapping_* families, by family name."""
    return {name: metric["value"] for name, metric in reg.as_dict().items()
            if name.startswith(MAPPING_STATS_PREFIX)}


def _families(stats):
    """The family values publishing ``stats`` must produce: counters
    carry the _total suffix, the max gauges do not."""
    return {f"{MAPPING_STATS_PREFIX}{f.name}"
            f"{'' if f.name in MAX_MERGED_FIELDS else '_total'}":
            getattr(stats, f.name) for f in fields(MappingStats)}


def test_mapping_stats_round_trip_through_registry():
    stats = MappingStats(tuples_created=100, tuples_pruned=40,
                         combine_calls=80,
                         gate_formations=30,
                         nodes_processed=30, node_time_s=0.25,
                         max_node_time_s=0.02, soa_max_batch=7)
    reg = MetricsRegistry()
    reg.record_mapping_stats(stats)
    # every field is published under its family name with its value
    assert _published(reg) == _families(stats)
    assert reg.get(f"{MAPPING_STATS_PREFIX}max_node_time_s").mode == "max"
    assert reg.get(f"{MAPPING_STATS_PREFIX}soa_max_batch").mode == "max"
    # the derived properties are JSON-only, never registry families
    for derived in ("tuples_kept", "bound_skips", "cache_hit_rate"):
        assert not any(derived in name for name in reg.as_dict())


def test_mapping_stats_bridge_merges_like_stats_merge():
    s1 = MappingStats(tuples_created=10, node_time_s=0.1,
                      max_node_time_s=0.05)
    s2 = MappingStats(tuples_created=7, node_time_s=0.2,
                      max_node_time_s=0.01)
    reg = MetricsRegistry()
    reg.record_mapping_stats(s1)
    reg.record_mapping_stats(s2)
    merged = MappingStats().merge(s1).merge(s2)
    published = _published(reg)
    assert published == _families(merged)
    assert published[f"{MAPPING_STATS_PREFIX}tuples_created_total"] == 17
    assert published[f"{MAPPING_STATS_PREFIX}max_node_time_s"] == 0.05


def test_empty_registry_is_falsy():
    reg = MetricsRegistry()
    assert not reg
    reg.counter("x")
    assert reg


def test_stats_as_dict_includes_derived_fields():
    stats = MappingStats(tuples_created=10, tuples_pruned=4)
    data = stats.as_dict()
    assert data["tuples_kept"] == 6
    assert data["bound_skips"] == 4
