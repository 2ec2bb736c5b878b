"""MappingStats accounting: populated by every flow, merges, pickles."""

import pickle
from dataclasses import fields

import pytest

from repro import domino_map, map_network, rs_map, soi_domino_map
from repro.bench_suite import load_circuit
from repro.mapping import MapperConfig
from repro.obs import MAPPING_STATS_PREFIX
from repro.pipeline import MappingStats
from repro.pipeline.metrics import MAX_MERGED_FIELDS


def test_stats_populated_for_every_flow():
    for flow in (domino_map, rs_map, soi_domino_map):
        result = flow(load_circuit("mux"))
        stats = result.mapping.stats
        assert stats is result.stats
        assert stats.tuples_created > 0
        assert stats.tuples_pruned > 0
        assert stats.combine_calls > 0
        assert stats.gate_formations > 0
        assert stats.nodes_processed == stats.gate_formations
        assert stats.node_time_s > 0.0
        assert stats.max_node_time_s <= stats.node_time_s
        # the DP has no cache: the rate bench/staged.py reads is 0
        assert stats.cache_hit_rate == 0.0


def test_tuples_created_alias_removed():
    result = map_network(load_circuit("cm150"))
    # the pre-0.5 deprecated alias was removed on schedule
    with pytest.raises(AttributeError):
        result.mapping.tuples_created
    assert result.stats.tuples_kept == (result.stats.tuples_created
                                        - result.stats.tuples_pruned)


def test_bound_skips_counted():
    for pareto in (False, True):
        stats = map_network(load_circuit("mux"),
                            config=MapperConfig(pareto=pareto)).stats
        assert stats.bound_skips > 0
        # both kernels decide every rejection before a tuple is
        # allocated: the count is derived, not kept
        assert stats.bound_skips == stats.tuples_pruned
        assert stats.as_dict()["bound_skips"] == stats.tuples_pruned
        assert "bound_skips=" in stats.summary()


def test_flow_result_elapsed_recorded():
    result = soi_domino_map(load_circuit("mux"))
    assert result.elapsed_s > 0.0
    assert result.elapsed_s >= result.stats.node_time_s


def test_merge_accumulates_and_maxes():
    a = MappingStats(tuples_created=3, tuples_pruned=1, combine_calls=5,
                     node_time_s=1.0, max_node_time_s=0.5)
    b = MappingStats(tuples_created=2, combine_calls=4, gate_formations=7,
                     node_time_s=2.0, max_node_time_s=0.75)
    a.merge(b)
    assert a.tuples_created == 5
    assert a.combine_calls == 9
    assert a.gate_formations == 7
    assert a.node_time_s == 3.0
    assert a.max_node_time_s == 0.75


def test_external_stats_object_accumulates_across_runs():
    shared = MappingStats()
    one = map_network(load_circuit("mux"), stats=shared).stats
    assert one is shared
    created_after_one = shared.tuples_created
    map_network(load_circuit("mux"), stats=shared)
    assert shared.tuples_created == 2 * created_after_one


def test_stats_pickle_roundtrip_and_dict():
    stats = soi_domino_map(load_circuit("mux")).stats
    clone = pickle.loads(pickle.dumps(stats))
    assert clone == stats
    data = stats.as_dict()
    assert data["tuples_created"] == stats.tuples_created
    assert "cache_hit_rate" not in data
    assert "tuples=" in stats.summary()


#: What ``bench/staged.py`` (``dp_counters``) reads off merged stats on
#: every default ``python -m bench`` run.
BENCH_READS = ("auto_routed_soa", "auto_routed_reference", "bound_skips",
               "tuples_kept", "combine_time_s", "soa_candidates",
               "gate_formations", "combine_calls", "tuples_created",
               "cache_hit_rate")


def test_counter_surface_is_the_stats_fields():
    """One counter list: a mapped run publishes one repro_mapping_*
    family per MappingStats field, the staged benchmark's reads all
    exist, and the JSON form round-trips through the fields."""
    names = [f.name for f in fields(MappingStats)]
    result = map_network(load_circuit("cm150"), flow="soi")
    families = {m.name: m.kind for m in result.metrics
                if m.name.startswith(MAPPING_STATS_PREFIX)}
    expected = {f"{MAPPING_STATS_PREFIX}{name}_total": "counter"
                for name in names if name not in MAX_MERGED_FIELDS}
    expected.update({f"{MAPPING_STATS_PREFIX}{name}": "gauge"
                     for name in MAX_MERGED_FIELDS})
    # the engine's two histograms are the only other families
    expected[f"{MAPPING_STATS_PREFIX}tuples_per_node"] = "histogram"
    expected[f"{MAPPING_STATS_PREFIX}combine_seconds"] = "histogram"
    assert families == expected
    for name in MAX_MERGED_FIELDS:
        assert name in names
        assert result.metrics.get(f"{MAPPING_STATS_PREFIX}{name}").mode == (
            "max")

    stats = result.stats
    for attr in BENCH_READS:
        assert hasattr(stats, attr), attr
    clone = MappingStats(**{k: v for k, v in stats.as_dict().items()
                            if k in names})
    assert clone == stats
