"""MappingStats accounting: populated by every flow, merges, pickles."""

import pickle

import pytest

from repro import domino_map, map_network, rs_map, soi_domino_map
from repro.bench_suite import load_circuit
from repro.mapping import MapperConfig
from repro.pipeline import MappingStats


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
        # no cache attached: the cache counters must stay untouched
        assert stats.cache_hits == 0
        assert stats.cache_misses == 0
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
    b = MappingStats(tuples_created=2, combine_calls=4, cache_hits=7,
                     node_time_s=2.0, max_node_time_s=0.75)
    a.merge(b)
    assert a.tuples_created == 5
    assert a.combine_calls == 9
    assert a.cache_hits == 7
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
    assert "cache_hit_rate" in data
    assert "tuples=" in stats.summary()
