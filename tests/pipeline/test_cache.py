"""The parsed-network memo: bit-identical reuse, accounting, LRU cap.

The DP memoizes nothing; the pipeline's one in-process cache is the
per-process memo in ``pipeline/runner.py``.  It keeps each circuit
source's parsed network and, after the first task on it, the synthesis
front end's ``(unate_network, unate_report)``, which every later task
maps whatever its flow, config or cost model.  These tests pin that a
memo hit maps exactly like a fresh parse, that one prepared network
serves different configs and cost models without carrying anything
between them, and the memo's counters, ``clear`` and LRU eviction.
"""

import pytest

from repro import (
    ClockWeightedCost,
    CostModel,
    DepthCost,
    MapperConfig,
    domino_map,
    map_network,
    rs_map,
    soi_domino_map,
)
from repro.bench_suite import load_circuit
from repro.io import circuit_netlist
from repro.network import network_from_expression
from repro.pipeline.runner import (
    BatchTask,
    _NetworkMemo,
    clear_network_memo,
    execute_task,
    network_memo_stats,
)

CIRCUITS = ["cm150", "mux", "z4ml", "9symml"]
FLOW_NAMES = {domino_map: "domino", rs_map: "rs", soi_domino_map: "soi"}


@pytest.fixture(autouse=True)
def cold_memo():
    clear_network_memo()
    yield
    clear_network_memo()


def _served(task):
    result = execute_task(task)
    assert result.error is None
    return result.cost, result.digest


def _direct(network, **kwargs):
    result = map_network(network, **kwargs)
    return result.cost, result.circuit.digest()


class TestEquivalence:
    @pytest.mark.parametrize("name", CIRCUITS)
    @pytest.mark.parametrize("flow", [domino_map, rs_map, soi_domino_map])
    def test_cache_on_equals_cache_off(self, flow, name):
        cold = flow(load_circuit(name))
        cold = (cold.cost, cold.circuit.digest())
        task = BatchTask(name, flow=FLOW_NAMES[flow])
        first = _served(task)    # parse and front end fill the memo
        second = _served(task)   # both served from the memo
        assert network_memo_stats()["frontend_hits"] == 1
        assert first == cold
        assert second == cold

    def test_cost_model_fingerprints_do_not_cross_contaminate(self):
        models = (None, ClockWeightedCost(2.0), DepthCost())
        for model in models:
            served = _served(BatchTask("z4ml", flow="soi", cost_model=model))
            assert served == _direct(load_circuit("z4ml"), flow="soi",
                                     cost_model=model)
        assert network_memo_stats()["frontend_hits"] == len(models) - 1
        prints = {(model or CostModel()).fingerprint() for model in models}
        assert len(prints) == len(models)

    def test_config_fingerprints_do_not_cross_contaminate(self):
        configs = (MapperConfig(w_max=2, h_max=2),
                   MapperConfig(w_max=5, h_max=8),
                   MapperConfig(ordering="naive"),
                   MapperConfig(pareto=True))
        for config in configs:
            served = _served(BatchTask("cm150", config=config))
            assert served == _direct(load_circuit("cm150"), config=config)
        assert network_memo_stats()["frontend_hits"] == len(configs) - 1
        assert len({config.fingerprint() for config in configs}) \
            == len(configs)


class TestAccounting:
    def test_repeat_run_hits(self):
        first = _served(BatchTask("9symml"))
        second = _served(BatchTask("9symml"))
        assert second == first
        stats = network_memo_stats()
        assert stats["entries"] == 1
        assert stats["hits"] == stats["misses"] == 1
        assert stats["frontend_hits"] == stats["frontend_misses"] == 1
        assert stats["evictions"] == 0

    def test_clear_resets(self):
        _served(BatchTask("mux"))
        _served(BatchTask("mux"))
        clear_network_memo()
        assert network_memo_stats() == {
            "entries": 0, "hits": 0, "misses": 0, "evictions": 0,
            "frontend_hits": 0, "frontend_misses": 0}


class TestBypass:
    def test_disabled_cache_never_hits_or_stores(self):
        memo = _NetworkMemo(max_entries=0)
        first = memo.entry("mux")
        second = memo.entry("mux")
        assert second is not first
        stats = memo.stats()
        assert stats["entries"] == stats["hits"] == 0
        assert stats["misses"] == 2
        assert soi_domino_map(second.network).cost \
            == soi_domino_map(load_circuit("mux")).cost

    def test_disable_after_warmup_is_correctness_preserving(self):
        memo = _NetworkMemo()
        warm = memo.entry("mux")
        assert memo.entry("mux") is warm
        memo.max_entries = 0
        memo.entry("cm150")      # the next insert evicts everything
        assert len(memo.entries) == 0
        bypassed = memo.entry("mux")
        assert bypassed is not warm
        assert memo.hits == 1 and memo.misses == 3
        assert soi_domino_map(bypassed.network).cost \
            == soi_domino_map(load_circuit("mux")).cost

    def test_max_entries_cap_evicts_lru(self):
        memo = _NetworkMemo(max_entries=1)
        memo.entry("mux")
        memo.entry("cm150")
        assert list(memo.entries) == ["cm150"]
        assert memo.evictions == 1
        again = memo.entry("mux")    # evicted: parsed afresh
        assert memo.misses == 3 and memo.hits == 0
        # eviction is a capacity decision, not a correctness one
        assert soi_domino_map(again.network).cost \
            == soi_domino_map(load_circuit("mux")).cost

    def test_eviction_order_is_deterministic(self):
        def run():
            memo = _NetworkMemo(max_entries=2)
            for source in ("mux", "cm150", "mux", "z4ml", "cm150"):
                memo.entry(source)
            return list(memo.entries), memo.evictions

        # cm150 is least recently used when z4ml arrives, then mux
        assert run() == run() == (["z4ml", "cm150"], 2)

    def test_evictions_surface_in_stats(self):
        memo = _NetworkMemo(max_entries=1)
        for source in ("mux", "cm150", "z4ml"):
            memo.entry(source)
        stats = memo.stats()
        assert stats["evictions"] == memo.evictions == 2
        assert stats["entries"] == 1


class TestEligibility:
    def test_repeated_pi_leaf_not_cached_but_correct(self):
        # (a*b)+(a*c): the shared PI 'a' feeds two cones; mapping the
        # expression twice in one process must give the same gates
        net = network_from_expression("(a * b) + (a * c)", name="sharedpi")
        first = map_network(net, flow="soi")
        net2 = network_from_expression("(a * b) + (a * c)", name="sharedpi")
        second = map_network(net2, flow="soi")
        assert first.cost == second.cost
        assert (circuit_netlist(first.circuit)
                == circuit_netlist(second.circuit))
