"""Engine resource guards: ceilings degrade into structured errors."""

import pytest

from repro.bench_suite import load_circuit
from repro.errors import MappingError, ReproError, ResourceLimitError
from repro.mapping import MapperConfig, map_network
from repro.resilience import FaultPlan, FaultRule, install, uninstall


def test_max_nodes_ceiling_raises_with_partial_stats():
    with pytest.raises(ResourceLimitError) as info:
        map_network(load_circuit("cm150"), flow="soi",
                    config=MapperConfig(max_nodes=3))
    err = info.value
    assert err.limit == "max_nodes"
    assert err.stats is not None
    assert err.stats.nodes_processed == 3      # the partial run's truth
    assert err.stats.tuples_created > 0


def test_max_tuples_ceiling_raises_with_partial_stats():
    with pytest.raises(ResourceLimitError) as info:
        map_network(load_circuit("cm150"), flow="soi",
                    config=MapperConfig(max_tuples=50))
    err = info.value
    assert err.limit == "max_tuples"
    assert err.stats is not None and err.stats.tuples_created > 50


def test_resource_limit_error_is_a_mapping_error():
    assert issubclass(ResourceLimitError, MappingError)
    assert issubclass(ResourceLimitError, ReproError)
    assert not ResourceLimitError("x").retryable


def test_generous_limits_change_nothing():
    unlimited = map_network(load_circuit("mux"), flow="soi")
    limited = map_network(load_circuit("mux"), flow="soi",
                          config=MapperConfig(max_nodes=10**9,
                                              max_tuples=10**9))
    assert limited.circuit.digest() == unlimited.circuit.digest()


def test_limit_validation():
    with pytest.raises(MappingError, match="max_nodes"):
        MapperConfig(max_nodes=0)
    with pytest.raises(MappingError, match="max_tuples"):
        MapperConfig(max_tuples=-1)


def test_injected_exhaustion_mimics_a_real_ceiling():
    install(FaultPlan(rules=(FaultRule("resource.exhaust"),)))
    try:
        with pytest.raises(ResourceLimitError) as info:
            map_network(load_circuit("mux"), flow="soi")
    finally:
        uninstall()
    assert info.value.limit == "injected"
    assert info.value.stats is not None


@pytest.mark.parametrize("kernel", ["reference", "soa"])
@pytest.mark.parametrize("share", [0.2, 0.5, 0.9])
def test_max_tuples_error_counts_the_nodes_before_the_crossing(
        monkeypatch, kernel, share):
    """The guard fires after the node that crosses ``max_tuples``.

    Kernel batches hold many nodes; the nodes of a batch before the
    crossing node are finished first, so the error's partial stats are
    the ones a node-by-node walk reports.
    """
    if kernel == "soa":
        pytest.importorskip("numpy")
    from repro.mapping import CostModel, MappingEngine
    from repro.synth import decompose, sweep, unate_with_sweep

    network = unate_with_sweep(sweep(decompose(load_circuit("cm150"))))[0]
    counts = []
    original = MappingEngine._combine_into

    def combine_into(self, items):
        created = original(self, items)
        counts.extend(created)
        return created

    monkeypatch.setattr(MappingEngine, "_combine_into", combine_into)
    MappingEngine(network, CostModel(), MapperConfig(kernel=kernel)).run_dp()
    limit = int(sum(counts) * share)
    total = crossing = 0
    for crossing, count in enumerate(counts):
        total += count
        if total > limit:
            break
    counts.clear()
    engine = MappingEngine(network, CostModel(),
                           MapperConfig(kernel=kernel, max_tuples=limit))
    with pytest.raises(ResourceLimitError) as info:
        engine.run_dp()
    stats = info.value.stats
    assert stats.tuples_created == total
    assert stats.nodes_processed == crossing == len(engine._tables)
    assert f"created after {crossing} nodes" in str(info.value)
