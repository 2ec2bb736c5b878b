"""The mapping stages, the front-end short-circuit, and per-stage deltas.

Every stage runs inside :func:`repro.mapping.map_network`'s stage loop,
so these tests drive it and read the :class:`PassRecord` list it returns.
"""

import pytest

from repro.bench_suite import load_circuit
from repro.mapping import (
    FLOW_PASSES,
    PASS_DESCRIPTIONS,
    MapperConfig,
    map_network,
)
from repro.network import network_from_expression
from repro.pipeline import MappingStats

EXPECTED_PASSES = ("decompose", "sweep", "unate", "dp-map", "rearrange",
                   "discharge", "analyze")


def _records(result):
    return {r.name: r for r in result.passes}


def test_registry_contains_every_stage():
    assert tuple(PASS_DESCRIPTIONS) == EXPECTED_PASSES
    assert all(PASS_DESCRIPTIONS.values())
    for names in FLOW_PASSES.values():
        assert set(names) <= set(PASS_DESCRIPTIONS)


def test_every_pass_declares_artifacts_and_description():
    """Every stage a preset runs is described and leaves its output behind."""
    network = network_from_expression("!(a * b) * c")
    for flow, names in FLOW_PASSES.items():
        for name in names:
            assert PASS_DESCRIPTIONS[name]
        result = map_network(network, flow=None if flow == "custom" else flow)
        assert [r.name for r in result.passes] == list(names)
        # unate -> unate network, discharge -> circuit, analyze -> cost
        assert result.unate_network.is_mappable()
        assert result.unate_report is not None
        assert result.circuit is result.mapping.circuit
        assert len(result.circuit) > 0
        assert _records(result)["analyze"].diagnostics == (
            result.cost.as_dict())


def test_flow_passes_presets():
    assert FLOW_PASSES["rs"] == ("decompose", "sweep", "unate", "dp-map",
                                 "rearrange", "discharge", "analyze")
    assert FLOW_PASSES["custom"] == FLOW_PASSES["rs"]
    assert "rearrange" not in FLOW_PASSES["domino"]
    assert "rearrange" not in FLOW_PASSES["soi"]
    assert set(FLOW_PASSES) == {"domino", "rs", "soi", "custom"}


def test_decompose_short_circuits_mappable_network():
    """An already-mappable input bypasses the whole front end."""
    network = network_from_expression("a * b")
    assert network.is_mappable()
    result = map_network(network, flow="soi")
    by_name = _records(result)
    assert by_name["decompose"].status == "ok"
    assert by_name["decompose"].diagnostics == {"already_mappable": True}
    for name in ("sweep", "unate"):
        assert by_name[name].status == "skipped"
        assert by_name[name].detail == "unate network already available"
    assert result.unate_network is network
    assert result.unate_report is None


def test_frontend_runs_for_binate_network():
    network = network_from_expression("!(a * b) * c")  # INV needs conversion
    assert not network.is_mappable()
    result = map_network(network, flow="soi")
    by_name = _records(result)
    assert by_name["decompose"].diagnostics["already_mappable"] is False
    assert by_name["sweep"].ran
    assert "unate_gates" in by_name["unate"].diagnostics
    assert result.unate_network.is_mappable()
    assert result.unate_report is not None


def test_rearrange_skips_unless_configured():
    network = network_from_expression("(a + b) * c")
    off = _records(map_network(network,
                               config=MapperConfig(rearrange_gates=False)))
    assert off["rearrange"].status == "skipped"
    assert "rearrange_gates" in off["rearrange"].detail
    on = _records(map_network(network,
                              config=MapperConfig(rearrange_gates=True)))
    assert on["rearrange"].ran
    assert on["rearrange"].diagnostics["gates_rearranged"] > 0


def test_stats_delta_tracks_dp_work():
    network = network_from_expression("(a + b) * (c + d)")
    result = map_network(network)
    delta = _records(result)["dp-map"].stats_delta
    assert delta["tuples_created"] > 0
    assert delta["nodes_processed"] > 0
    assert delta["tuples_created"] == result.stats.tuples_created
    for name in ("decompose", "discharge", "analyze"):
        assert _records(result)[name].stats_delta == {}


def test_max_counters_report_the_new_maximum():
    """A max-merged counter's delta is the new maximum, not a difference.

    Two runs sharing one ``MappingStats``: the second run's largest
    kernel batch is the shared maximum, so its ``dp-map`` record must
    carry that value, as ``MappingStats.since`` does.
    """
    pytest.importorskip("numpy")
    stats = MappingStats()
    config = MapperConfig(kernel="soa")
    map_network(load_circuit("cm150"), config=config, stats=stats)
    first_max = stats.soa_max_batch
    assert first_max > 0
    result = map_network(load_circuit("c7552"), config=config, stats=stats)
    assert stats.soa_max_batch > first_max
    delta = _records(result)["dp-map"].stats_delta
    assert delta["soa_max_batch"] == stats.soa_max_batch
    if "max_node_time_s" in delta:
        assert delta["max_node_time_s"] == stats.max_node_time_s
