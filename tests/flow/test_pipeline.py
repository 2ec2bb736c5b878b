"""map_network's stage loop: execution records, spans, and digest identity."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench_suite import load_circuit
from repro.io import circuit_netlist
from repro.mapping import FLOW_PASSES, MapperConfig, map_network
from repro.network import network_from_expression

DATA = Path(__file__).resolve().parents[1] / "data"
with open(DATA / "seed_digests.json", encoding="utf-8") as _fh:
    SEED_DIGESTS = json.load(_fh)


def test_decompose_short_circuit_satisfies_chain():
    # the short-circuit publishes the input as the unate network, and
    # every stage after the front end runs on it under every preset
    network = network_from_expression("(a * b) + c")
    assert network.is_mappable()
    for flow in ("domino", "rs", "soi"):
        result = map_network(network, flow=flow)
        statuses = {r.name: r.status for r in result.passes}
        assert statuses["sweep"] == statuses["unate"] == "skipped"
        for name in FLOW_PASSES[flow][3:]:
            assert statuses[name] == "ok"
        assert result.cost.num_gates > 0


def test_build_flow_pipeline_presets():
    # each preset name selects its own stage list, in order; flow=None
    # runs the "custom" list
    network = network_from_expression("!(a + b) * c")
    for flow in ("domino", "rs", "soi", None):
        result = map_network(network, flow=flow)
        assert result.flow == (flow or "custom")
        spans = [s.name for s in result.trace.children
                 if s.category == "pass"]
        ran = [r.name for r in result.passes if r.ran]
        assert spans == ran
        assert [r.name for r in result.passes] == list(
            FLOW_PASSES[flow or "custom"])


# -- execution records ------------------------------------------------------
def test_pass_records_cover_every_pass():
    for flow in ("domino", "rs", "soi", None):
        result = map_network(load_circuit("mux"), flow=flow)
        names = [r.name for r in result.passes]
        assert names == list(FLOW_PASSES[flow or "custom"])
        assert result.flow == (flow or "custom")
        data = result.as_dict()
        assert [p["name"] for p in data["passes"]] == names
        json.dumps(data)  # records must be JSON-serializable
    result = map_network(load_circuit("cm150"), flow="soi")
    statuses = {r.name: r.status for r in result.passes}
    # cm150 needs the full front end; every pass actually runs
    assert set(statuses.values()) == {"ok"}
    for record in result.passes:
        assert record.ran
        assert record.elapsed_s >= 0.0
        data = record.as_dict()
        assert data["name"] == record.name
        assert "detail" not in data
        json.dumps(data)
    spans = [s for s in result.trace.children if s.category == "pass"]
    assert [s.name for s in spans] == list(FLOW_PASSES["soi"])
    assert all(s.attributes["flow"] == "soi" for s in spans)


def test_dp_pass_record_carries_stats_delta():
    result = map_network(load_circuit("cm150"), flow="soi")
    by_name = {r.name: r for r in result.passes}
    assert by_name["dp-map"].stats_delta["tuples_created"] > 0
    assert by_name["dp-map"].diagnostics["pbe_aware"] is True
    assert by_name["dp-map"].diagnostics["gates_selected"] == len(
        result.circuit)
    dp_span = result.trace.find("dp-map")
    assert dp_span.attributes["stats_delta"] == by_name["dp-map"].stats_delta
    assert by_name["discharge"].diagnostics["gates"] == len(
        result.circuit)
    # analyze reports the same cost the result carries
    assert by_name["analyze"].diagnostics == result.cost.as_dict()


def test_rearrange_recorded_as_skipped_when_off():
    result = map_network(load_circuit("cm150"),
                         config=MapperConfig(rearrange_gates=False))
    by_name = {r.name: r for r in result.passes}
    assert by_name["rearrange"].status == "skipped"
    assert "rearrange_gates" in by_name["rearrange"].detail
    assert by_name["rearrange"].as_dict()["detail"] == (
        "config.rearrange_gates is off")
    assert result.trace.find("rearrange") is None
    assert "rearrange" not in result.pass_times()
    assert set(result.pass_times()) == {
        "decompose", "sweep", "unate", "dp-map", "discharge", "analyze"}


# -- digest identity --------------------------------------------------------
@pytest.mark.parametrize("name,flow,ordering,mode", [
    ("cm150", "soi", "paper", "single"),
    ("mux", "rs", "adverse", "pareto"),
    ("z4ml", "domino", "adverse", "single"),
])
def test_pipeline_reproduces_seed_digest(name, flow, ordering, mode):
    """The stage loop is bit-identical to the seed's monolithic flow."""
    config = MapperConfig(ordering=ordering, pareto=(mode == "pareto"))
    result = map_network(load_circuit(name), flow=flow, config=config)
    digest = hashlib.sha256(
        circuit_netlist(result.circuit).encode()).hexdigest()
    assert digest == SEED_DIGESTS[f"{name}/{flow}/{ordering}/{mode}"]
    assert result.circuit.digest() == digest
