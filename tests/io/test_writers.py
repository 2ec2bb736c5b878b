"""Tests for the DOT and SPICE-style netlist writers."""

from collections import Counter

import pytest

from repro.io import (
    circuit_netlist,
    circuit_to_dot,
    network_to_dot,
    write_circuit_netlist,
)
from repro.mapping import domino_map, soi_domino_map
from repro.network import network_from_expression


def test_network_dot_contains_all_nodes():
    net = network_from_expression("a * b + !c", name="dotnet")
    dot = network_to_dot(net)
    assert dot.startswith('digraph "dotnet"')
    for node in net:
        assert f"n{node.uid}" in dot
    assert dot.rstrip().endswith("}")


def test_circuit_dot_mentions_gates_and_ios():
    net = network_from_expression("(a + b) * c + d", name="dotckt")
    circuit = soi_domino_map(net).circuit
    dot = circuit_to_dot(circuit)
    for gate in circuit.gates:
        assert gate.name in dot
    assert "PO:out" in dot


def test_netlist_device_count_matches_accounting():
    for expr in ["(a + b + c) * d",
                 "(a * b + c) * (d + e * f)",
                 "!a * b + a * !b"]:
        net = network_from_expression(expr)
        for flow in (domino_map, soi_domino_map):
            result = flow(net)
            import io as _io

            buf = _io.StringIO()
            devices = write_circuit_netlist(result.circuit, buf)
            assert devices == result.cost.t_total
            text = buf.getvalue()
            assert text.count("nmos_soi") + text.count("pmos_soi") == devices


def test_netlist_structure():
    net = network_from_expression("(a + b) * c")
    result = domino_map(net)
    text = circuit_netlist(result.circuit)
    gate = result.circuit.gates[0]
    assert f".subckt {gate.name}" in text
    assert f".ends {gate.name}" in text
    assert "MPC" in text  # precharge
    assert "MPK" in text  # keeper
    assert "MNF" in text  # foot (primary inputs present)
    assert text.rstrip().endswith(".end")


def test_netlist_discharge_devices_emitted():
    net = network_from_expression("(a * b + c) * d")
    result = domino_map(net)
    assert result.cost.t_disch > 0
    text = circuit_netlist(result.circuit)
    assert "MPD0" in text


def test_netlist_flattens_each_gate_once(monkeypatch):
    """Writing a circuit flattens each gate once, for its subcircuit and
    its instance line both."""
    import repro.io.netlist_text as netlist_text
    from repro.bench_suite import load_circuit

    calls = []
    flatten = netlist_text.flatten_gate

    def counting(gate):
        calls.append(gate.name)
        return flatten(gate)

    monkeypatch.setattr(netlist_text, "flatten_gate", counting)
    for name in ("cm150", "mux", "z4ml"):
        circuit = soi_domino_map(load_circuit(name)).circuit
        calls.clear()
        text = circuit_netlist(circuit)
        assert sorted(calls) == sorted(g.name for g in circuit.gates)
        for gate in circuit.gates:
            assert f"X{gate.name} {gate.name} clk " in text


@pytest.mark.parametrize("flow", ["domino", "rs", "soi"])
@pytest.mark.parametrize("name", ["cm150", "mux", "z4ml", "count"])
def test_netlist_cards_rederive_clock_and_discharge_counts(name, flow):
    """Count the written netlist's cards by role against the cost.

    One precharge pmos (``MPC``) per gate, one n-clock foot (``MNF``)
    per footed gate, one p-discharge pmos (``MPD<i>``) per discharge
    transistor; together they are every clock-connected device, so
    their sum is ``T_clock``.
    """
    from repro.bench_suite import load_circuit
    from repro.mapping import map_network

    circuit = map_network(load_circuit(name), flow=flow).circuit
    roles = Counter(line.split(" ", 1)[0].rstrip("0123456789")
                    for line in circuit_netlist(circuit).splitlines())
    cost = circuit.cost()
    assert roles["MPC"] == cost.num_gates == len(circuit)
    assert roles["MNF"] == sum(gate.footed for gate in circuit.gates)
    assert roles["MPD"] == cost.t_disch
    assert roles["MPC"] + roles["MNF"] + roles["MPD"] == cost.t_clock
