"""Tests for DominoCircuit wiring and accounting."""

import pytest

from repro.domino import DominoCircuit, DominoGate, Leaf, parallel, series
from repro.errors import StructureError


def L(name, primary=True, gate=None):
    return Leaf(name, is_primary=primary, source_gate=gate)


def build_two_level() -> DominoCircuit:
    circuit = DominoCircuit("demo")
    for name in "abcd":
        circuit.add_input(name)
    g1 = DominoGate.from_structure("g1", series(L("a"), L("b")))
    g2 = DominoGate.from_structure(
        "g2", parallel(L("g1", primary=False, gate=1), L("c")))
    g3 = DominoGate.from_structure(
        "g3", series(L("g2", primary=False, gate=2), L("d")))
    for g in (g1, g2, g3):
        circuit.add_gate(g)
    circuit.connect_output("out", "g3")
    return circuit


def test_cost_aggregation():
    circuit = build_two_level()
    cost = circuit.cost()
    gates = circuit.gates
    assert cost.t_logic == sum(g.t_logic for g in gates)
    assert cost.t_disch == sum(g.t_disch for g in gates)
    assert cost.t_total == cost.t_logic + cost.t_disch
    assert cost.num_gates == 3
    assert cost.as_dict()["T_total"] == cost.t_total


def test_levels_recomputed_from_wiring():
    circuit = build_two_level()
    circuit.recompute_levels()
    assert circuit.gate("g1").level == 1
    assert circuit.gate("g2").level == 2
    assert circuit.gate("g3").level == 3
    assert circuit.levels() == 3


def test_validate_passes():
    circuit = build_two_level()
    circuit.recompute_levels()
    circuit.validate(w_max=5, h_max=8)


def test_duplicate_gate_name_rejected():
    circuit = DominoCircuit()
    circuit.add_input("a")
    circuit.add_gate(DominoGate.from_structure("g", series(L("a"), L("a"))))
    with pytest.raises(StructureError, match="duplicate"):
        circuit.add_gate(DominoGate.from_structure("g", series(L("a"), L("a"))))


def test_unknown_driver_rejected():
    circuit = DominoCircuit()
    circuit.add_input("a")
    circuit.add_gate(DominoGate.from_structure(
        "g", series(L("ghost", primary=False, gate=9), L("a"))))
    circuit.connect_output("o", "g")
    with pytest.raises(StructureError, match="unknown"):
        circuit.validate()


def test_unknown_primary_input_rejected():
    circuit = DominoCircuit()
    circuit.add_gate(DominoGate.from_structure("g", series(L("x"), L("y"))))
    circuit.connect_output("o", "g")
    with pytest.raises(StructureError, match="unknown primary input"):
        circuit.validate()


def test_cycle_detected():
    circuit = DominoCircuit()
    circuit.add_gate(DominoGate.from_structure(
        "g1", series(L("g2", primary=False, gate=2), L("g2", primary=False,
                                                       gate=2))))
    circuit.add_gate(DominoGate.from_structure(
        "g2", series(L("g1", primary=False, gate=1), L("g1", primary=False,
                                                       gate=1))))
    with pytest.raises(StructureError, match="cycle"):
        circuit.validate()


def test_recompute_levels_rejects_unknown_driver():
    circuit = DominoCircuit()
    circuit.add_input("a")
    circuit.add_gate(DominoGate.from_structure("g1", series(L("a"), L("a"))))
    circuit.add_gate(DominoGate.from_structure(
        "g2", series(L("g1", primary=False, gate=1),
                     L("ghost", primary=False, gate=9))))
    with pytest.raises(StructureError,
                       match="'g2' references unknown driver 'ghost'"):
        circuit.recompute_levels()


def test_recompute_levels_rejects_cycle():
    circuit = DominoCircuit()
    circuit.add_input("a")
    circuit.add_gate(DominoGate.from_structure(
        "g1", series(L("g3", primary=False, gate=3), L("a"))))
    circuit.add_gate(DominoGate.from_structure(
        "g2", parallel(L("g1", primary=False, gate=1), L("a"))))
    circuit.add_gate(DominoGate.from_structure(
        "g3", series(L("g2", primary=False, gate=2), L("a"))))
    with pytest.raises(StructureError, match="cycle through gate 'g1'"):
        circuit.recompute_levels()


def test_recompute_levels_handles_deep_chains():
    """Thousands of gates deep, with no recursion-limit bump."""
    import sys

    circuit = DominoCircuit()
    circuit.add_input("a")
    depth = 4 * sys.getrecursionlimit()
    # users before drivers, so the walk must descend the whole chain
    for k in range(depth, 1, -1):
        circuit.add_gate(DominoGate.from_structure(
            f"g{k}", series(L(f"g{k - 1}", primary=False, gate=k - 1),
                            L("a"))))
    circuit.add_gate(DominoGate.from_structure("g1", series(L("a"), L("a"))))
    limit = sys.getrecursionlimit()
    circuit.recompute_levels()
    assert sys.getrecursionlimit() == limit
    assert circuit.gate(f"g{depth}").level == depth
    assert circuit.levels() == depth


def test_const_outputs_tracked():
    circuit = DominoCircuit()
    circuit.set_const_output("always1", True)
    assert circuit.const_outputs == {"always1": True}
