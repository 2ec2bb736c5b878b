"""SPICE-style transistor netlist writer for mapped domino circuits.

Emits one subcircuit per domino gate with every device the accounting
counts: pulldown nmos transistors, the p-clock precharge device, the
output inverter, the keeper, the optional n-clock foot, and the p-discharge
transistors.  The node names match :mod:`repro.pbe.netlist` so the written
netlist corresponds device-for-device to what the PBE simulator simulates
(and the test suite cross-checks the device counts against
:meth:`DominoGate.t_total`).
"""

from __future__ import annotations

from typing import List, TextIO

from ..domino.circuit import DominoCircuit
from ..domino.gate import DominoGate
from ..pbe.netlist import FOOT, GND, TOP, flatten_gate


def write_gate_netlist(gate: DominoGate, handle: TextIO) -> int:
    """Write one gate as a SPICE subcircuit; returns the device count."""
    return _write_gate(gate, handle)[0]


#: The domino overhead every gate carries: the precharge pmos
#: (drain=dynamic node, gate=clk, source=vdd), the output inverter, and
#: the keeper pmos driven by the output.
_OVERHEAD_CARDS = (
    f"MPC {TOP} clk vdd vdd pmos_soi",
    f"MPI out {TOP} vdd vdd pmos_soi",
    f"MNI out {TOP} {GND} {GND} nmos_soi",
    f"MPK {TOP} out vdd vdd pmos_soi",
)
#: The n-clock foot (footed gates only).
_FOOT_CARD = f"MNF {FOOT} clk {GND} {GND} nmos_soi"


def _write_gate(gate: DominoGate, handle: TextIO):
    """Write one gate's subcircuit; ``(device count, port signals)``."""
    flat = flatten_gate(gate)
    transistors = flat.transistors
    ports = sorted({t.signal for t in transistors})
    cards = [f".subckt {gate.name} out clk {' '.join(ports)}"]
    # Pulldown network.
    cards += [f"MN{i} {upper} {signal} {lower} body_n{i} nmos_soi"
              for i, (signal, _, upper, lower) in enumerate(transistors)]
    cards += _OVERHEAD_CARDS
    if gate.footed:
        cards.append(_FOOT_CARD)
    # p-discharge transistors: on during precharge (clk low).
    cards += [f"MPD{i} {node} clk {GND} vdd pmos_soi"
              for i, node in enumerate(flat.discharge_nodes)]
    count = len(cards) - 1
    cards.append(f".ends {gate.name}\n")
    handle.write("\n".join(cards))
    return count, ports


def write_circuit_netlist(circuit: DominoCircuit, handle: TextIO) -> int:
    """Write the whole circuit; returns the total device count.

    The returned count equals ``circuit.cost().t_total`` — the inverter,
    keeper and clock devices are part of ``t_logic`` in the paper's
    accounting, and every one of them is emitted here.
    """
    handle.write(f"* domino circuit {circuit.name}\n")
    handle.write(f"* inputs: {' '.join(circuit.inputs)}\n")
    handle.write(f"* outputs: "
                 f"{' '.join(f'{po}<-{sig}' for po, sig in circuit.outputs.items())}\n")
    total = 0
    gate_ports: List[List[str]] = []
    for gate in circuit.gates:
        count, ports = _write_gate(gate, handle)
        total += count
        gate_ports.append(ports)
    handle.write("* instance wiring\n")
    for gate, ports in zip(circuit.gates, gate_ports):
        handle.write(f"X{gate.name} {gate.name} clk {' '.join(ports)} "
                     f"{gate.name}\n")
    handle.write(".end\n")
    return total


def circuit_netlist(circuit: DominoCircuit) -> str:
    """Return the netlist text for a circuit."""
    import io

    buf = io.StringIO()
    write_circuit_netlist(circuit, buf)
    return buf.getvalue()
