"""Domino circuit container and whole-circuit accounting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import StructureError
from .gate import DominoGate


@dataclass(frozen=True)
class CircuitCost:
    """Whole-circuit transistor accounting (the rows of Tables I-IV)."""

    t_logic: int
    t_disch: int
    t_clock: int
    num_gates: int
    levels: int

    @property
    def t_total(self) -> int:
        return self.t_logic + self.t_disch

    def as_dict(self) -> Dict[str, int]:
        return {
            "T_logic": self.t_logic,
            "T_disch": self.t_disch,
            "T_total": self.t_total,
            "T_clock": self.t_clock,
            "#G": self.num_gates,
            "L": self.levels,
        }

    def __str__(self) -> str:
        return (f"T_logic={self.t_logic} T_disch={self.t_disch} "
                f"T_total={self.t_total} T_clock={self.t_clock} "
                f"#G={self.num_gates} L={self.levels}")


class DominoCircuit:
    """A mapped domino circuit: a set of gates wired by signal names.

    Gate pulldown leaves refer to driving signals by name; primary-input
    leaves are marked as such.  Primary outputs name the gate (or, in
    degenerate cases, the primary input / constant) that drives them.
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._gates: List[DominoGate] = []
        self._by_name: Dict[str, DominoGate] = {}
        #: PO name -> driving signal name
        self.outputs: Dict[str, str] = {}
        #: PO name -> constant value, for constant outputs
        self.const_outputs: Dict[str, bool] = {}
        #: primary input names (positive and complemented phases)
        self.inputs: List[str] = []

    # ------------------------------------------------------------------
    def add_input(self, name: str) -> None:
        if name not in self.inputs:
            self.inputs.append(name)

    def add_gate(self, gate: DominoGate) -> DominoGate:
        if gate.name in self._by_name:
            raise StructureError(f"duplicate gate name {gate.name!r}")
        self._gates.append(gate)
        self._by_name[gate.name] = gate
        return gate

    def connect_output(self, po_name: str, signal: str) -> None:
        self.outputs[po_name] = signal

    def set_const_output(self, po_name: str, value: bool) -> None:
        self.const_outputs[po_name] = value

    # ------------------------------------------------------------------
    @property
    def gates(self) -> Tuple[DominoGate, ...]:
        return tuple(self._gates)

    def gate(self, name: str) -> DominoGate:
        try:
            return self._by_name[name]
        except KeyError:
            raise StructureError(f"no gate named {name!r}") from None

    def has_gate(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._gates)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def cost(self) -> CircuitCost:
        """Aggregate transistor accounting over all gates."""
        return CircuitCost(
            t_logic=sum(g.t_logic for g in self._gates),
            t_disch=sum(g.t_disch for g in self._gates),
            t_clock=sum(g.t_clock for g in self._gates),
            num_gates=len(self._gates),
            levels=self.levels(),
        )

    def levels(self) -> int:
        """Maximum domino gate depth over all primary outputs."""
        if not self._gates:
            return 0
        return max((g.level for g in self._gates), default=0)

    def digest(self) -> str:
        """sha256 of the transistor netlist: the bit-identity witness.

        Two mapping runs are equivalent iff their digests agree; the
        batch runner, the bench harness, and the pinned seed-digest
        tests all compare this value.
        """
        import hashlib

        from ..io.netlist_text import circuit_netlist

        return hashlib.sha256(circuit_netlist(self).encode()).hexdigest()

    def recompute_levels(self) -> None:
        """Recompute ``gate.level`` from the wiring (1 + max driver level)."""
        order = self._topological_gates()
        for gate in order:
            depth = 0
            for leaf in gate.structure.leaves():
                if not leaf.is_primary:
                    depth = max(depth, self._by_name[leaf.signal].level)
            gate.level = depth + 1

    def _topological_gates(self) -> List[DominoGate]:
        """Gates ordered so drivers precede users."""
        state: Dict[str, int] = {}
        order: List[DominoGate] = []
        import sys
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 10 * len(self._gates) + 1000))
        try:
            for gate in self._gates:
                self._visit_gate(gate, state, order)
        finally:
            sys.setrecursionlimit(old_limit)
        return order

    def _visit_gate(self, gate: DominoGate, state: Dict[str, int],
                    order: List[DominoGate]) -> None:
        """Depth-first step of :meth:`_topological_gates`.

        A method rather than a recursive closure: a closure that calls
        itself references its own cell, a cycle only the cyclic garbage
        collector can free.
        """
        mark = state.get(gate.name, 0)
        if mark == 2:
            return
        if mark == 1:
            raise StructureError(
                f"combinational cycle through gate {gate.name!r}")
        state[gate.name] = 1
        stackless = [leaf.signal for leaf in gate.structure.leaves()
                     if not leaf.is_primary]
        for signal in stackless:
            if signal not in self._by_name:
                raise StructureError(
                    f"gate {gate.name!r} references unknown driver "
                    f"{signal!r}")
            self._visit_gate(self._by_name[signal], state, order)
        state[gate.name] = 2
        order.append(gate)

    def validate(self, w_max: Optional[int] = None,
                 h_max: Optional[int] = None) -> None:
        """Validate every gate plus the inter-gate wiring."""
        known = set(self.inputs)
        for gate in self._gates:
            gate.validate(w_max=w_max, h_max=h_max)
            for leaf in gate.structure.leaves():
                if leaf.is_primary:
                    if leaf.signal not in known:
                        raise StructureError(
                            f"gate {gate.name!r} uses unknown primary input "
                            f"{leaf.signal!r}")
                elif leaf.signal not in self._by_name:
                    raise StructureError(
                        f"gate {gate.name!r} uses unknown gate output "
                        f"{leaf.signal!r}")
        for po, signal in self.outputs.items():
            if signal not in self._by_name and signal not in known:
                raise StructureError(
                    f"output {po!r} driven by unknown signal {signal!r}")
        self._topological_gates()  # raises on cycles

    def __repr__(self) -> str:
        return (f"DominoCircuit({self.name!r}, gates={len(self._gates)}, "
                f"inputs={len(self.inputs)}, outputs={len(self.outputs)})")
