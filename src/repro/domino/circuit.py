"""Domino circuit container and whole-circuit accounting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..errors import StructureError
from .gate import DominoGate
from .structure import Leaf


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
        #: the same names as a set: a membership test per added input
        #: would otherwise scan the list, quadratic in the input count
        self._input_names: Set[str] = set()

    # ------------------------------------------------------------------
    def add_input(self, name: str) -> None:
        if name not in self._input_names:
            self._input_names.add(name)
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
        """Recompute ``gate.level`` from the wiring (1 + max driver level).

        Raises :class:`StructureError` on a driver that names no gate
        and on a combinational cycle.
        """
        for gate, drivers in self._ordered_drivers():
            depth = 0
            for driver in drivers:
                if driver.level > depth:
                    depth = driver.level
            gate.level = depth + 1

    def _topological_gates(self) -> List[DominoGate]:
        """Gates ordered so drivers precede users."""
        return [gate for gate, _ in self._ordered_drivers()]

    def _ordered_drivers(self) -> List[Tuple[DominoGate, List[DominoGate]]]:
        """``(gate, driver gates)`` pairs, drivers before their users.

        A depth-first post-order over the gates in insertion order, each
        gate's drivers in leaf order, on an explicit stack (no recursion
        limit on the circuit's gate depth).  Each gate's driver list is
        read from its structure once.  Raises :class:`StructureError`
        when a driver names no gate, or on a combinational cycle.
        """
        by_name = self._by_name
        #: gate name -> 1 while on the walk's stack, 2 once ordered
        state: Dict[str, int] = {}
        order: List[Tuple[DominoGate, List[DominoGate]]] = []
        for root in self._gates:
            if root.name in state:
                continue
            state[root.name] = 1
            stack = [(root, iter(_driver_signals(root)), [])]
            while stack:
                gate, signals, drivers = stack[-1]
                for signal in signals:
                    driver = by_name.get(signal)
                    if driver is None:
                        raise StructureError(
                            f"gate {gate.name!r} references unknown driver "
                            f"{signal!r}")
                    drivers.append(driver)
                    mark = state.get(signal, 0)
                    if mark == 1:
                        raise StructureError(
                            f"combinational cycle through gate {signal!r}")
                    if mark == 0:
                        state[signal] = 1
                        stack.append(
                            (driver, iter(_driver_signals(driver)), []))
                        break
                else:
                    stack.pop()
                    state[gate.name] = 2
                    order.append((gate, drivers))
        return order

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


def _driver_signals(gate: DominoGate) -> List[str]:
    """Names of the gates driving ``gate``'s pulldown, in leaf order,
    from one explicit-stack walk."""
    signals: List[str] = []
    stack = [gate.structure]
    while stack:
        node = stack.pop()
        if type(node) is Leaf:
            if not node.is_primary:
                signals.append(node.signal)
        else:
            stack.extend(reversed(node.children))
    return signals
