"""Flattening domino gates into electrical-node transistor netlists.

The PBE simulator (and the transistor-netlist writer) need the pulldown
*structure tree* expanded into explicit circuit nodes and two-terminal
transistor records.  Junction nodes are numbered so that they correspond
exactly to the path-addressed :data:`~repro.domino.analysis.DischargePoint`
identifiers produced by the static analysis: the junction below child
``i`` of the series composition at tree path ``p`` is ``(p, i)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..domino.analysis import DischargePoint
from ..domino.gate import DominoGate
from ..domino.structure import Leaf, Parallel, Pulldown, Series

#: Reserved node ids inside a flattened gate.
TOP = "top"      #: the dynamic (precharged) node
GND = "gnd"      #: ground
FOOT = "foot"    #: stack bottom above the n-clock foot (footed gates only)


@dataclass(frozen=True)
class FlatTransistor:
    """One pulldown nmos device.

    ``upper`` is the terminal toward the dynamic node, ``lower`` the
    terminal toward ground; ``signal`` drives the transistor gate.
    """

    signal: str
    is_primary: bool
    upper: str
    lower: str


@dataclass
class FlatGate:
    """A domino gate flattened to electrical nodes.

    Attributes
    ----------
    gate:
        The source :class:`DominoGate`.
    transistors:
        Pulldown devices, in structure (leaf) order.
    internal_nodes:
        All junction node ids (excluding TOP/GND/FOOT).
    junction_of:
        Maps each :data:`DischargePoint` to its node id.
    discharge_nodes:
        Node ids that carry a p-discharge transistor.
    bottom:
        ``GND`` for footless gates, ``FOOT`` for footed ones.
    """

    gate: DominoGate
    transistors: List[FlatTransistor] = field(default_factory=list)
    internal_nodes: List[str] = field(default_factory=list)
    junction_of: Dict[DischargePoint, str] = field(default_factory=dict)
    discharge_nodes: List[str] = field(default_factory=list)
    bottom: str = GND


def flatten_gate(gate: DominoGate) -> FlatGate:
    """Expand ``gate``'s pulldown structure into a :class:`FlatGate`."""
    flat = FlatGate(gate=gate, bottom=FOOT if gate.footed else GND)
    _expand(flat, gate.structure, TOP, flat.bottom, ())
    for point in gate.discharge_points:
        try:
            flat.discharge_nodes.append(flat.junction_of[point])
        except KeyError:
            raise ValueError(
                f"gate {gate.name}: discharge point {point} does not "
                "correspond to a junction of the structure") from None
    return flat


def _expand(flat: FlatGate, structure: Pulldown, upper: str, lower: str,
            path: Tuple[int, ...]) -> None:
    """Append ``structure``'s devices between ``upper`` and ``lower``.

    A module-level function rather than a recursive closure inside
    :func:`flatten_gate`: a closure that calls itself references its own
    cell, a cycle only the cyclic garbage collector can free.
    """
    if isinstance(structure, Leaf):
        flat.transistors.append(FlatTransistor(
            signal=structure.signal,
            is_primary=structure.is_primary,
            upper=upper,
            lower=lower,
        ))
        return
    if isinstance(structure, Parallel):
        for i, child in enumerate(structure.children):
            _expand(flat, child, upper, lower, path + (i,))
        return
    if isinstance(structure, Series):
        n = len(structure.children)
        node_above = upper
        for i, child in enumerate(structure.children):
            if i == n - 1:
                node_below = lower
            else:
                # junctions are numbered n1, n2, ... in creation order
                node_below = f"n{len(flat.internal_nodes) + 1}"
                flat.internal_nodes.append(node_below)
            _expand(flat, child, node_above, node_below, path + (i,))
            if i < n - 1:
                flat.junction_of[(path, i)] = node_below
            node_above = node_below
        return
    raise TypeError(f"unknown structure node {type(structure)!r}")
