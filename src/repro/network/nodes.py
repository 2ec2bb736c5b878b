"""Node types for technology-independent logic networks.

The mapper operates on networks of 2-input AND/OR nodes (after unate
conversion); the front end additionally understands inverters, constants,
and wide gates produced by the netlist readers before decomposition.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from typing import Tuple


class NodeType(enum.Enum):
    """Kind of a node in a :class:`~repro.network.network.LogicNetwork`."""

    PI = "pi"          #: primary input (no fanins)
    PO = "po"          #: primary output (single fanin, no function)
    AND = "and"        #: AND of the fanins (any fanin count >= 1)
    OR = "or"          #: OR of the fanins (any fanin count >= 1)
    NAND = "nand"      #: NAND (front-end only; removed by decomposition)
    NOR = "nor"        #: NOR (front-end only; removed by decomposition)
    XOR = "xor"        #: XOR (front-end only; removed by decomposition)
    XNOR = "xnor"      #: XNOR (front-end only; removed by decomposition)
    INV = "inv"        #: inverter (removed by unate conversion)
    BUF = "buf"        #: buffer (removed by sweeping)
    CONST0 = "const0"  #: constant logic 0
    CONST1 = "const1"  #: constant logic 1

    @property
    def is_source(self) -> bool:
        """True for nodes that take no fanins (PIs and constants)."""
        return self in _SOURCE_TYPES

    @property
    def is_gate(self) -> bool:
        """True for nodes that compute a logic function of their fanins."""
        return self in _GATE_TYPES

    @property
    def is_monotone(self) -> bool:
        """True for gates a domino pulldown network can realize directly."""
        return self in _MONOTONE_TYPES

    @property
    def dual(self) -> "NodeType":
        """The DeMorgan dual used by bubble pushing (AND <-> OR, etc.)."""
        try:
            return _DUALS[self]
        except KeyError:
            raise ValueError(f"{self} has no DeMorgan dual") from None


# Built once for NodeType's properties.  The classes are tuples, not
# frozensets: tuple membership compares members by identity, where a set
# would call the Python-level ``Enum.__hash__``.
_SOURCE_TYPES = (NodeType.PI, NodeType.CONST0, NodeType.CONST1)
_GATE_TYPES = (NodeType.AND, NodeType.OR, NodeType.NAND, NodeType.NOR,
               NodeType.XOR, NodeType.XNOR, NodeType.INV, NodeType.BUF)
_MONOTONE_TYPES = (NodeType.AND, NodeType.OR, NodeType.BUF)
_DUALS = {
    NodeType.AND: NodeType.OR,
    NodeType.OR: NodeType.AND,
    NodeType.NAND: NodeType.NOR,
    NodeType.NOR: NodeType.NAND,
    NodeType.CONST0: NodeType.CONST1,
    NodeType.CONST1: NodeType.CONST0,
}

#: Node type -> (min, max) legal fanin count; :func:`_check_fanin_count`
#: words the error for a count outside it.
_FANIN_BOUNDS = {
    **{t: (0, 0) for t in _SOURCE_TYPES},
    **{t: (1, 1) for t in (NodeType.PO, NodeType.INV, NodeType.BUF)},
    **{t: (1, sys.maxsize) for t in (NodeType.AND, NodeType.OR,
                                     NodeType.NAND, NodeType.NOR,
                                     NodeType.XOR, NodeType.XNOR)},
}


#: Node types permitted in a mapper-ready network (2-input AND/OR + sources).
MAPPABLE_TYPES = frozenset({NodeType.PI, NodeType.PO, NodeType.AND, NodeType.OR})


@dataclass
class LogicNode:
    """One node of a logic network.

    A direct ``LogicNode(...)`` call checks the fanin count against the
    type.  :class:`~repro.network.network.LogicNetwork` builds its nodes
    through :meth:`_prechecked` instead: ``_add`` has already made that
    check (plus the fanin-existence and no-PO-fanin checks), so the node
    is built without running :meth:`__post_init__` a second time.

    Attributes
    ----------
    uid:
        Integer id, unique within the owning network.
    type:
        The :class:`NodeType`.
    fanins:
        Ids of fanin nodes, in order.  Empty for sources.
    name:
        Optional human-readable signal name (preserved from netlists).
    """

    uid: int
    type: NodeType
    fanins: Tuple[int, ...] = field(default_factory=tuple)
    name: str = ""

    def __post_init__(self):
        self.fanins = tuple(self.fanins)
        _check_fanin_count(self.type, len(self.fanins))

    @classmethod
    def _prechecked(cls, uid: int, node_type: NodeType,
                    fanins: Tuple[int, ...], name: str) -> "LogicNode":
        """A node whose ``fanins`` tuple the caller has already checked."""
        node = object.__new__(cls)
        node.uid = uid
        node.type = node_type
        node.fanins = fanins
        node.name = name
        return node

    @property
    def is_pi(self) -> bool:
        return self.type is NodeType.PI

    @property
    def is_po(self) -> bool:
        return self.type is NodeType.PO

    @property
    def is_const(self) -> bool:
        t = self.type
        return t is NodeType.CONST0 or t is NodeType.CONST1

    @property
    def label(self) -> str:
        """Name if present, else ``n<uid>``."""
        return self.name or f"n{self.uid}"

    def evaluate(self, values) -> bool:
        """Evaluate this node's function over boolean fanin ``values``.

        ``values`` must have one entry per fanin.  Sources cannot be
        evaluated this way (PIs take their value from stimulus).
        """
        t = self.type
        if t is NodeType.AND:
            return all(values)
        if t is NodeType.OR:
            return any(values)
        if t is NodeType.NAND:
            return not all(values)
        if t is NodeType.NOR:
            return not any(values)
        if t is NodeType.XOR:
            return sum(bool(v) for v in values) % 2 == 1
        if t is NodeType.XNOR:
            return sum(bool(v) for v in values) % 2 == 0
        if t is NodeType.INV:
            return not values[0]
        if t in (NodeType.BUF, NodeType.PO):
            return bool(values[0])
        if t is NodeType.CONST0:
            return False
        if t is NodeType.CONST1:
            return True
        raise ValueError(f"cannot evaluate node of type {t}")


def _check_fanin_count(node_type: NodeType, count: int) -> None:
    """Raise ``ValueError`` if ``count`` fanins is illegal for ``node_type``."""
    low, high = _FANIN_BOUNDS[node_type]
    if low <= count <= high:
        return
    if high == 0:
        raise ValueError(f"{node_type} node must have no fanins, got {count}")
    if high == 1:
        raise ValueError(f"{node_type} node must have exactly 1 fanin, got {count}")
    raise ValueError(f"{node_type} node must have at least 1 fanin")
