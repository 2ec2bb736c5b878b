"""Decomposition into 2-input AND/OR + inverter networks.

The mappers (paper §IV) start "from an initial decomposed network
consisting of 2-input AND-OR gates and inverters".  This pass takes the
richer node vocabulary produced by the netlist readers (wide gates, NAND,
NOR, XOR, XNOR, BUF) and rewrites everything into that form.

Wide AND/OR gates become *balanced* binary trees, which minimizes the
decomposed depth and is the conventional starting point for tree-based
domino mapping.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..errors import NetworkError
from ..network import LogicNetwork, NodeType

PI, PO, INV, BUF = NodeType.PI, NodeType.PO, NodeType.INV, NodeType.BUF
AND, OR, NAND, NOR = NodeType.AND, NodeType.OR, NodeType.NAND, NodeType.NOR
XOR, XNOR = NodeType.XOR, NodeType.XNOR
CONST0, CONST1 = NodeType.CONST0, NodeType.CONST1


def _balanced_tree(network: LogicNetwork, op: NodeType,
                   leaves: Sequence[int], name: str = "") -> int:
    """Reduce ``leaves`` with 2-input ``op`` gates arranged as a balanced tree."""
    if not leaves:
        raise NetworkError(f"cannot build {op.value} tree with no leaves")
    add = network.add_and if op is AND else network.add_or
    layer: List[int] = list(leaves)
    while len(layer) > 1:
        nxt: List[int] = []
        for i in range(0, len(layer) - 1, 2):
            nxt.append(add(layer[i], layer[i + 1]))
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    if name:
        network.node(layer[0]).name = network.node(layer[0]).name or name
    return layer[0]


def decompose(network: LogicNetwork) -> LogicNetwork:
    """Return an equivalent network of 2-input AND/OR gates and inverters.

    PI and PO names are preserved, so the result can be equivalence-checked
    against the input with :func:`repro.sim.assert_equivalent`.
    """
    out = LogicNetwork(network.name)
    new_id: Dict[int, int] = {}
    nodes = network._nodes
    add_inv = out.add_inv

    for uid in network.topological_order():
        node = nodes[uid]
        t = node.type
        fanins = [new_id[f] for f in node.fanins]

        if t is AND or t is OR:
            if len(fanins) == 1:
                new_id[uid] = fanins[0]
            else:
                new_id[uid] = _balanced_tree(out, t, fanins, node.name)
        elif t is INV:
            new_id[uid] = add_inv(fanins[0], node.name)
        elif t is PI:
            new_id[uid] = out.add_pi(node.name)
        elif t is PO:
            new_id[uid] = out.add_po(fanins[0], node.name)
        elif t is CONST0 or t is CONST1:
            new_id[uid] = out.add_const(t is CONST1, node.name)
        elif t is BUF:
            new_id[uid] = fanins[0]
        elif t is NAND or t is NOR:
            base = AND if t is NAND else OR
            inner = fanins[0] if len(fanins) == 1 else _balanced_tree(
                out, base, fanins)
            new_id[uid] = add_inv(inner, node.name)
        elif t is XOR or t is XNOR:
            new_id[uid] = _decompose_xor_chain(
                out, fanins, invert=(t is XNOR), name=node.name)
        else:  # pragma: no cover - the enum is closed
            raise NetworkError(f"cannot decompose node type {t}")

    return out


def _decompose_xor_chain(network: LogicNetwork, fanins: Sequence[int],
                         invert: bool, name: str = "") -> int:
    """XOR/XNOR of ``fanins`` as 2-input AND/OR/INV logic.

    ``a ^ b`` is expanded to ``(a * !b) + (!a * b)``; wide XORs become a
    left-to-right chain of those expansions.
    """
    acc = fanins[0]
    for rhs in fanins[1:]:
        not_acc = network.add_inv(acc)
        not_rhs = network.add_inv(rhs)
        left = network.add_and(acc, not_rhs)
        right = network.add_and(not_acc, rhs)
        acc = network.add_or(left, right)
    if invert:
        acc = network.add_inv(acc)
    if name:
        network.node(acc).name = network.node(acc).name or name
    return acc


def is_decomposed(network: LogicNetwork) -> bool:
    """True if the network is 2-input AND/OR + INV (plus PI/PO/constants)."""
    for node in network:
        t = node.type
        if t in (PI, PO, INV, CONST0, CONST1):
            continue
        if (t is AND or t is OR) and len(node.fanins) == 2:
            continue
        return False
    return True
