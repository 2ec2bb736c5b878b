"""Network clean-up: constant propagation, redundancy removal, dedup.

``sweep`` is run between synthesis passes so the mapper sees a clean
2-input AND/OR(/INV) network: no constants feeding gates, no double
inverters, no structurally duplicate gates, no dangling logic.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..network import LogicNetwork, NodeType

PI, PO, INV, BUF = NodeType.PI, NodeType.PO, NodeType.INV, NodeType.BUF
AND, OR = NodeType.AND, NodeType.OR
CONST0, CONST1 = NodeType.CONST0, NodeType.CONST1


def sweep(network: LogicNetwork) -> LogicNetwork:
    """Return a cleaned structural copy of ``network``.

    Applies, in one topological pass:

    * constant propagation through AND/OR/INV/BUF gates,
    * single-fanin AND/OR collapsing and BUF elimination,
    * double-inverter elimination (``!!a -> a``),
    * idempotence (``a*a -> a``, ``a+a -> a``),
    * structural hashing (two gates with the same function and fanins
      are merged; AND/OR fanins are treated as unordered),

    then drops any logic not reachable from a PO.  PIs are always kept.
    """
    out = LogicNetwork(network.name)
    new_id: Dict[int, int] = {}
    # (is_and, low id, high id) -> gate: keyed on a bool, not the
    # NodeType, so hashing a key never calls the Python-level Enum.__hash__.
    strash: Dict[Tuple[bool, int, int], int] = {}
    const_cache: Dict[bool, int] = {}
    const_of: Dict[int, bool] = {}  # constant new-id -> its value
    inv_of: Dict[int, int] = {}   # new-id -> id of its inverter output
    inv_src: Dict[int, int] = {}  # inverter new-id -> its fanin new-id
    const_value = const_of.get    # new-id -> True/False, None if not constant

    def make_const(value: bool) -> int:
        if value not in const_cache:
            uid = out.add_const(value)
            const_cache[value] = uid
            const_of[uid] = value
        return const_cache[value]

    def make_inv(fanin: int, name: str = "") -> int:
        value = const_value(fanin)
        if value is not None:
            return make_const(not value)
        if fanin in inv_src:          # !!a -> a
            return inv_src[fanin]
        if fanin in inv_of:           # reuse an existing inverter
            return inv_of[fanin]
        uid = out.add_inv(fanin, name)
        inv_of[fanin] = uid
        inv_src[uid] = fanin
        return uid

    def complementary(a: int, b: int) -> bool:
        return inv_src.get(a) == b or inv_src.get(b) == a

    def make_gate(t: NodeType, a: int, b: int, name: str = "") -> int:
        ca, cb = const_value(a), const_value(b)
        is_and = t is AND
        if is_and:
            if ca is False or cb is False:
                return make_const(False)
            if ca is True:
                return b
            if cb is True:
                return a
            if complementary(a, b):  # a * !a
                return make_const(False)
        else:  # OR
            if ca is True or cb is True:
                return make_const(True)
            if ca is False:
                return b
            if cb is False:
                return a
            if complementary(a, b):  # a + !a
                return make_const(True)
        if a == b:
            return a
        key = (is_and, a, b) if a < b else (is_and, b, a)
        uid = strash.get(key)
        if uid is None:
            uid = (out.add_and if is_and else out.add_or)(a, b, name=name)
            strash[key] = uid
        return uid

    nodes = network._nodes
    for uid in network.topological_order():
        node = nodes[uid]
        t = node.type
        fanins = node.fanins
        andor = t is AND or t is OR
        if andor and len(fanins) == 2:
            new_id[uid] = make_gate(t, new_id[fanins[0]], new_id[fanins[1]],
                                    node.name)
        elif t is INV:
            new_id[uid] = make_inv(new_id[fanins[0]], node.name)
        elif t is PI:
            new_id[uid] = out.add_pi(node.name)
        elif t is PO:
            new_id[uid] = out.add_po(new_id[fanins[0]], node.name)
        elif t is CONST0:
            new_id[uid] = make_const(False)
        elif t is CONST1:
            new_id[uid] = make_const(True)
        elif t is BUF or (andor and len(fanins) == 1):
            new_id[uid] = new_id[fanins[0]]
        else:
            # Wider or non-AND/OR gates: copy verbatim (sweep may be called
            # before decomposition).
            new_id[uid] = out.add_gate(
                t, tuple(new_id[f] for f in fanins), node.name)

    out.remove_unused()
    return out
