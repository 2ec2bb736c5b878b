"""ISCAS-85/89 ``.bench`` netlist reader and writer.

The paper evaluates on ISCAS benchmark circuits, which are conventionally
distributed in the ``.bench`` format::

    # comment
    INPUT(G1)
    OUTPUT(G17)
    G10 = NAND(G1, G3)
    G17 = NOT(G10)

Supported gate keywords: AND, OR, NAND, NOR, XOR, XNOR, NOT, BUF/BUFF,
DFF (treated as a cut: the D pin becomes a pseudo primary output and the
Q pin a pseudo primary input, turning sequential benchmarks into their
combinational cores, which is what mapping operates on).
"""

from __future__ import annotations

import re
from typing import Dict, List, TextIO, Tuple, Union

from ..errors import ParseError
from ..network import LogicNetwork, NodeType

_GATE_TYPES = {
    "AND": NodeType.AND,
    "OR": NodeType.OR,
    "NAND": NodeType.NAND,
    "NOR": NodeType.NOR,
    "XOR": NodeType.XOR,
    "XNOR": NodeType.XNOR,
    "NOT": NodeType.INV,
    "INV": NodeType.INV,
    "BUF": NodeType.BUF,
    "BUFF": NodeType.BUF,
}

_LINE_RE = re.compile(
    r"^\s*(?:"
    r"(?P<io>INPUT|OUTPUT)\s*\(\s*(?P<io_name>[^\s()]+)\s*\)"
    r"|(?P<lhs>[^\s=]+)\s*=\s*(?P<op>[A-Za-z]+)\s*\(\s*(?P<args>[^()]*)\)"
    r")\s*$",
    re.IGNORECASE,
)


def read_bench(source: Union[str, TextIO], name: str = "",
               filename: str = "<string>") -> LogicNetwork:
    """Parse ``.bench`` text (a string or a file object) into a network."""
    if hasattr(source, "read"):
        text = source.read()
        filename = getattr(source, "name", filename)
    else:
        text = source

    inputs: List[str] = []
    outputs: List[str] = []
    gates: Dict[str, Tuple[NodeType, List[str], int]] = {}
    dff_pairs: List[Tuple[str, str]] = []  # (q_name, d_signal)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise ParseError(f"cannot parse line {raw!r}", filename, lineno)
        if m.group("io"):
            if m.group("io").upper() == "INPUT":
                inputs.append(m.group("io_name"))
            else:
                outputs.append(m.group("io_name"))
            continue
        lhs = m.group("lhs")
        op = m.group("op").upper()
        args = [a.strip() for a in m.group("args").split(",") if a.strip()]
        if op == "DFF":
            if len(args) != 1:
                raise ParseError(f"DFF takes one input, got {args}",
                                 filename, lineno)
            dff_pairs.append((lhs, args[0]))
            continue
        if op not in _GATE_TYPES:
            raise ParseError(f"unknown gate type {op!r}", filename, lineno)
        if lhs in gates:
            raise ParseError(f"signal {lhs!r} defined twice", filename, lineno)
        gates[lhs] = (_GATE_TYPES[op], args, lineno)

    network = LogicNetwork(name or filename)
    ids: Dict[str, int] = {}
    for pi in inputs:
        ids[pi] = network.add_pi(pi)
    for q, _d in dff_pairs:
        # Flip-flop outputs behave as primary inputs of the combinational core.
        ids[q] = network.add_pi(q)

    # Gates may be declared in any order: resolve with a dependency walk.
    resolving: Dict[str, int] = {}

    def build(signal: str, lineno: int) -> int:
        if signal in ids:
            return ids[signal]
        if signal not in gates:
            raise ParseError(f"undefined signal {signal!r}", filename, lineno)
        if resolving.get(signal):
            raise ParseError(f"combinational cycle through {signal!r}",
                             filename, lineno)
        resolving[signal] = 1
        node_type, args, gate_line = gates[signal]
        fanins = [build(a, gate_line) for a in args]
        resolving[signal] = 0
        try:
            ids[signal] = network.add_gate(node_type, fanins, signal)
        except ValueError as exc:  # a fanin count the gate type forbids
            raise ParseError(str(exc), filename, gate_line) from None
        return ids[signal]

    import sys
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 4 * len(gates) + 1000))
    try:
        for po in outputs:
            network.add_po(build(po, 0), po)
        for q, d in dff_pairs:
            # Flip-flop inputs are pseudo primary outputs.
            network.add_po(build(d, 0), f"{q}_next")
    finally:
        sys.setrecursionlimit(old)
    return network


def load_bench(path: str) -> LogicNetwork:
    """Read a ``.bench`` file from disk."""
    with open(path) as handle:
        return read_bench(handle, name=_basename(path), filename=path)


def write_bench(network: LogicNetwork, handle: TextIO) -> None:
    """Write a network in ``.bench`` format.

    Internal gates get synthetic unique names (``s<uid>``); primary
    outputs are emitted as BUFF gates carrying their original names, so a
    round trip preserves the PI/PO interface exactly.  Constants are not
    expressible in ``.bench`` and raise :class:`ParseError`.
    """
    op_names = {
        NodeType.AND: "AND",
        NodeType.OR: "OR",
        NodeType.NAND: "NAND",
        NodeType.NOR: "NOR",
        NodeType.XOR: "XOR",
        NodeType.XNOR: "XNOR",
        NodeType.INV: "NOT",
        NodeType.BUF: "BUFF",
    }
    handle.write(f"# {network.name}\n")
    for pi in network.pis:
        handle.write(f"INPUT({network.node(pi).label})\n")
    for po in network.pos:
        handle.write(f"OUTPUT({network.node(po).label})\n")
    names: Dict[int, str] = {}
    for uid in network.topological_order():
        node = network.node(uid)
        if node.type is NodeType.PI:
            names[uid] = node.label
        elif node.type is NodeType.PO:
            handle.write(f"{node.label} = BUFF({names[node.fanins[0]]})\n")
        elif node.type in op_names:
            names[uid] = f"s{uid}"
            args = ", ".join(names[f] for f in node.fanins)
            handle.write(f"{names[uid]} = {op_names[node.type]}({args})\n")
        else:
            raise ParseError(
                f"gate type {node.type.value} not expressible in .bench")


def save_bench(network: LogicNetwork, path: str) -> None:
    with open(path, "w") as handle:
        write_bench(network, handle)


def _basename(path: str) -> str:
    import os

    return os.path.splitext(os.path.basename(path))[0]
