"""Berkeley Logic Interchange Format (BLIF) reader and writer.

Supports the combinational subset used by the MCNC benchmark suite:
``.model``, ``.inputs``, ``.outputs``, ``.names`` (PLA-style single-output
cover) and ``.latch`` (cut into pseudo PI/PO, as with DFFs in ``.bench``).
Covers are converted into AND/OR/INV trees: each cube becomes an AND of
literals, the cube set an OR; covers of the ``0`` phase are inverted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TextIO, Tuple, Union

from ..errors import ParseError
from ..network import LogicNetwork, NodeType


class _Cover:
    """A ``.names`` record: inputs, output, cubes and output phase."""

    __slots__ = ("inputs", "output", "cubes", "phase", "lineno")

    def __init__(self, inputs: List[str], output: str, lineno: int):
        self.inputs = inputs
        self.output = output
        self.cubes: List[str] = []
        self.phase: Optional[str] = None
        self.lineno = lineno


def read_blif(source: Union[str, TextIO], name: str = "",
              filename: str = "<string>") -> LogicNetwork:
    """Parse BLIF text (string or file object) into a network."""
    if hasattr(source, "read"):
        text = source.read()
        filename = getattr(source, "name", filename)
    else:
        text = source

    # Join continuation lines, strip comments.
    lines: List[Tuple[int, str]] = []
    pending = ""
    pending_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.endswith("\\"):
            if not pending:
                pending_line = lineno
            pending += line[:-1] + " "
            continue
        if pending:
            lines.append((pending_line, pending + line))
            pending = ""
        else:
            lines.append((lineno, line))
    if pending.strip():
        lines.append((pending_line, pending))

    model_name = name
    inputs: List[str] = []
    outputs: List[str] = []
    covers: List[_Cover] = []
    latches: List[Tuple[str, str]] = []  # (data_in, q_out)
    current: Optional[_Cover] = None

    for lineno, line in lines:
        tokens = line.split()
        key = tokens[0]
        if key.startswith("."):
            current = None
        if key == ".model":
            model_name = model_name or (tokens[1] if len(tokens) > 1 else "")
        elif key == ".inputs":
            inputs.extend(tokens[1:])
        elif key == ".outputs":
            outputs.extend(tokens[1:])
        elif key == ".names":
            if len(tokens) < 2:
                raise ParseError(".names needs at least an output",
                                 filename, lineno)
            current = _Cover(tokens[1:-1], tokens[-1], lineno)
            covers.append(current)
        elif key == ".latch":
            if len(tokens) < 3:
                raise ParseError(".latch needs input and output",
                                 filename, lineno)
            latches.append((tokens[1], tokens[2]))
        elif key == ".end":
            break
        elif key.startswith("."):
            # .clock, .default_input_arrival etc.: ignored.
            continue
        else:
            if current is None:
                raise ParseError(f"unexpected line {line!r}", filename, lineno)
            if len(current.inputs) == 0:
                # Constant: single-column truth value.
                value = tokens[0]
                if value not in ("0", "1"):
                    raise ParseError(f"bad constant row {line!r}",
                                     filename, lineno)
                current.cubes.append("")
                current.phase = value
                continue
            if len(tokens) != 2:
                raise ParseError(f"bad cover row {line!r}", filename, lineno)
            cube, out = tokens
            if out not in ("0", "1"):
                raise ParseError(f"bad output phase {out!r}",
                                 filename, lineno)
            if len(cube) != len(current.inputs):
                raise ParseError(
                    f"cube width {len(cube)} != {len(current.inputs)} inputs",
                    filename, lineno)
            if current.phase is None:
                current.phase = out
            elif current.phase != out:
                raise ParseError("mixed output phases in one cover",
                                 filename, lineno)
            current.cubes.append(cube)

    network = LogicNetwork(model_name or filename)
    ids: Dict[str, int] = {}
    for pi in inputs:
        ids[pi] = network.add_pi(pi)
    for _d, q in latches:
        ids[q] = network.add_pi(q)

    by_output = {}
    for cover in covers:
        if cover.output in by_output:
            raise ParseError(f"signal {cover.output!r} defined twice",
                             filename, cover.lineno)
        by_output[cover.output] = cover

    def build(signal: str, lineno: int, resolving: set) -> int:
        if signal in ids:
            return ids[signal]
        if signal not in by_output:
            raise ParseError(f"undefined signal {signal!r}", filename, lineno)
        if signal in resolving:
            raise ParseError(f"combinational cycle through {signal!r}",
                             filename, lineno)
        resolving.add(signal)
        cover = by_output[signal]
        fanins = [build(s, cover.lineno, resolving) for s in cover.inputs]
        resolving.discard(signal)
        ids[signal] = _build_cover(network, cover, fanins)
        return ids[signal]

    import sys
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 4 * len(covers) + 1000))
    try:
        for po in outputs:
            network.add_po(build(po, 0, set()), po)
        for d, q in latches:
            network.add_po(build(d, 0, set()), f"{q}_next")
    finally:
        sys.setrecursionlimit(old)
    return network


def _build_cover(network: LogicNetwork, cover: _Cover,
                 fanins: List[int]) -> int:
    """Materialize one ``.names`` cover as AND/OR/INV nodes."""
    if not cover.cubes or cover.phase is None:
        return network.add_const(False, cover.output)
    if not cover.inputs:
        return network.add_const(cover.phase == "1", cover.output)

    inverters: Dict[int, int] = {}

    def negated(uid: int) -> int:
        if uid not in inverters:
            inverters[uid] = network.add_inv(uid)
        return inverters[uid]

    terms: List[int] = []
    for cube in cover.cubes:
        literals: List[int] = []
        for char, fanin in zip(cube, fanins):
            if char == "1":
                literals.append(fanin)
            elif char == "0":
                literals.append(negated(fanin))
            elif char not in "-":
                raise ParseError(f"bad cube character {char!r} in cover "
                                 f"for {cover.output!r}")
        if not literals:
            # An all-don't-care cube makes the function constant true.
            terms = []
            break
        term = literals[0]
        for lit in literals[1:]:
            term = network.add_and(term, lit)
        terms.append(term)

    if not terms:
        result = network.add_const(True)
    else:
        result = terms[0]
        for term in terms[1:]:
            result = network.add_or(result, term)
    if cover.phase == "0":
        result = network.add_inv(result)
    if not network.node(result).name:
        network.node(result).name = cover.output
    return result


def load_blif(path: str) -> LogicNetwork:
    """Read a BLIF file from disk."""
    with open(path) as handle:
        return read_blif(handle, filename=path)


def write_blif(network: LogicNetwork, handle: TextIO) -> None:
    """Write the network as BLIF (one ``.names`` per gate)."""
    handle.write(f".model {network.name}\n")
    pi_labels = " ".join(network.node(u).label for u in network.pis)
    po_labels = " ".join(network.node(u).label for u in network.pos)
    handle.write(f".inputs {pi_labels}\n")
    handle.write(f".outputs {po_labels}\n")
    names: Dict[int, str] = {}
    for uid in network.topological_order():
        node = network.node(uid)
        if node.type is NodeType.PI:
            names[uid] = node.label
            continue
        if node.type is NodeType.PO:
            handle.write(f".names {names[node.fanins[0]]} {node.label}\n1 1\n")
            continue
        names[uid] = f"s{uid}"
        ins = [names[f] for f in node.fanins]
        _write_gate_cover(handle, node.type, ins, names[uid])
    handle.write(".end\n")


def _write_gate_cover(handle: TextIO, node_type: NodeType,
                      ins: List[str], out: str) -> None:
    n = len(ins)
    header = f".names {' '.join(ins)} {out}\n"
    handle.write(header)
    if node_type is NodeType.AND:
        handle.write("1" * n + " 1\n")
    elif node_type is NodeType.NAND:
        handle.write("1" * n + " 0\n")
    elif node_type is NodeType.OR:
        for i in range(n):
            handle.write("-" * i + "1" + "-" * (n - i - 1) + " 1\n")
    elif node_type is NodeType.NOR:
        handle.write("0" * n + " 1\n")
    elif node_type in (NodeType.XOR, NodeType.XNOR):
        want = 1 if node_type is NodeType.XOR else 0
        for value in range(1 << n):
            ones = bin(value).count("1")
            if ones % 2 == want:
                cube = "".join("1" if (value >> i) & 1 else "0"
                               for i in range(n))
                handle.write(cube + " 1\n")
    elif node_type is NodeType.INV:
        handle.write("0 1\n")
    elif node_type is NodeType.BUF:
        handle.write("1 1\n")
    elif node_type is NodeType.CONST1:
        handle.write("1\n")
    elif node_type is NodeType.CONST0:
        pass  # empty cover is constant 0
    else:
        raise ParseError(f"gate type {node_type.value} not expressible in BLIF")


def save_blif(network: LogicNetwork, path: str) -> None:
    with open(path, "w") as handle:
        write_blif(network, handle)
