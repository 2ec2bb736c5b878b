"""Reader for Espresso-style PLA files (two-level covers).

Supports ``.i``, ``.o``, ``.ilb``, ``.ob``, ``.p``, ``.type fr|f``,
``.e``/``.end`` and plain cube rows.  Each output column is built as an
OR of AND-cubes over the (possibly inverted) inputs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TextIO, Union

from ..errors import ParseError
from ..network import LogicNetwork


#: Largest ``.i``/``.o`` count accepted: far above any real PLA, and a
#: bound on the labels and nodes a bogus count alone makes the reader build.
_MAX_COLUMNS = 1 << 16


def _count(tokens: List[str], filename: str, lineno: int) -> int:
    """The count argument of a ``.i``/``.o`` directive."""
    try:
        value = int(tokens[1]) if len(tokens) == 2 else -1
    except ValueError:
        value = -1
    if not 0 <= value <= _MAX_COLUMNS:
        raise ParseError(f"{tokens[0]} needs one count in 0..{_MAX_COLUMNS}",
                         filename, lineno)
    return value


def read_pla(source: Union[str, TextIO], name: str = "pla",
             filename: str = "<string>") -> LogicNetwork:
    """Parse PLA text (string or file object) into a network."""
    if hasattr(source, "read"):
        text = source.read()
        filename = getattr(source, "name", filename)
    else:
        text = source

    num_in: Optional[int] = None
    num_out: Optional[int] = None
    in_labels: Optional[List[str]] = None
    out_labels: Optional[List[str]] = None
    rows: List[tuple] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if key == ".i":
            num_in = _count(tokens, filename, lineno)
        elif key == ".o":
            num_out = _count(tokens, filename, lineno)
        elif key == ".ilb":
            in_labels = tokens[1:]
        elif key == ".ob":
            out_labels = tokens[1:]
        elif key in (".p", ".type", ".phase", ".pair", ".symbolic"):
            continue
        elif key in (".e", ".end"):
            break
        elif key.startswith("."):
            raise ParseError(f"unsupported PLA directive {key!r}",
                             filename, lineno)
        else:
            if num_in is None or num_out is None:
                raise ParseError("cube before .i/.o declarations",
                                 filename, lineno)
            joined = "".join(tokens)
            if len(joined) != num_in + num_out:
                raise ParseError(
                    f"cube width {len(joined)} != .i + .o = "
                    f"{num_in + num_out}", filename, lineno)
            rows.append((joined[:num_in], joined[num_in:], lineno))

    if num_in is None or num_out is None:
        raise ParseError("missing .i/.o declarations", filename)
    in_labels = in_labels or [f"in{i}" for i in range(num_in)]
    out_labels = out_labels or [f"out{i}" for i in range(num_out)]
    if len(in_labels) != num_in or len(out_labels) != num_out:
        raise ParseError(".ilb/.ob label counts disagree with .i/.o", filename)

    network = LogicNetwork(name)
    pis = [network.add_pi(label) for label in in_labels]
    inverters: Dict[int, int] = {}

    def negated(uid: int) -> int:
        if uid not in inverters:
            inverters[uid] = network.add_inv(uid)
        return inverters[uid]

    cube_cache: Dict[str, int] = {}

    def build_cube(pattern: str, lineno: int) -> Optional[int]:
        if pattern in cube_cache:
            return cube_cache[pattern]
        literals: List[int] = []
        for char, pi in zip(pattern, pis):
            if char == "1":
                literals.append(pi)
            elif char == "0":
                literals.append(negated(pi))
            elif char not in "-":
                raise ParseError(f"bad cube character {char!r}",
                                 filename, lineno)
        if not literals:
            cube_cache[pattern] = None
            return None  # tautology cube
        term = literals[0]
        for lit in literals[1:]:
            term = network.add_and(term, lit)
        cube_cache[pattern] = term
        return term

    for out_index, out_label in enumerate(out_labels):
        terms: List[int] = []
        tautology = False
        for pattern, out_bits, lineno in rows:
            bit = out_bits[out_index]
            if bit in ("0", "~", "-"):
                continue  # '0'/'~' in fr-type: not part of the on-set
            term = build_cube(pattern, lineno)
            if term is None:
                tautology = True
                break
            terms.append(term)
        if tautology:
            network.add_po(network.add_const(True), out_label)
        elif not terms:
            network.add_po(network.add_const(False), out_label)
        else:
            acc = terms[0]
            for term in terms[1:]:
                acc = network.add_or(acc, term)
            network.add_po(acc, out_label)
    return network


def load_pla(path: str) -> LogicNetwork:
    """Read a PLA file from disk."""
    import os

    with open(path) as handle:
        return read_pla(handle,
                        name=os.path.splitext(os.path.basename(path))[0],
                        filename=path)
