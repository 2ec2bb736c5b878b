"""Series/parallel pulldown-network structures for domino gates.

A domino gate's nmos pulldown network is modelled as a series/parallel
tree whose leaves are single transistors.  Each leaf records the signal
driving its transistor gate: either a primary input (both phases allowed
after unate conversion) or the output of another domino gate.

Width ``W`` (parallel transistor count) and height ``H`` (series depth)
follow the paper's conventions: a leaf is ``{W=1, H=1}``, a series
composition is ``{max(W_i), sum(H_i)}``, a parallel composition is
``{sum(W_i), max(H_i)}``.

Series children are stored **top first**: ``children[0]`` connects toward
the dynamic node, ``children[-1]`` toward ground (or the n-clock foot).
The top/bottom distinction is what the Parasitic Bipolar Effect analysis
is all about.

All metrics (``width``, ``height``, ``num_transistors``, primary-leaf
presence) are computed once at construction, so the mapper's inner loop
reads them in O(1).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple, Union

from ..errors import StructureError


class Leaf:
    """A single nmos transistor.

    Attributes
    ----------
    signal:
        Name of the driving signal.
    is_primary:
        True if the signal is a primary input (the containing gate then
        needs an n-clock foot transistor).
    source_gate:
        For non-primary leaves, an opaque reference identifying the domino
        gate (mapping-node id) whose output drives this transistor.
    """

    __slots__ = ("signal", "is_primary", "source_gate")

    width = 1
    height = 1
    num_transistors = 1
    #: ``par_b`` of a single transistor: no parallel stack at the bottom.
    ends_in_parallel = False

    def __init__(self, signal: str, is_primary: bool = True,
                 source_gate: Optional[int] = None):
        self.signal = signal
        self.is_primary = is_primary
        self.source_gate = source_gate

    @property
    def has_primary(self) -> bool:
        return self.is_primary

    def leaves(self) -> Iterator["Leaf"]:
        yield self

    def __eq__(self, other) -> bool:
        return (isinstance(other, Leaf) and self.signal == other.signal
                and self.is_primary == other.is_primary
                and self.source_gate == other.source_gate)

    def __hash__(self) -> int:
        return hash(("leaf", self.signal, self.is_primary, self.source_gate))

    def __repr__(self) -> str:
        return f"Leaf({self.signal!r})"

    def __str__(self) -> str:
        return self.signal


class _Composite:
    """Shared implementation of series/parallel composition nodes.

    Each subclass's constructor flattens nested nodes of its own kind —
    which keeps top-to-bottom order intact and makes structural equality
    insensitive to the order in which the mapper combined
    sub-structures — and totals the metrics in the same pass.
    """

    __slots__ = ("children", "width", "height", "num_transistors",
                 "has_primary")

    def leaves(self) -> Iterator[Leaf]:
        """The transistors left to right, from one explicit-stack walk."""
        found: List[Leaf] = []
        stack: List[Pulldown] = [self]
        while stack:
            node = stack.pop()
            if type(node) is Leaf:
                found.append(node)
            else:
                stack.extend(reversed(node.children))
        return iter(found)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.children == other.children

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.children))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.children!r})"


def _too_few(kind: str, children: Tuple["Pulldown", ...]) -> None:
    if len(children) < 2:
        raise StructureError(f"{kind} requires at least 2 children")


class Series(_Composite):
    """Series composition; ``children[0]`` is at the top (dynamic-node side)."""

    __slots__ = ()

    def __init__(self, children: Tuple["Pulldown", ...]):
        _too_few("Series", children)
        flat: List[Pulldown] = []
        width = height = count = 0
        primary = False
        for child in children:
            if type(child) is Series:
                flat.extend(child.children)
            else:
                flat.append(child)
            if child.width > width:
                width = child.width
            height += child.height
            count += child.num_transistors
            if not primary and child.has_primary:
                primary = True
        self.children = tuple(flat)
        self.width = width
        self.height = height
        self.num_transistors = count
        self.has_primary = primary

    @property
    def top(self) -> "Pulldown":
        return self.children[0]

    @property
    def bottom(self) -> "Pulldown":
        return self.children[-1]

    @property
    def ends_in_parallel(self) -> bool:
        """``par_b``: true when the bottom-most element is a parallel stack."""
        return self.bottom.ends_in_parallel

    def __str__(self) -> str:
        return "[" + " ; ".join(str(c) for c in self.children) + "]"


class Parallel(_Composite):
    """Parallel composition of two or more branches."""

    __slots__ = ()

    ends_in_parallel = True

    def __init__(self, children: Tuple["Pulldown", ...]):
        _too_few("Parallel", children)
        flat: List[Pulldown] = []
        width = height = count = 0
        primary = False
        for child in children:
            if type(child) is Parallel:
                flat.extend(child.children)
            else:
                flat.append(child)
            width += child.width
            if child.height > height:
                height = child.height
            count += child.num_transistors
            if not primary and child.has_primary:
                primary = True
        self.children = tuple(flat)
        self.width = width
        self.height = height
        self.num_transistors = count
        self.has_primary = primary

    def __str__(self) -> str:
        return "(" + " | ".join(str(c) for c in self.children) + ")"


Pulldown = Union[Leaf, Series, Parallel]


def series(*parts: Pulldown) -> Pulldown:
    """Series composition, top first; collapses the single-element case."""
    if not parts:
        raise StructureError("series() needs at least one part")
    if len(parts) == 1:
        return parts[0]
    return Series(tuple(parts))


def parallel(*parts: Pulldown) -> Pulldown:
    """Parallel composition; collapses the single-element case."""
    if not parts:
        raise StructureError("parallel() needs at least one part")
    if len(parts) == 1:
        return parts[0]
    return Parallel(tuple(parts))


def has_primary_leaf(structure: Pulldown) -> bool:
    """True if any transistor is driven by a primary input."""
    return structure.has_primary


def gate_leaf_refs(structure: Pulldown) -> List[int]:
    """Mapping-node ids of all domino-gate-driven leaves (with repeats),
    left to right, from one explicit-stack walk."""
    refs: List[int] = []
    stack: List[Pulldown] = [structure]
    while stack:
        node = stack.pop()
        if type(node) is Leaf:
            if node.source_gate is not None:
                refs.append(node.source_gate)
        else:
            stack.extend(reversed(node.children))
    return refs


def check_limits(structure: Pulldown, w_max: int, h_max: int) -> None:
    """Raise :class:`StructureError` if W/H limits are violated."""
    if structure.width > w_max:
        raise StructureError(
            f"structure width {structure.width} exceeds Wmax={w_max}")
    if structure.height > h_max:
        raise StructureError(
            f"structure height {structure.height} exceeds Hmax={h_max}")
