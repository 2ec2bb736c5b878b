"""The :class:`LogicNetwork` DAG container.

A :class:`LogicNetwork` is a directed acyclic graph of
:class:`~repro.network.nodes.LogicNode` objects.  It is the common currency
between the netlist readers, the synthesis front end (decomposition, unate
conversion) and the technology mappers.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import NetworkError
from .nodes import _FANIN_BOUNDS, LogicNode, NodeType, _check_fanin_count

_PO = NodeType.PO


class LogicNetwork:
    """A technology-independent combinational logic network.

    Nodes are created through the ``add_*`` methods, which return node ids.
    Fanins must exist before the node that references them, so every fanin
    id is lower than its node's id and ascending id order is a topological
    order by construction; :meth:`topological_order` checks that in one
    scan and falls back to a full walk for networks that
    :meth:`replace_fanin` has rewired against it.
    """

    def __init__(self, name: str = "network"):
        self.name = name
        self._nodes: Dict[int, LogicNode] = {}
        self._pis: List[int] = []
        self._pos: List[int] = []
        self._next_uid = 0
        self._fanouts: Optional[Dict[int, List[int]]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _add(self, node_type: NodeType, fanins: Sequence[int], name: str) -> int:
        """The one construction path: check, then store a new node.

        Every fanin must exist and must not be a PO (``NetworkError``),
        and the fanin count must be legal for the type (``ValueError``,
        worded by :func:`~repro.network.nodes._check_fanin_count`).
        Having checked, it builds the node without ``__post_init__``.
        """
        nodes = self._nodes
        for f in fanins:
            fanin = nodes.get(f)
            if fanin is None:
                raise NetworkError(
                    f"fanin {f} of new {node_type.value} node does not exist"
                )
            if fanin.type is _PO:
                raise NetworkError("a PO node cannot be used as a fanin")
        fanins = tuple(fanins)
        low, high = _FANIN_BOUNDS[node_type]
        if not low <= len(fanins) <= high:
            _check_fanin_count(node_type, len(fanins))
        uid = self._next_uid
        self._next_uid = uid + 1
        nodes[uid] = LogicNode._prechecked(uid, node_type, fanins, name)
        self._fanouts = None
        return uid

    def add_pi(self, name: str = "") -> int:
        """Add a primary input and return its id."""
        uid = self._add(NodeType.PI, (), name)
        self._pis.append(uid)
        return uid

    def add_po(self, fanin: int, name: str = "") -> int:
        """Add a primary output driven by ``fanin`` and return its id."""
        uid = self._add(NodeType.PO, (fanin,), name)
        self._pos.append(uid)
        return uid

    def add_gate(self, node_type: NodeType, fanins: Sequence[int],
                 name: str = "") -> int:
        """Add a gate node of arbitrary supported type."""
        if not node_type.is_gate and not node_type.is_source:
            raise NetworkError(f"{node_type} is not a gate type")
        return self._add(node_type, fanins, name)

    def add_and(self, *fanins: int, name: str = "") -> int:
        return self._add(NodeType.AND, fanins, name)

    def add_or(self, *fanins: int, name: str = "") -> int:
        return self._add(NodeType.OR, fanins, name)

    def add_inv(self, fanin: int, name: str = "") -> int:
        return self._add(NodeType.INV, (fanin,), name)

    def add_buf(self, fanin: int, name: str = "") -> int:
        return self._add(NodeType.BUF, (fanin,), name)

    def add_const(self, value: bool, name: str = "") -> int:
        return self._add(NodeType.CONST1 if value else NodeType.CONST0, (), name)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def node(self, uid: int) -> LogicNode:
        """Return the node with id ``uid`` (raises ``NetworkError`` if absent)."""
        try:
            return self._nodes[uid]
        except KeyError:
            raise NetworkError(f"no node with id {uid}") from None

    def __contains__(self, uid: int) -> bool:
        return uid in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[LogicNode]:
        return iter(self._nodes.values())

    @property
    def pis(self) -> Tuple[int, ...]:
        """Ids of primary inputs, in creation order."""
        return tuple(self._pis)

    @property
    def pos(self) -> Tuple[int, ...]:
        """Ids of primary outputs, in creation order."""
        return tuple(self._pos)

    @property
    def node_ids(self) -> Tuple[int, ...]:
        return tuple(self._nodes)

    def gates(self) -> List[LogicNode]:
        """All gate nodes (everything that is not a PI, PO or constant)."""
        return [n for n in self if n.type.is_gate]

    def fanouts(self, uid: int) -> Tuple[int, ...]:
        """Ids of nodes that use ``uid`` as a fanin (POs included).

        Raises :class:`NetworkError` if ``uid`` is not a node, as
        :meth:`node` does.
        """
        try:
            return tuple(self._fanout_table()[uid])
        except KeyError:
            raise NetworkError(f"no node with id {uid}") from None

    def _fanout_table(self) -> Dict[int, List[int]]:
        if self._fanouts is None:
            table: Dict[int, List[int]] = {u: [] for u in self._nodes}
            for n in self._nodes.values():
                for f in n.fanins:
                    table[f].append(n.uid)
            self._fanouts = table
        return self._fanouts

    def fanout_count(self, uid: int) -> int:
        return len(self.fanouts(uid))

    # ------------------------------------------------------------------
    # orders and traversal
    # ------------------------------------------------------------------
    def topological_order(self) -> List[int]:
        """Node ids in topological order (fanins before fanouts).

        The order is the lexicographically smallest topological order:
        of the nodes whose fanins are all placed, the lowest id goes
        next.  When every fanin id is lower than its node's id — always
        true of a network built by the ``add_*`` methods, since a fanin
        must exist first — ascending id order is topological, and as the
        smallest permutation of the ids it *is* that order: one O(E) scan
        proves it and the sorted ids are returned.  A network with a back
        edge (a fanin id at or above its node's, which only
        :meth:`replace_fanin` can create) takes the min-id-first heap
        walk of Kahn's algorithm instead.

        Raises :class:`NetworkError` if the graph has a cycle.
        """
        for uid, node in self._nodes.items():
            for f in node.fanins:
                if f >= uid:
                    return self._heap_order()
        return sorted(self._nodes)

    def _heap_order(self) -> List[int]:
        """Min-id-first Kahn walk; raises ``NetworkError`` on a cycle."""
        indeg = {u: len(n.fanins) for u, n in self._nodes.items()}
        ready = [u for u, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        fanouts = self._fanout_table()
        order: List[int] = []
        while ready:
            u = heapq.heappop(ready)
            order.append(u)
            for v in fanouts[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    heapq.heappush(ready, v)
        if len(order) != len(self._nodes):
            raise NetworkError("network contains a cycle")
        return order

    def transitive_fanin(self, uid: int) -> set:
        """Set of node ids in the transitive fanin cone of ``uid`` (inclusive)."""
        seen = set()
        stack = [uid]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(self.node(u).fanins)
        return seen

    # ------------------------------------------------------------------
    # properties of the whole network
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Maximum number of gate nodes on any PI-to-PO path."""
        level: Dict[int, int] = {}
        nodes = self._nodes
        for u in self.topological_order():
            n = nodes[u]
            if not n.fanins:
                level[u] = 0
            else:
                base = max(level[f] for f in n.fanins)
                level[u] = base + (1 if n.type.is_gate else 0)
        return max((level[p] for p in self._pos), default=0)

    def count(self, node_type: NodeType) -> int:
        """Number of nodes of the given type."""
        return sum(1 for n in self if n.type is node_type)

    def is_mappable(self) -> bool:
        """True if the network contains only PI/PO and 2-input AND/OR nodes.

        Constants are tolerated when they feed primary outputs directly
        (a swept network can retain constant outputs, which the mapper
        records without building a gate).
        """
        for n in self:
            t = n.type
            if t is NodeType.PI or t is _PO:
                continue
            if (t is NodeType.AND or t is NodeType.OR) and len(n.fanins) == 2:
                continue
            if n.is_const and all(
                    self._nodes[f].type is _PO for f in self.fanouts(n.uid)):
                continue
            return False
        return True

    def validate(self) -> None:
        """Check structural invariants; raise :class:`NetworkError` on failure.

        Verifies fanin existence, acyclicity, that POs drive nothing, and
        that every PO has a driver.
        """
        for n in self:
            for f in n.fanins:
                if f not in self._nodes:
                    raise NetworkError(f"node {n.uid} references missing fanin {f}")
                if self._nodes[f].is_po:
                    raise NetworkError(f"node {n.uid} uses PO {f} as a fanin")
        self.topological_order()  # raises on cycles
        for p in self._pos:
            if len(self.node(p).fanins) != 1:
                raise NetworkError(f"PO {p} must have exactly one fanin")

    # ------------------------------------------------------------------
    # editing
    # ------------------------------------------------------------------
    def replace_fanin(self, uid: int, old: int, new: int) -> None:
        """Rewire one fanin of node ``uid`` from ``old`` to ``new``."""
        n = self.node(uid)
        if old not in n.fanins:
            raise NetworkError(f"node {uid} has no fanin {old}")
        if new not in self._nodes:
            raise NetworkError(f"replacement fanin {new} does not exist")
        if self._nodes[new].type is _PO:
            raise NetworkError("a PO node cannot be used as a fanin")
        n.fanins = tuple(new if f == old else f for f in n.fanins)
        self._fanouts = None

    def remove_unused(self) -> int:
        """Delete nodes not in the transitive fanin of any PO.

        Primary inputs are always retained.  Returns the number of nodes
        removed.
        """
        # One DFS from every PO at once: shared cones are walked once,
        # not once per PO that reaches them.  PIs have no fanins, so
        # seeding them as live cannot cut the walk short.
        nodes = self._nodes
        live = set(self._pis)
        stack = list(self._pos)
        while stack:
            u = stack.pop()
            if u in live:
                continue
            live.add(u)
            stack.extend(nodes[u].fanins)
        dead = [u for u in self._nodes if u not in live]
        for u in dead:
            del self._nodes[u]
        self._fanouts = None
        return len(dead)

    def copy(self) -> "LogicNetwork":
        """Deep structural copy (node ids are preserved)."""
        dup = LogicNetwork(self.name)
        dup._nodes = {
            u: LogicNode._prechecked(n.uid, n.type, n.fanins, n.name)
            for u, n in self._nodes.items()
        }
        dup._pis = list(self._pis)
        dup._pos = list(self._pos)
        dup._next_uid = self._next_uid
        return dup

    def __repr__(self) -> str:
        return (
            f"LogicNetwork({self.name!r}, pis={len(self._pis)}, "
            f"pos={len(self._pos)}, nodes={len(self._nodes)})"
        )
