"""The :class:`LogicNetwork` DAG container.

A :class:`LogicNetwork` is a directed acyclic graph of
:class:`~repro.network.nodes.LogicNode` objects.  It is the common currency
between the netlist readers, the synthesis front end (decomposition, unate
conversion) and the technology mappers.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import NetworkError
from .nodes import LogicNode, NodeType


class LogicNetwork:
    """A technology-independent combinational logic network.

    Nodes are created through the ``add_*`` methods, which return node ids.
    Fanins must exist before the node that references them, which makes the
    construction order a topological order by design; an explicit
    :meth:`topological_order` is still provided (and verified) for networks
    assembled by readers.
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
        for f in fanins:
            if f not in self._nodes:
                raise NetworkError(
                    f"fanin {f} of new {node_type.value} node does not exist"
                )
            if self._nodes[f].is_po:
                raise NetworkError("a PO node cannot be used as a fanin")
        uid = self._next_uid
        self._next_uid += 1
        self._nodes[uid] = LogicNode(uid, node_type, tuple(fanins), name)
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
        """Ids of nodes that use ``uid`` as a fanin (POs included)."""
        if self._fanouts is None:
            table: Dict[int, List[int]] = {u: [] for u in self._nodes}
            for n in self._nodes.values():
                for f in n.fanins:
                    table[f].append(n.uid)
            self._fanouts = table
        return tuple(self._fanouts[uid])

    def fanout_count(self, uid: int) -> int:
        return len(self.fanouts(uid))

    # ------------------------------------------------------------------
    # orders and traversal
    # ------------------------------------------------------------------
    def topological_order(self) -> List[int]:
        """Node ids in topological order (fanins before fanouts).

        Raises :class:`NetworkError` if the graph has a cycle.
        """
        indeg = {u: len(n.fanins) for u, n in self._nodes.items()}
        ready = [u for u, d in indeg.items() if d == 0]
        # Deterministic order: process in id order within each wavefront.
        ready.sort()
        order: List[int] = []
        import heapq

        heapq.heapify(ready)
        while ready:
            u = heapq.heappop(ready)
            order.append(u)
            for v in self.fanouts(u):
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
        for u in self.topological_order():
            n = self.node(u)
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
            if n.type in (NodeType.PI, NodeType.PO):
                continue
            if n.type in (NodeType.AND, NodeType.OR) and len(n.fanins) == 2:
                continue
            if n.type in (NodeType.CONST0, NodeType.CONST1) and all(
                    self.node(f).is_po for f in self.fanouts(n.uid)):
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
        live = set(self._pis)
        stack = list(self._pos)
        while stack:
            u = stack.pop()
            if u in live:
                continue
            live.add(u)
            stack.extend(self.node(u).fanins)
        dead = [u for u in self._nodes if u not in live]
        for u in dead:
            del self._nodes[u]
        self._fanouts = None
        return len(dead)

    def copy(self) -> "LogicNetwork":
        """Deep structural copy (node ids are preserved)."""
        dup = LogicNetwork(self.name)
        dup._nodes = {
            u: LogicNode(n.uid, n.type, n.fanins, n.name)
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
