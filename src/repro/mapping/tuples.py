"""Mapping tuples: the dynamic-programming sub-solutions.

The paper associates 6-tuples with intermediate solutions; here a
:class:`MapTuple` carries the pair ``{W, H}``, the accumulated cost
components, and the PBE bookkeeping (``p_dis``, ``par_b``).

The partial pulldown structure itself is **lazy**: the DP inner loop
creates and discards far more candidates than it keeps, so a tuple built
by a combination records only a provenance back-pointer — the operator
(``"ser"``/``"par"``) and the two operand tuples.  The scalar fields are
exact without the tree; the :attr:`MapTuple.structure` property rebuilds
(and memoizes) the series/parallel tree on demand, which happens only
when a gate is materialized or a table is stored into the tree cache.
Leaf tuples (primary inputs, formed gates) are constructed with an eager
structure, terminating the recursion.

``TupleTable`` stores, per ``(W, H)`` slot, either the single best tuple
(paper mode) or a small Pareto front over ``(cost, p_dis)`` (an extension
evaluated as an ablation).  Each stored tuple is paired with its selection
key, computed exactly once, and :meth:`TupleTable.admits` exposes the
keep/reject decision on raw scalars so the engine can skip dominated
candidates before allocating anything.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..domino.structure import Pulldown, parallel, series


class MapTuple:
    """One dynamic-programming sub-solution.

    Attributes
    ----------
    width, height:
        The ``{W, H}`` pair of the partial pulldown network.
    wcost:
        Model-weighted scalar cost accumulated so far (transistors with
        clock-connected devices weighted by ``k``; committed discharge
        transistors included for PBE-aware mapping).
    trans:
        Raw transistor count, including committed discharge transistors.
    disch:
        Committed p-discharge transistors inside this partial structure
        (including those of optional gates formed beneath it).
    levels:
        Maximum number of domino gate levels beneath any leaf (0 when all
        leaves are primary inputs).
    p_dis:
        Potential discharge points (must be discharged if the structure's
        bottom never reaches ground).
    p_tail:
        The subset of ``p_dis`` inside the bottom-most parallel stack
        (zero unless ``par_b``).  A series combination commits exactly
        these (plus the new junction) when the structure lands on top;
        spine junctions (``p_dis - p_tail``) keep their classification,
        matching the flattened structural analysis.
    par_b:
        True when the structure has a parallel stack at its bottom.
        Forced False by non-PBE-aware mapping (the bulk DP is blind to
        it); ``ends_par`` below is the always-true structural fact.
    has_pi:
        True when any pulldown leaf is a primary input (the formed gate
        would need an n-clock foot).
    ends_par:
        Structural ``ends_in_parallel`` of the (possibly unbuilt)
        pulldown — tracked as a scalar so the ordering rules never need
        to materialize a structure.
    op, left, right:
        Provenance back-pointer: how this tuple was combined
        (``"ser"``: ``left`` on top of ``right``; ``"par"``: ``left``
        beside ``right``).  ``None`` for leaf tuples, which carry an
        eager structure instead.
    """

    __slots__ = ("width", "height", "wcost", "trans", "disch", "levels",
                 "p_dis", "p_tail", "par_b", "has_pi", "ends_par",
                 "op", "left", "right", "_structure")

    def __init__(self, width: int, height: int, wcost: float, trans: int,
                 disch: int, levels: int, p_dis: int, par_b: bool,
                 has_pi: bool, structure: Optional[Pulldown] = None,
                 p_tail: int = 0, ends_par: Optional[bool] = None,
                 op: Optional[str] = None,
                 left: Optional["MapTuple"] = None,
                 right: Optional["MapTuple"] = None):
        if structure is None and op is None:
            raise ValueError(
                "MapTuple needs an eager structure or an (op, left, right) "
                "provenance back-pointer")
        self.width = width
        self.height = height
        self.wcost = wcost
        self.trans = trans
        self.disch = disch
        self.levels = levels
        self.p_dis = p_dis
        self.p_tail = p_tail
        self.par_b = par_b
        self.has_pi = has_pi
        self.op = op
        self.left = left
        self.right = right
        self._structure = structure
        if ends_par is None:
            if structure is not None:
                ends_par = structure.ends_in_parallel
            else:
                ends_par = True if op == "par" else right.ends_par
        self.ends_par = ends_par

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.width, self.height)

    @property
    def materialized(self) -> bool:
        """True once the pulldown tree exists (leaves always do)."""
        return self._structure is not None

    @property
    def structure(self) -> Pulldown:
        """The partial pulldown network, rebuilt on demand and memoized.

        The rebuilt tree is bit-identical to what an eager combination
        would have produced: the back-pointers reference the exact
        operand tuples, and ``series``/``parallel`` are deterministic in
        their operands.
        """
        built = self._structure
        if built is None:
            if self.op == "ser":
                built = series(self.left.structure, self.right.structure)
            else:
                built = parallel(self.left.structure, self.right.structure)
            self._structure = built
        return built

    def __repr__(self) -> str:
        return (f"MapTuple(W={self.width}, H={self.height}, "
                f"wcost={self.wcost}, trans={self.trans}, "
                f"disch={self.disch}, levels={self.levels}, "
                f"p_dis={self.p_dis}, par_b={self.par_b})")


class FaninView(list):
    """A node's tuples as its fanouts see them.

    The source table's tuples in slot order, then optionally the
    node's formed-gate leaf.  ``table`` names that source, so a kernel
    that filled the table can reuse what it knows about those tuples
    (the soa kernel's column rows) instead of reading them back.
    Every kernel may treat a view as a plain list.
    """

    __slots__ = ("table",)

    def __init__(self, table: "TupleTable"):
        super().__init__(table.all_tuples())
        self.table = table


class TupleTable:
    """Per-node table of sub-solutions, keyed by ``(W, H)``.

    Parameters
    ----------
    key_fn:
        Maps a :class:`MapTuple` to a comparable selection key (provided
        by the cost model).  Lower is better.  Each key is computed at
        most once per stored tuple — slots hold ``(key, tuple)`` pairs.
    pareto:
        When true, each slot keeps every tuple that is Pareto-optimal in
        ``(key, p_dis)`` (capped at ``max_front``); otherwise each slot
        keeps the single best tuple by ``(key, p_dis)``.
    """

    def __init__(self, key_fn, pareto: bool = False, max_front: int = 4):
        self._key_fn = key_fn
        self._pareto = pareto
        self._max_front = max_front
        #: shape -> list of (selection key, tuple) pairs
        self._slots: Dict[Tuple[int, int], List[Tuple[float, MapTuple]]] = {}

    @property
    def key_fn(self):
        return self._key_fn

    @property
    def pareto(self) -> bool:
        return self._pareto

    @property
    def max_front(self) -> int:
        return self._max_front

    def raw_slots(self) -> Dict[Tuple[int, int], List[Tuple[float, MapTuple]]]:
        """The internal ``shape -> [(key, tuple), ...]`` slot map.

        Exposed for the mapping engine's inlined DP kernel, which reads
        and mutates slots directly (see ``MappingEngine._combine_into``);
        any mutation must replicate :meth:`insert`'s decisions exactly.
        """
        return self._slots

    @classmethod
    def from_slots(cls, key_fn, pareto: bool,
                   slots: List[Tuple[Tuple[int, int], List[MapTuple]]],
                   max_front: int = 4) -> "TupleTable":
        """Rebuild a finished table from ``(shape, tuples)`` pairs.

        Used by the tree cache: the pairs must be a table's final
        contents in slot-insertion order, so the rebuilt table iterates
        (and therefore maps) bit-identically to the original.
        """
        table = cls(key_fn, pareto=pareto, max_front=max_front)
        for shape, tuples in slots:
            table._slots[shape] = [(key_fn(t), t) for t in tuples]
        return table

    def slots(self) -> List[Tuple[Tuple[int, int], List[MapTuple]]]:
        """Final contents as ``(shape, tuples)`` pairs in insertion order."""
        return [(shape, [t for _, t in slot])
                for shape, slot in self._slots.items()]

    def install_front(self, shape: Tuple[int, int], entries) -> None:
        """Install a finished front for ``shape``, replacing any existing.

        The bulk write path for vectorized kernels: ``entries`` are
        ``(key, tuple)`` pairs and must arrive in exactly the order a
        sequence of :meth:`insert` calls would have left them (accept
        order, re-ranked by ``(key, p_dis)`` at each truncation) —
        slot iteration order is load-bearing for digests and the tree
        cache.  No dominance checking happens here; the caller owns
        the parity obligation, the same contract as :meth:`raw_slots`.
        """
        self._slots[shape] = list(entries)

    def admits(self, shape: Tuple[int, int], key, p_dis: int,
               p_tail: int = 0, par_b: bool = False) -> bool:
        """Would :meth:`insert` keep a candidate with these scalars?

        This is the engine's incumbent-bound fast path: the decision is
        exactly :meth:`insert`'s, but takes raw scalars, so a dominated
        candidate can be rejected before a :class:`MapTuple` (let alone a
        structure) is ever allocated.
        """
        slot = self._slots.get(shape)
        if not slot:
            return True
        if not self._pareto:
            inc_key, incumbent = slot[0]
            return (key, p_dis) < (inc_key, incumbent.p_dis)
        for kept_key, kept in slot:
            if (kept_key <= key and kept.p_dis <= p_dis
                    and kept.p_tail <= p_tail
                    and (not kept.par_b or par_b)):
                return False
        return True

    def insert(self, candidate: MapTuple, key=None) -> bool:
        """Offer ``candidate``; returns True if it was kept.

        ``key`` is the candidate's selection key when the caller already
        computed it (the engine's scalar fast path); otherwise it is
        computed here, once, and cached alongside the stored tuple.
        """
        if key is None:
            key = self._key_fn(candidate)
        slot = self._slots.setdefault(candidate.shape, [])
        if not self._pareto:
            if not slot:
                slot.append((key, candidate))
                return True
            inc_key, incumbent = slot[0]
            if (key, candidate.p_dis) < (inc_key, incumbent.p_dis):
                slot[0] = (key, candidate)
                return True
            return False
        # Pareto mode: drop the candidate if dominated, evict what it
        # dominates.  Dominance must cover every field that can influence
        # a future combination: the cost key, the potential points (both
        # total and the trailing-stack subset that series stacking
        # commits), and par_b itself — a series-ending tuple (par_b False)
        # is never worse than a parallel-ending one, since stacking below
        # a parallel-ending top commits its tail plus the junction.
        c_dis, c_tail, c_par = candidate.p_dis, candidate.p_tail, candidate.par_b
        for kept_key, kept in slot:
            if (kept_key <= key and kept.p_dis <= c_dis
                    and kept.p_tail <= c_tail
                    and (not kept.par_b or c_par)):
                return False
        slot[:] = [(kept_key, kept) for kept_key, kept in slot
                   if not (key <= kept_key and c_dis <= kept.p_dis
                           and c_tail <= kept.p_tail
                           and (not c_par or kept.par_b))]
        slot.append((key, candidate))
        if len(slot) > self._max_front:
            slot.sort(key=lambda e: (e[0], e[1].p_dis))
            del slot[self._max_front:]
        return True

    def all_tuples(self) -> Iterator[MapTuple]:
        for slot in self._slots.values():
            for _, t in slot:
                yield t

    def best(self) -> Optional[MapTuple]:
        """Overall best tuple across all slots (None if the table is empty)."""
        best_tuple = None
        best_key = None
        for slot in self._slots.values():
            for stored_key, t in slot:
                key = (stored_key, t.p_dis)
                if best_key is None or key < best_key:
                    best_key = key
                    best_tuple = t
        return best_tuple

    def __len__(self) -> int:
        return sum(len(slot) for slot in self._slots.values())

    def shapes(self) -> List[Tuple[int, int]]:
        return sorted(self._slots)

    def get(self, width: int, height: int) -> List[MapTuple]:
        """Tuples stored for shape ``(width, height)`` (possibly empty)."""
        return [t for _, t in self._slots.get((width, height), ())]
