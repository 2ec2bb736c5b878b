"""Mapping tuples: the dynamic-programming sub-solutions.

The paper associates 6-tuples with intermediate solutions; here a
sub-solution carries the pair ``{W, H}``, the accumulated cost
components, and the PBE bookkeeping (``p_dis``, ``par_b``).

Every sub-solution of a mapping run is one row of the run's
:class:`Arena`, a column store: the eleven :data:`COLUMNS` fields and
the selection key as float64 (every integer field is exact in a
double), plus int32 provenance ``(op, left, right)`` — how the row was
combined from two earlier rows, top operand first, or which leaf it is.
A :class:`TupleTable` is a contiguous range of arena rows in slot
order, so a table costs two integers, and the DP kernels read and write
whole batches of rows at once (DESIGN.md §17).

Pulldown structures are rebuilt from provenance only for the rows that
need one (the selected gates, a read accessor):
:meth:`Arena.structure` walks the back-pointers with the ``Series`` /
``Parallel`` constructors, memoized per row, and stops at rows that
carry an eager structure (primary inputs, inserted tuples) or name a
formed gate.  :class:`MapTuple` is the materialized object form of one
row; plan selection builds none (it reads structures and columns).
"""

from __future__ import annotations

import math
from array import array
from operator import attrgetter
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

try:  # the numpy lens of the arena serves the soa kernel and the
    import numpy as np  # column gate formation; everything else reads
except ImportError:  # pragma: no cover - the arena through ``array``.
    np = None

from ..domino.structure import Leaf, Parallel, Pulldown, Series


class MapTuple:
    """One dynamic-programming sub-solution as an object.

    The DP itself keeps sub-solutions as :class:`Arena` rows; a
    ``MapTuple`` is what a row materializes into (:meth:`Arena.tuple`)
    and what callers hand to :meth:`TupleTable.insert`.

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
    structure:
        The partial pulldown network.
    ends_par:
        Structural ``ends_in_parallel`` of the pulldown (the arena keeps
        it as a column so the ordering rules never need a structure).
    """

    __slots__ = ("width", "height", "wcost", "trans", "disch", "levels",
                 "p_dis", "p_tail", "par_b", "has_pi", "ends_par",
                 "structure")

    def __init__(self, width: int, height: int, wcost: float, trans: int,
                 disch: int, levels: int, p_dis: int, par_b: bool,
                 has_pi: bool, structure: Pulldown, p_tail: int = 0,
                 ends_par: Optional[bool] = None):
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
        self.structure = structure
        self.ends_par = (structure.ends_in_parallel if ends_par is None
                         else ends_par)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.width, self.height)

    def __repr__(self) -> str:
        return (f"MapTuple(W={self.width}, H={self.height}, "
                f"wcost={self.wcost}, trans={self.trans}, "
                f"disch={self.disch}, levels={self.levels}, "
                f"p_dis={self.p_dis}, par_b={self.par_b})")


# ---------------------------------------------------------------------------
# the arena: one column store per mapping run
# ---------------------------------------------------------------------------
#: The float64 columns of an arena row, in column order: the tuple
#: fields, then the selection key.
COLUMNS = ("width", "height", "wcost", "levels", "p_dis", "p_tail",
           "par_b", "ends_par", "trans", "disch", "has_pi", "key")
NCOL = len(COLUMNS)
W, H, WC, LV, PD, PT, PB, EP, TR, DI, HP, KEY = range(NCOL)

#: Provenance ops: ``left`` on top of ``right``; ``left`` beside
#: ``right``; the formed gate of network node ``left``; a row with an
#: eager structure (a primary input, an inserted tuple).
OP_SER, OP_PAR, OP_GATE, OP_LEAF = range(4)

_FIELDS = attrgetter(*COLUMNS[:KEY])


class Row(NamedTuple):
    """One arena row read as Python values (the reference kernel's view)."""

    width: int
    height: int
    wcost: float
    levels: int
    p_dis: int
    p_tail: int
    par_b: bool
    ends_par: bool
    trans: int
    disch: int
    has_pi: bool
    id: int


class Arena:
    """The rows of every sub-solution of one mapping run.

    Storage is two growable ``array`` buffers: ``NCOL`` float64 columns
    and three int32 provenance columns per row, row-major.  Python code
    reads and writes them directly (:meth:`rows`, :meth:`write_rows`,
    :meth:`tuple`); with numpy, :meth:`gather` and :meth:`write` see the
    same buffers as ``(rows, NCOL)`` matrices without a copy.  Growing
    allocates fresh buffers, so a numpy view taken earlier never blocks
    it (it keeps reading the old rows).

    An arena holds no reference to tables, engines or kernels, so a
    run's state stays acyclic (DESIGN.md §15).
    """

    __slots__ = ("_f", "_p", "_n", "_cap", "_lens", "_structs")

    def __init__(self, capacity: int = 1024):
        self._f = array("d", bytes(8 * NCOL * capacity))
        self._p = array("i", bytes(4 * 3 * capacity))
        self._n = 0
        self._cap = capacity
        self._lens = None
        #: row -> Pulldown: eager structures and memoized rebuilt ones
        self._structs: Dict[int, Pulldown] = {}

    def __len__(self) -> int:
        return self._n

    def reserve(self, n: int) -> int:
        """Append ``n`` rows (contents unset) and return the first id."""
        base = self._n
        need = base + n
        if need > self._cap:
            cap = max(need, 2 * self._cap)
            grown_f = array("d")
            grown_f.frombytes(memoryview(self._f).cast("B"))
            grown_f.frombytes(bytes(8 * NCOL * (cap - self._cap)))
            grown_p = array("i")
            grown_p.frombytes(memoryview(self._p).cast("B"))
            grown_p.frombytes(bytes(4 * 3 * (cap - self._cap)))
            self._f, self._p, self._cap, self._lens = \
                grown_f, grown_p, cap, None
        self._n = need
        return base

    # -- the Python lens ----------------------------------------------
    def rows(self, ids: range) -> List[Row]:
        """The rows ``ids`` (a contiguous range) as typed Python values."""
        lo, hi = ids.start, ids.stop
        flat = self._f[lo * NCOL:hi * NCOL].tolist()
        return [Row(int(r[0]), int(r[1]), r[2], int(r[3]), int(r[4]),
                    int(r[5]), r[6] != 0.0, r[7] != 0.0, int(r[8]),
                    int(r[9]), r[10] != 0.0, i)
                for i, r in zip(ids, zip(*[iter(flat)] * NCOL))]

    def write_rows(self, base: int, fields: Sequence[tuple],
                   keys: Sequence[float], prov: Sequence[tuple]) -> None:
        """Write consecutive rows from ``base``.

        ``fields`` hold the eleven tuple columns in :data:`COLUMNS`
        order, ``keys`` the selection keys, ``prov`` the
        ``(op, left, right)`` triples.
        """
        flat: List[float] = []
        for values, key in zip(fields, keys):
            flat.extend(values)
            flat.append(key)
        end = base + len(fields)
        self._f[base * NCOL:end * NCOL] = array("d", flat)
        self._p[base * 3:end * 3] = array(
            "i", [x for triple in prov for x in triple])

    def append_tuples(self, tuples: Sequence[MapTuple],
                      keys: Optional[Sequence[float]] = None) -> range:
        """Append ``tuples`` as rows with eager structures; their ids."""
        base = self.reserve(len(tuples))
        self.write_rows(base, [_FIELDS(t) for t in tuples],
                        [math.nan] * len(tuples) if keys is None else keys,
                        [(OP_LEAF, -1, -1)] * len(tuples))
        for row, t in enumerate(tuples, base):
            self._structs[row] = t.structure
        return range(base, base + len(tuples))

    def key(self, row: int) -> float:
        """The selection key stored with ``row``."""
        return self._f[row * NCOL + KEY]

    def structure(self, row: int) -> Pulldown:
        """The pulldown of ``row``, rebuilt from provenance and memoized.

        Bit-identical to what an eager combination would have built:
        the back-pointers name the exact operand rows, and ``Series``/
        ``Parallel`` are deterministic in their operands.
        """
        structs = self._structs
        built = structs.get(row)
        if built is None:
            op, left, right = self._p[row * 3:row * 3 + 3]
            if op == OP_SER or op == OP_PAR:
                # operands are mostly memoized already (primary inputs,
                # formed gates, shared sub-rows): look before recursing
                top = structs.get(left)
                if top is None:
                    top = self.structure(left)
                below = structs.get(right)
                if below is None:
                    below = self.structure(right)
                built = (Series if op == OP_SER else Parallel)((top, below))
            elif op == OP_GATE:
                built = Leaf(f"g{left}", is_primary=False, source_gate=left)
            else:  # pragma: no cover - leaf rows are written with one
                raise KeyError(f"arena row {row} has no structure")
            structs[row] = built
        return built

    def set_structure(self, row: int, structure: Pulldown) -> None:
        """Give ``row`` an eager structure (ends the provenance walk)."""
        self._structs[row] = structure

    def tuple(self, row: int) -> MapTuple:
        """``row`` materialized as a :class:`MapTuple` with its structure."""
        r = self._f[row * NCOL:row * NCOL + KEY]
        return MapTuple(int(r[W]), int(r[H]), r[WC], int(r[TR]), int(r[DI]),
                        int(r[LV]), int(r[PD]), r[PB] != 0.0, r[HP] != 0.0,
                        self.structure(row), int(r[PT]), r[EP] != 0.0)

    # -- the numpy lens -----------------------------------------------
    def _matrices(self):
        lens = self._lens
        if lens is None:
            lens = self._lens = (
                np.frombuffer(self._f, dtype=np.float64).reshape(-1, NCOL),
                np.frombuffer(self._p, dtype=np.intc).reshape(-1, 3))
        return lens

    def gather(self, ids) -> "np.ndarray":
        """A ``(len(ids), NCOL)`` copy of the rows ``ids`` (an id array)."""
        return self._matrices()[0][ids]

    def write(self, dest, block, prov) -> None:
        """Write ``block`` (``(m, NCOL)``) and ``prov`` (``(m, 3)``) to
        rows ``dest`` (an id array)."""
        f, p = self._matrices()
        f[dest] = block
        p[dest] = prov


def ragged_ids(starts, counts):
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``
    as three numpy calls (``starts``, ``counts``: int64 arrays)."""
    offsets = np.cumsum(counts) - counts
    return (np.repeat(starts - offsets, counts)
            + np.arange(int(offsets[-1] + counts[-1])))


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------
class TupleTable:
    """Per-node table of sub-solutions, keyed by ``(W, H)``.

    The table's tuples are the arena rows ``start .. stop - 1`` in slot
    order: each slot is one run of rows of the same shape, slots in the
    order their first candidate arrived.  A DP kernel fills an empty
    table by writing those rows and setting ``start``/``stop``; the row
    at ``stop`` is reserved with them, for the node's formed-gate leaf.

    Parameters
    ----------
    key_fn:
        Maps a tuple's ``(wcost, levels)`` to its float selection key
        (:meth:`CostModel.tuple_key_metrics`).  Lower is better.  Each
        stored row keeps its key, computed once.
    pareto:
        When true, each slot keeps every tuple that is Pareto-optimal in
        ``(key, p_dis)`` (capped at ``max_front``); otherwise each slot
        keeps the single best tuple by ``(key, p_dis)``.
    arena:
        The run's :class:`Arena`; a table made without one gets its own.
    """

    __slots__ = ("_key_fn", "_pareto", "_max_front", "arena", "start",
                 "stop", "__weakref__")

    def __init__(self, key_fn, pareto: bool = False, max_front: int = 4,
                 arena: Optional[Arena] = None):
        self._key_fn = key_fn
        self._pareto = pareto
        self._max_front = max_front
        self.arena = Arena(16) if arena is None else arena
        self.start = 0
        self.stop = 0

    @property
    def key_fn(self):
        return self._key_fn

    @property
    def pareto(self) -> bool:
        return self._pareto

    @property
    def max_front(self) -> int:
        return self._max_front

    def _load(self, entries: List[Tuple[float, MapTuple]]) -> None:
        """Write ``(key, tuple)`` entries (slot order) as this table's
        rows, and reserve the gate row after them."""
        rows = self.arena.append_tuples([t for _, t in entries],
                                        [k for k, _ in entries])
        self.arena.reserve(1)
        self.start, self.stop = rows.start, rows.stop

    # ------------------------------------------------------------------
    # read accessors (materialize on demand)
    # ------------------------------------------------------------------
    def keyed_slots(self) -> List[Tuple[Tuple[int, int],
                                        List[Tuple[float, MapTuple]]]]:
        """Contents as ``(shape, [(key, tuple), ...])`` in slot order."""
        arena = self.arena
        out: List[Tuple[Tuple[int, int], list]] = []
        shape = None
        for row in range(self.start, self.stop):
            t = arena.tuple(row)
            if t.shape != shape:
                shape = t.shape
                out.append((shape, []))
            out[-1][1].append((arena.key(row), t))
        return out

    def all_tuples(self) -> Iterator[MapTuple]:
        for row in range(self.start, self.stop):
            yield self.arena.tuple(row)

    def best(self) -> Optional[MapTuple]:
        """Overall best tuple across all slots (None if the table is empty)."""
        best_tuple = None
        best_key = None
        for _, entries in self.keyed_slots():
            for stored_key, t in entries:
                key = (stored_key, t.p_dis)
                if best_key is None or key < best_key:
                    best_key = key
                    best_tuple = t
        return best_tuple

    def __len__(self) -> int:
        return self.stop - self.start

    def shapes(self) -> List[Tuple[int, int]]:
        return sorted(shape for shape, _ in self.keyed_slots())

    def get(self, width: int, height: int) -> List[MapTuple]:
        """Tuples stored for shape ``(width, height)`` (possibly empty)."""
        return [t for t in self.all_tuples()
                if t.width == width and t.height == height]

    # ------------------------------------------------------------------
    # the keep/evict rule, one candidate at a time
    # ------------------------------------------------------------------
    def insert(self, candidate: MapTuple,
               key: Optional[float] = None) -> bool:
        """Offer ``candidate``; returns True if it was kept.

        The specification of the DP's keep/evict rule, which the
        reference kernel transcribes literally.  ``key`` is the
        candidate's selection key when the caller already computed it;
        otherwise it is computed here, once, and stored with the row.
        A kept candidate rewrites the table's rows.
        """
        if key is None:
            key = self._key_fn(candidate.wcost, candidate.levels)
        slots = dict(self.keyed_slots())
        slot = slots.setdefault(candidate.shape, [])
        if not self._pareto:
            if slot and not ((key, candidate.p_dis)
                             < (slot[0][0], slot[0][1].p_dis)):
                return False
            slot[:] = [(key, candidate)]
            self._load([e for entries in slots.values() for e in entries])
            return True
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
        self._load([e for entries in slots.values() for e in entries])
        return True
