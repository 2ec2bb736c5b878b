"""Mapping tuples: the dynamic-programming sub-solutions, as arena rows.

The paper associates 6-tuples with intermediate solutions; here a
sub-solution carries the pair ``{W, H}``, the accumulated cost
components, and the PBE bookkeeping (``p_dis``, ``par_b``).

Every sub-solution of a mapping run is one row of the run's
:class:`Arena`, a column store: the eleven :data:`COLUMNS` fields and
the selection key as float64 (every integer field is exact in a
double), plus int32 provenance ``(op, left, right)`` — how the row was
combined from two earlier rows, top operand first, or which leaf it is.
A node's table is the contiguous row range ``start .. stop - 1`` in
slot order, followed by one row reserved for its formed gate, so a
table costs two integers, and the DP kernels
(:mod:`repro.mapping.kernel`) read and write whole batches of rows at
once (DESIGN.md §17).

Pulldown structures are rebuilt from provenance only for the rows that
need one (the selected gates): :meth:`Arena.structure` walks the
back-pointers with the ``Series`` / ``Parallel`` constructors, memoized
per row, and stops at rows that carry an eager structure (primary
inputs) or name a formed gate.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, NamedTuple, Sequence

try:  # the numpy lens of the arena serves the soa kernel and the
    import numpy as np  # column gate formation; everything else reads
except ImportError:  # pragma: no cover - the arena through ``array``.
    np = None

from ..domino.structure import Leaf, Parallel, Pulldown, Series


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
#: ``right``; the formed gate of network node ``left``; a row with no
#: operands (a primary input, whose structure is eager, or a gate row
#: not yet formed).
OP_SER, OP_PAR, OP_GATE, OP_LEAF = range(4)


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
    reads and writes them directly (:meth:`rows`, :meth:`write_rows`);
    with numpy, :meth:`gather` and :meth:`write` see the
    same buffers as ``(rows, NCOL)`` matrices without a copy.  Growing
    allocates fresh buffers, so a numpy view taken earlier never blocks
    it (it keeps reading the old rows).

    An arena holds no reference to tables, engines or kernels, so a
    run's state stays acyclic (DESIGN.md §15).
    """

    __slots__ = ("_f", "_p", "_n", "_cap", "_lens", "_structs",
                 "__weakref__")

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
