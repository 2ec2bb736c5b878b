"""DP tuples for tests, written the way the DP writes them: arena rows.

:func:`fields` spells one row's tuple columns with defaults,
:func:`append_rows` writes rows with ``Arena.reserve`` and
``Arena.write_rows``, and :func:`slots` reads a table back with
``Arena.rows``.
"""

from __future__ import annotations

import math

from repro.mapping.tuples import OP_LEAF


def fields(width=1, height=1, wcost=1.0, levels=0, p_dis=0, p_tail=0,
           par_b=False, ends_par=None, trans=1, disch=0, has_pi=True):
    """One row's eleven tuple columns, in ``COLUMNS`` order.

    ``ends_par`` defaults to ``par_b``.
    """
    return (width, height, wcost, levels, p_dis, p_tail, par_b,
            par_b if ends_par is None else ends_par, trans, disch, has_pi)


def append_rows(arena, rows, keys=None, structures=()) -> range:
    """Append ``rows`` (:func:`fields` tuples) as operand-free rows.

    ``keys`` default to NaN (an operand row's key is never read);
    ``structures`` become the first rows' eager structures.  Returns the
    new rows' ids.
    """
    base = arena.reserve(len(rows))
    arena.write_rows(base, rows,
                     [math.nan] * len(rows) if keys is None else keys,
                     [(OP_LEAF, -1, -1)] * len(rows))
    for row, structure in enumerate(structures, base):
        arena.set_structure(row, structure)
    return range(base, base + len(rows))


def slots(arena, table: range):
    """``table``'s rows as ``[(shape, [(key, *columns), ...]), ...]``.

    Slots in table order, entries in slot order; ``columns`` are a
    row's :func:`fields`.
    """
    out = []
    shape = None
    for row in arena.rows(table):
        if (row.width, row.height) != shape:
            shape = (row.width, row.height)
            out.append((shape, []))
        out[-1][1].append((arena.key(row.id),) + tuple(row[:-1]))
    return out
