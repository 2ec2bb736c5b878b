"""Structure-of-arrays DP kernel: the combine step as numpy columns.

The reference kernel walks feasible fanin pairs one at a time, pricing
and bound-checking each candidate against its ``{W,H}`` slot.  This
kernel instead materializes the candidates of a whole *batch of nodes*
— the engine hands it one topological level at a time, cut into chunks
(:meth:`SoAKernel.combine_many`) — as parallel numpy columns: just the
*selection* columns (node, shape id, key, ``p_dis``, ``p_tail``,
``par_b``) plus operand-index provenance, reduced with one vectorized
selection for all the batch's slots.  The surviving tuples (a handful
per slot) are written back to the run's
:class:`~repro.mapping.tuples.Arena` as one block of rows, their
scalar fields gathered straight from the generation columns (whose
arithmetic is the reference's, so the values are bit-equal) and their
provenance as operand row ids, so no Python object is made per
candidate or per winner, and one batch pays numpy's fixed per-call cost
for many nodes.

Operand views are ranges of arena rows; a batch gathers the rows of all
its views with one fancy index per side (``arena.gather``).

Bit-identity with the reference kernel is the contract (DESIGN.md §12),
and it holds per node, whatever else shares the batch:

* Candidate *generation order* is preserved: pairs are enumerated
  ragged and row-major over the batch's concatenated view matrices —
  node by node, and within a node a-major then b, exactly the
  reference loops (a one-node batch takes ``np.nonzero`` of the
  broadcast feasibility mask, the same order); exhaustive ordering
  interleaves the two stacking orders of each pair as adjacent
  candidates.  OR nodes are placed before AND nodes, so one split
  point separates the two generation formulas.
* All scalar arithmetic is elementwise IEEE-754 double ops in the exact
  association the reference uses, so every ``wcost`` and selection key
  is bit-equal to its scalar twin.
* Single mode (and non-PBE pareto, whose slot front provably stays a
  singleton and degenerates to the same strict-min selection): the slot
  winner is the *first occurrence* of the lexicographic minimum of
  ``(key, p_dis)`` — one stable ``np.lexsort`` over the whole batch,
  node index as the primary key — which is precisely what the
  reference's strict-``<`` incumbent replacement converges to.
  Accept events (for stats parity) are counted with a segmented prefix
  minimum over the lex ranks, no per-group Python loop.  The key enters
  the sort as a monotone uint16-digit image of its f64 bits
  (:func:`_key_cols`), so ``np.lexsort`` stays on numpy's radix path
  end to end whenever the node indices, shape ids and ``p_dis`` fit
  int16, which is every batch the engine builds (at most
  ``BATCH_NODE_CAP`` nodes) under every limit pair with
  ``(w_max+1)(h_max+1) < 32000``; larger limits take the same lexsort
  on the raw columns (a comparison sort).  It is the only selection
  path: realistic cost models make most keys binary-infinite fractions
  (fanout amortization divides ``wcost`` by the fanout in the area-flow
  seed), so narrower key images would rarely apply; DESIGN.md §12
  gives the per-workload path count.
* PBE pareto mode: the bounded front (``max_front`` truncation) is a
  sequential recurrence — dropping a tuple can resurrect one it would
  have dominated, so candidates cannot be reduced independently — but
  it is sequential only *within* a slot, and between two changes to a
  slot's front *membership* the front is fixed.  The reducer is a
  change-point loop across slots: each step classifies the next
  ``_WINDOW`` candidates of every active slot against its current
  front, takes the prefix before the first membership change in bulk,
  and applies that one change exactly.  A candidate is *rejected* when
  a live entry dominates it; it is *append-then-truncate* when it is
  not dominated, the front holds ``max_front`` entries, and its
  ``(key rank, p_dis)`` is strictly above the front's maximum — it
  then dominates no entry, and the reference appends it, stable-sorts
  by ``(key, p_dis)`` and cuts it again, so its only effect is that
  re-sort.  Anything else, ties with the maximum included, goes to the
  exact step.  Fronts live in a ``(max_front + 1, slots)`` array of packed
  int64 words carrying the dominance fields as guarded bit fields —
  dense batch-wide key rank (ranks preserve every ``<=`` the dominance
  test asks while making fractional keys exact small ints), ``p_dis``,
  ``p_tail``, ``par_b`` — plus the insertion stamp, so one subtract /
  mask / compare evaluates the componentwise dominance of all fields
  at once (a field's guard bit survives ``(cand | guards) - front``
  exactly when the field did not borrow, i.e. front <= cand).  Dead
  rows hold an all-fields-max sentinel that can never dominate and
  always sorts last, and the ``(key, p_dis, stamp)`` re-sort is an
  integer rank of the shifted word — the stamp tie-break reproduces
  the reference's stable list sort (list order == insertion order)
  bit-exactly.  Finished slots leave the state arrays in batches, so a
  step costs about what its active slots cost; the winning rows are
  written through one batched gather at the end.  The reducer's state
  is per slot already, so a batch's slots are its ``(node, shape)``
  pairs (candidates arrive node-major, so one stable sort by shape
  keeps each pair contiguous), and all of them share one front-state
  array, one key rank and one loop.  A batch whose fields overflow one
  packed word (far beyond any feasible structure), or whose tables'
  front caps differ, goes whole to the reference kernel.
* Slot dict order is the shapes' first-candidate order, matching the
  reference's create-on-first-arrival — load-bearing because gate
  formation takes the first minimum in slot-insertion order.  Each node's
  candidates are one contiguous arrival range, so sorting the batch's
  winners by first arrival is node-major, and both reducers write each
  node's rows contiguously, followed by the row reserved for its gate.

Every table enters empty, as the kernel contract in
:mod:`repro.mapping.kernel` guarantees, so each reducer builds its slots
anew.  Stats parity: ``tuples_created``/``tuples_pruned`` are reproduced
exactly, so the auto kernel can mix both kernels within one run without
observable drift.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .kernel import BatchItem, ReferenceKernel
from .tuples import (DI as _DI, EP as _EP, H as _H, HP as _HP, KEY as _KEY,
                     LV as _LV, NCOL, OP_PAR, OP_SER, PB as _PB, PD as _PD,
                     PT as _PT, TR as _TR, W as _W, WC as _WC, ragged_ids)

#: uint16 digits of a uint64, least significant first (endian-aware).
_DIGITS = (0, 1, 2, 3) if np.little_endian else (3, 2, 1, 0)
_SIGN64 = np.uint64(1 << 63)
_U63 = np.uint64(63)

#: Pareto change-point steps classify the next ``_WINDOW`` candidates of
#: every active slot, widened to about ``_STEP_CELLS`` candidates in all
#: once few slots remain (a step's cost is mostly its fixed numpy
#: dispatches, so a thin step should look further ahead).
_WINDOW = 32
_STEP_CELLS = 1024


def _key_cols(key):
    """Radix digits of the float64 ``key``, least significant first.

    The double maps to its order-isomorphic uint64 image (sign bit set
    for non-negatives, all bits flipped for negatives) split into four
    uint16 digits, so an LSD ``np.lexsort`` over them reproduces the
    exact float order on numpy's radix path.  Both zeros map to one
    image so a ``-0.0``/``+0.0`` tie keeps arrival order.
    """
    kb = key.view(np.uint64)
    ku = np.where(kb >> _U63 != 0, ~kb, kb | _SIGN64)
    ku[key == 0.0] = _SIGN64
    d = ku.view(np.uint16).reshape(-1, 4)
    return (d[:, _DIGITS[0]], d[:, _DIGITS[1]],
            d[:, _DIGITS[2]], d[:, _DIGITS[3]])


def _typed(m):
    """The generation columns of gathered arena rows, in their numpy types.

    ``(width, height, wcost, levels, p_dis, p_tail, par_b, ends_par)``:
    int64 counts, the float64 cost, bool flags.
    """
    ints = [m[:, c].astype(np.int64) for c in (_W, _H, _LV, _PD, _PT)]
    return (ints[0], ints[1], m[:, _WC], ints[2], ints[3], ints[4],
            m[:, _PB] != 0.0, m[:, _EP] != 0.0)


def _merge(or_part, ser_part):
    """The OR then the series candidate columns of a mixed batch."""
    return {f: x if x is None else np.concatenate((x, ser_part[f]))
            for f, x in or_part.items()}


class SoAKernel:
    """The vectorized peer of :class:`~repro.mapping.kernel.ReferenceKernel`."""

    name = "soa"
    active = "soa"

    def __init__(self):
        self._stats = None

    def build(self, engine) -> None:
        self._stats = engine.stats
        config = engine.config
        self._w_max = config.w_max
        self._h_max = config.h_max
        self._hstride = config.h_max + 1
        self._nshape = (config.w_max + 1) * self._hstride
        self._pbe = config.pbe_aware
        self._pareto = config.pareto
        ordering = config.ordering
        pbe = config.pbe_aware
        self._adverse = (ordering == "adverse"
                         or (not pbe and ordering != "naive"))
        self._naive = not self._adverse and (not pbe or ordering == "naive")
        self._exhaustive = (not self._adverse and not self._naive
                            and ordering == "exhaustive")
        self._discharge = engine.model.discharge_cost()
        # Shape ids and potential-point counts fit int16 for any sane
        # limit pair (p_dis is bounded by the structure's device count,
        # itself at most w_max*h_max); numpy's radix sort only covers
        # <=16-bit integers, and the radix path sorts ~4x faster than a
        # comparison sort, so it is worth gating on.
        self._i16 = self._nshape < 32000
        self._metric = engine.model.tuple_key_metrics
        self._exact = ReferenceKernel()
        self._exact.build(engine)

    def finalize(self) -> None:
        pass

    # ------------------------------------------------------------------
    # the combine step
    # ------------------------------------------------------------------
    def combine_many(self, items: Sequence[BatchItem]) -> List[int]:
        """Fill every item's table; return per-item candidate counts.

        The whole batch is one generation, one reduction (the sort of
        single mode, or the change-point pass over every PBE pareto
        slot of the batch) and one write of the winning rows.
        """
        # OR nodes first, so one split point separates the two
        # generation formulas; node order is otherwise free, since the
        # nodes of a batch are independent.
        order = sorted(range(len(items)), key=lambda j: not items[j][1])
        counts = self._combine_fresh([items[j] for j in order])
        created = [0] * len(items)
        for j, count in zip(order, counts):
            created[j] = count
        return created

    def _combine_fresh(self, items) -> List[int]:
        batch = self._generate(items)
        self._record(batch)
        if batch is None:
            return [0] * len(items)
        tables = [item[0] for item in items]
        if self._pareto and self._pbe:
            pruned = self._reduce_pareto(tables, batch)
            if pruned is None:
                # The change-point pass cannot take this batch (fields
                # too wide for its packed words, or mixed front caps):
                # the reference kernel fills the tables (and counts)
                # instead.
                return self._exact.combine_many(items)
        else:
            pruned = self._reduce_single(tables, batch)
        self._count(batch["n"], pruned)
        return np.bincount(batch["node"], minlength=len(items)).tolist()

    def _record(self, batch) -> None:
        stats = self._stats
        stats.soa_batches += 1
        if batch is None:
            return
        n = batch["n"]
        stats.soa_candidates += n
        if n > stats.soa_max_batch:
            stats.soa_max_batch = n

    def _count(self, n: int, pruned: int) -> None:
        stats = self._stats
        stats.tuples_created += n
        stats.tuples_pruned += pruned

    # ------------------------------------------------------------------
    # candidate generation (selection columns only)
    # ------------------------------------------------------------------
    def _generate(self, items):
        """The candidate columns of a batch of nodes, OR nodes first.

        Pairs are enumerated ragged and row-major over the views' rows
        gathered side by side: node by node, and within a node a-major
        then b, exactly the reference's loops.  ``pair_a``/``pair_b``
        index the gathered rows (``ids_a``/``ids_b`` map them back to
        arena rows), ``node`` is each candidate's item index, and the
        OR candidates come first (``n_or`` of them).
        """
        views_a = [item[2] for item in items]
        views_b = [item[3] for item in items]
        k = len(items)
        k_or = sum(1 for item in items if item[1])
        na = np.fromiter(map(len, views_a), dtype=np.int64, count=k)
        nb = np.fromiter(map(len, views_b), dtype=np.int64, count=k)
        arena = items[0][0].arena
        ids_a = _view_ids(views_a, na)
        ids_b = _view_ids(views_b, nb)
        A = arena.gather(ids_a)
        B = arena.gather(ids_b)
        acols = _typed(A)
        bcols = _typed(B)
        aW, aH, aWC, aLV, aPD = acols[:5]
        bW, bH, bWC, bLV, bPD = bcols[:5]
        if k == 1:
            # One node: the feasible pairs of its grid straight from a
            # broadcast mask (row-major nonzero), no full-grid indices.
            if k_or:
                feasible = aW[:, None] + bW[None, :] <= self._w_max
            else:
                feasible = aH[:, None] + bH[None, :] <= self._h_max
            or_pairs = ser_pairs = np.nonzero(feasible)
        else:
            row_len = np.repeat(nb, na)     # candidate pairs per a-row
            total = int(row_len.sum())
            a = np.repeat(np.arange(A.shape[0]), row_len)
            row_start = np.cumsum(row_len) - row_len
            b_start = np.repeat(np.cumsum(nb) - nb, na)
            b = np.arange(total) + np.repeat(b_start - row_start, row_len)
            split = int(np.dot(na[:k_or], nb[:k_or]))
            ai, bi = a[:split], b[:split]
            keep = np.flatnonzero(aW[ai] + bW[bi] <= self._w_max)
            or_pairs = ai[keep], bi[keep]
            ai, bi = a[split:], b[split:]
            keep = np.flatnonzero(aH[ai] + bH[bi] <= self._h_max)
            ser_pairs = ai[keep], bi[keep]
        parts = []
        if k_or:
            ai, bi = or_pairs
            # Inside a parallel stack every potential point rides on the
            # stack's shared bottom node: p_tail == p_dis, par_b True.
            p_dis = aPD[ai] + bPD[bi] if self._pbe else None
            parts.append({
                "sid": ((aW[ai] + bW[bi]) * self._hstride
                        + np.maximum(aH[ai], bH[bi])),
                "wcost": aWC[ai] + bWC[bi],
                "levels": np.maximum(aLV[ai], bLV[bi]),
                "p_dis": p_dis, "p_tail": p_dis,
                "par_b": np.ones(ai.size, dtype=bool),
                "committed": np.zeros(ai.size, dtype=np.int64),
                "top_is_b": np.zeros(ai.size, dtype=bool),
                "pair_a": ai, "pair_b": bi})
        n_or = parts[0]["sid"].size if parts else 0
        if k_or < k:
            parts.append(self._gen_ser(*ser_pairs, acols, bcols))
        cols = parts[0] if len(parts) == 1 else _merge(*parts)
        n = cols["sid"].size
        if n == 0:
            return None
        cols["key"] = self._metric(cols["wcost"], cols["levels"])
        node_of_row = np.repeat(
            np.arange(k, dtype=np.int16 if k < 32768 else np.int64), na)
        cols.update(n=n, n_or=n_or, node=node_of_row[cols["pair_a"]],
                    A=A, B=B, ids_a=ids_a, ids_b=ids_b)
        return cols

    def _gen_ser(self, ai, bi, acols, bcols):
        aW, aH, aWC, aLV, aPD, aPT, aPB, aEP = acols
        bW, bH, bWC, bLV, bPD, bPT, bPB, bEP = bcols
        n0 = ai.size
        # Shape, base cost and levels are symmetric in the operands, so
        # they never need the top/bottom pick below.
        sid = (np.maximum(aW[ai], bW[bi]) * self._hstride
               + (aH[ai] + bH[bi]))
        wbase = aWC[ai] + bWC[bi]
        levels = np.maximum(aLV[ai], bLV[bi])

        if not self._pbe:
            # No committed discharges: both stacking orders share every
            # scalar, the ordering rule only affects provenance.
            top_is_b = (bEP[bi] & ~aEP[ai] if self._adverse
                        else np.zeros(n0, dtype=bool))
            return {"sid": sid, "wcost": wbase, "levels": levels,
                    "p_dis": None, "p_tail": None,
                    "par_b": np.zeros(n0, dtype=bool),
                    "committed": np.zeros(n0, dtype=np.int64),
                    "top_is_b": top_is_b, "pair_a": ai, "pair_b": bi}

        aPDs, bPDs = aPD[ai], bPD[bi]
        aPTs, bPTs = aPT[ai], bPT[bi]
        aPBs, bPBs = aPB[ai], bPB[bi]
        if self._exhaustive:
            # Both stacking orders per pair, as adjacent candidates in
            # the reference's (a,b)-then-(b,a) order.
            def ilv(xa, xb):
                out = np.empty(2 * n0, dtype=xa.dtype)
                out[0::2] = xa
                out[1::2] = xb
                return out

            tPD, bPD_ = ilv(aPDs, bPDs), ilv(bPDs, aPDs)
            tPT, bPT_ = ilv(aPTs, bPTs), ilv(bPTs, aPTs)
            tPB, bPB_ = ilv(aPBs, bPBs), ilv(bPBs, aPBs)
            sid = np.repeat(sid, 2)
            wbase = np.repeat(wbase, 2)
            levels = np.repeat(levels, 2)
            pair_a = np.repeat(ai, 2)
            pair_b = np.repeat(bi, 2)
            top_is_b = np.tile(np.array([False, True]), n0)
        else:
            if self._adverse:
                # Bulk-CMOS habit: the parallel stack rises toward the
                # dynamic node.
                swap = bEP[bi] & ~aEP[ai]
            elif self._naive:
                swap = np.zeros(n0, dtype=bool)
            else:
                # The paper's rule: a parallel-stack-bearing operand
                # sinks to the bottom; with both or neither, the operand
                # with more potential discharge points sinks.
                swap = np.where(aPBs != bPBs, aPBs, aPDs >= bPDs)
            tPD, bPD_ = np.where(swap, bPDs, aPDs), np.where(swap, aPDs, bPDs)
            tPT, bPT_ = np.where(swap, bPTs, aPTs), np.where(swap, aPTs, bPTs)
            tPB, bPB_ = np.where(swap, bPBs, aPBs), np.where(swap, aPBs, bPBs)
            pair_a, pair_b, top_is_b = ai, bi, swap
        # A parallel-ending top commits its trailing-stack points plus
        # the new junction; a series-ending top adds the junction to the
        # spine as a new potential point.
        committed = np.where(tPB, tPT + 1, 0)
        p_dis = np.where(tPB, (tPD - tPT) + bPD_, tPD + 1 + bPD_)
        # Same association as the reference: (top + bottom) + committed*d.
        wcost = wbase + committed * self._discharge
        return {"sid": sid, "wcost": wcost, "levels": levels,
                "p_dis": p_dis, "p_tail": bPT_, "par_b": bPB_,
                "committed": committed, "top_is_b": top_is_b,
                "pair_a": pair_a, "pair_b": pair_b}

    # ------------------------------------------------------------------
    # the winners' rows
    # ------------------------------------------------------------------
    def _winner_rows(self, batch, idx):
        """The arena rows of the candidates at batch positions ``idx``.

        Returns the ``(len(idx), NCOL)`` column block and the
        ``(len(idx), 3)`` provenance.  Every scalar field is gathered
        from the generation columns (already bit-exact, in the
        reference's association) and the operand rows; provenance names
        the operand rows, top first.
        """
        pa = batch["pair_a"][idx]
        pb = batch["pair_b"][idx]
        ra = batch["A"][pa]
        rb = batch["B"][pb]
        is_or = idx < batch["n_or"]
        sid = batch["sid"][idx]
        m = len(sid)
        block = np.empty((m, NCOL), dtype=np.float64)
        block[:, _W] = sid // self._hstride
        block[:, _H] = sid % self._hstride
        block[:, _WC] = batch["wcost"][idx]
        block[:, _LV] = batch["levels"][idx]
        p_dis = batch["p_dis"]
        if p_dis is None:
            block[:, _PD] = 0.0
            block[:, _PT] = 0.0
        else:
            block[:, _PD] = p_dis[idx]
            block[:, _PT] = batch["p_tail"][idx]
        block[:, _PB] = batch["par_b"][idx]
        # ends_par is the bottom operand's: b's unless swapped on top.
        tib = batch["top_is_b"][idx]
        block[:, _EP] = np.where(is_or, 1.0,
                                 np.where(tib, ra[:, _EP], rb[:, _EP]))
        committed = batch["committed"][idx]
        block[:, _TR] = ra[:, _TR] + rb[:, _TR] + committed
        block[:, _DI] = ra[:, _DI] + rb[:, _DI] + committed
        block[:, _HP] = np.maximum(ra[:, _HP], rb[:, _HP])
        block[:, _KEY] = batch["key"][idx]
        left = batch["ids_a"][pa]
        right = batch["ids_b"][pb]
        prov = np.empty((m, 3), dtype=np.intc)
        prov[:, 0] = np.where(is_or, OP_PAR, OP_SER)
        prov[:, 1] = np.where(tib, right, left)
        prov[:, 2] = np.where(tib, left, right)
        return block, prov

    # ------------------------------------------------------------------
    # sorting (shared by both reducers)
    # ------------------------------------------------------------------
    def _sort_cols(self, batch):
        """``(sid, p_dis)`` as sort columns, int16 when limits allow.

        numpy's stable argsort is a radix sort only for <=16-bit
        integers; the reducers sort these columns once or twice per
        batch, so the one-pass downcast pays for itself many times.
        """
        sid = batch["sid"]
        p_dis = batch["p_dis"]
        if not self._i16:
            return sid, p_dis
        return (sid.astype(np.int16),
                None if p_dis is None else p_dis.astype(np.int16))

    # ------------------------------------------------------------------
    # the two reducers
    # ------------------------------------------------------------------
    def _reduce_single(self, tables, batch) -> int:
        """Single-mode selection: one stable sort, first element per slot.

        Stable lexsort: primary node, then shape, then (key, p_dis),
        ties in arrival order — the first element of each (node, shape)
        group is the first occurrence of the lexicographic minimum,
        exactly the incumbent the reference's strict-< replacement ends
        up with.  Returns the pruned count.
        """
        n = batch["n"]
        sid = batch["sid"]
        key = batch["key"]
        node = batch["node"]
        sid_s, pd_s = self._sort_cols(batch)
        # With int16 sort columns the key enters as its radix digits and
        # the whole lexsort runs on numpy's radix path; otherwise every
        # column sorts by comparison.
        cols = (_key_cols(key) if self._i16 else (key,)) + (sid_s,)
        if pd_s is not None:
            cols = (pd_s,) + cols
        if len(tables) > 1:
            cols += (node,)
        order = np.lexsort(cols)
        grp_o = (node.astype(np.int64) * self._nshape + sid)[order]
        newgrp = np.empty(n, dtype=bool)
        newgrp[0] = True
        np.not_equal(grp_o[1:], grp_o[:-1], out=newgrp[1:])
        starts = np.flatnonzero(newgrp)
        G = starts.size
        seg = np.cumsum(newgrp)
        # Accept events (stats parity): the reference's strict-<
        # incumbent replacement fires exactly when a candidate arrives
        # before every lex-smaller candidate of its group, i.e. at the
        # running strict minima of *arrival index* along lex order.
        # Per-group offsets decrease by more than the index range so one
        # global prefix minimum resets at each group boundary.
        rr = order + (G + 1 - seg) * n
        cm = np.minimum.accumulate(rr)
        accepts = 1 + int(np.count_nonzero(rr[1:] < cm[:-1]))
        # First lex element per group is the winner; slots are created
        # in each shape's first-*arrival* order (= ascending group
        # minimum of the arrival index), which is node-major because
        # each node's candidates are one contiguous arrival range.
        first_arrival = np.minimum.reduceat(order, starts)
        self._write(tables, batch,
                    order[starts][np.argsort(first_arrival, kind="stable")])
        return n - accepts

    def _write(self, tables, batch, winners) -> None:
        """Write the batch positions ``winners`` as one arena block.

        ``winners`` is node-major, each node's rows in slot order; each
        node's rows are followed by its gate row, so winner j of node t
        lands t rows further than its rank.
        """
        wnode = batch["node"][winners]
        k = len(tables)
        counts = np.bincount(wnode, minlength=k)
        arena = tables[0].arena
        base = arena.reserve(winners.size + k)
        arena.write(base + np.arange(winners.size) + wnode,
                    *self._winner_rows(batch, winners))
        firsts = base + np.cumsum(counts) - counts + np.arange(k)
        for table, first, count in zip(tables, firsts.tolist(),
                                       counts.tolist()):
            table.start = first
            table.stop = first + count

    def _reduce_pareto(self, tables, batch) -> Optional[int]:
        """The change-point reducer for a batch; returns the pruned count.

        Every ``(node, shape)`` slot of the batch runs through one
        front-state array.  ``None`` (tables untouched) when the
        batch's dominance fields do not fit one packed int64 word, or
        its tables' front caps differ.
        """
        max_front = tables[0].max_front
        if any(table.max_front != max_front for table in tables):
            return None
        n = batch["n"]
        key = batch["key"]
        p_dis = batch["p_dis"]
        p_tail = batch["p_tail"]
        par_b = batch["par_b"]
        # Slot groups: candidates arrive node-major, so a stable sort by
        # shape id alone leaves each (node, shape) group contiguous, in
        # arrival order; group g's candidates are gorder[starts[g]:
        # ends[g]].
        gorder = np.argsort(self._sort_cols(batch)[0], kind="stable")
        grp_g = (batch["node"].astype(np.int64) * self._nshape
                 + batch["sid"])[gorder]
        newgrp = np.empty(n, dtype=bool)
        newgrp[0] = True
        np.not_equal(grp_g[1:], grp_g[:-1], out=newgrp[1:])
        starts = np.flatnonzero(newgrp)
        G = starts.size
        ends = np.empty(G, dtype=np.int64)
        ends[:-1] = starts[1:]
        ends[-1] = n
        cmax = int((ends - starts).max())
        # Dense batch-wide key ranks: they preserve every <= / == the
        # dominance test asks of two keys while turning fractional keys
        # into exact small ints that fit a packed word.
        korder = np.argsort(key)
        sk = key[korder]
        newv = np.empty(n, dtype=bool)
        newv[0] = False
        np.not_equal(sk[1:], sk[:-1], out=newv[1:])
        rank = np.empty(n, dtype=np.int64)
        rank[korder] = np.cumsum(newv)
        # OR combines have par_b uniformly True and p_tail equal to
        # p_dis, so dominance and eviction reduce to (key, p_dis).
        full = batch["n_or"] < n
        # Guarded bit-field pack (lsb->msb: par_b, p_tail, stamp,
        # p_dis, key rank; one zero guard bit above each field).  One
        # spare value per field so the all-fields-max dead-column
        # sentinel compares strictly above every live entry.
        BK = (int(rank[korder[-1]]) + 1).bit_length()
        BD = (int(p_dis.max()) + 1).bit_length()
        BS = (cmax + max_front + 1).bit_length()
        if full:
            BT = (int(p_tail.max()) + 1).bit_length()
            sh_t = 3
            sh_s = sh_t + BT + 1
        else:
            sh_s = 0
        sh_d = sh_s + BS + 1
        sh_k = sh_d + BD + 1
        if sh_k + BK + 1 > 63:
            # Pathological field widths (p_dis beyond any feasible
            # structure, or a batch with ~2**20 distinct keys and as
            # many candidates in one slot): the caller hands the batch
            # to the reference kernel, which costs nothing extra by then.
            return None
        if full:
            gmA = ((1 << 2) | (1 << (sh_t + BT)) | (1 << (sh_s + BS))
                   | (1 << (sh_d + BD)) | (1 << (sh_k + BK)))
            gmT = ((1 << 2) | (1 << (sh_t + BT))
                   | (1 << (sh_d + BD)) | (1 << (sh_k + BK)))
            huge = (3 | (((1 << BT) - 1) << sh_t)
                    | (((1 << BS) - 1) << sh_s)
                    | (((1 << BD) - 1) << sh_d)
                    | (((1 << BK) - 1) << sh_k))
            pack = ((rank << sh_k) | (p_dis << sh_d) | (p_tail << sh_t)
                    | par_b.astype(np.int64))
        else:
            gmA = ((1 << (sh_s + BS)) | (1 << (sh_d + BD))
                   | (1 << (sh_k + BK)))
            gmT = (1 << (sh_d + BD)) | (1 << (sh_k + BK))
            huge = ((((1 << BS) - 1) << sh_s)
                    | (((1 << BD) - 1) << sh_d)
                    | (((1 << BK) - 1) << sh_k))
            pack = (rank << sh_k) | (p_dis << sh_d)
        gpack = pack[gorder]
        GmA = np.int64(gmA)
        GmT = np.int64(gmT)
        HUGE = np.int64(huge)
        SM = np.int64(((1 << BS) - 1) << sh_s)
        NSM = np.int64(~(((1 << BS) - 1) << sh_s))
        # Front state, one column per unfinished slot: F rows of
        # packed words (dead rows hold HUGE) and the batch index of
        # each entry.  One row past the cap when truncation can fire,
        # else one past the longest run — either way an append always
        # finds a dead row.
        F = min(max_front, cmax) + 1
        can_trunc = F == max_front + 1
        PF = np.full((F, G), HUGE, dtype=np.int64)
        FI = np.zeros((F, G), dtype=np.int32)
        nord = np.zeros(G, dtype=np.int64)
        pos = starts.astype(np.int64)
        end = ends
        slot = np.arange(G)
        PF_out = np.empty((F, G), dtype=np.int64)
        FI_out = np.empty((F, G), dtype=np.int32)
        lanes = np.arange(max(_WINDOW, _STEP_CELLS))
        top_rank = F - 1

        def restamp(cols):
            # The reference's stable sort by (key, p_dis) plus cut, as
            # an integer rank of (key rank, p_dis, stamp) — stamps are
            # distinct, so ranks are too.  The strongest entries take
            # stamps 0.. in sorted order; the weakest (a dead row, or
            # the one past the cap) becomes dead.
            sub = PF[:, cols]
            hi = sub >> sh_s
            rk = (hi[:, None, :] > hi[None, :, :]).sum(axis=1)
            sub &= NSM
            sub |= rk << sh_s
            sub[rk == top_rank] = HUGE
            PF[:, cols] = sub
            nord[cols] = max_front

        pruned = 0
        while True:
            rem = end - pos
            R = rem.size
            W = min(max(_WINDOW, _STEP_CELLS // R), int(rem.max()))
            lane = lanes[:W]
            # The next W candidates of every active slot, classified
            # against the slot's current (fixed until its first
            # membership change) front.  Rejected: some entry is at
            # least as strong in every field — per packed field, front
            # <= cand leaves the field's guard standing in (cand |
            # guards) - front, all of them at once == GmT, the integer
            # maximum of masked values.  Dead rows (HUGE) never
            # dominate.
            cand = gpack.take(pos[:, None] + lane, mode="clip")
            t = (cand | GmA)[None, :, :] - PF[:, :, None]
            t &= GmT
            rej = t.max(axis=0) == GmT
            # Append-then-truncate: a full front and (key rank, p_dis)
            # strictly above the front's maximum, so the cut drops the
            # newcomer itself and only the re-sort remains.  Such a
            # candidate cannot evict: dominating an entry needs both
            # fields <= the entry's.  A tie goes to the exact step.
            live = PF != HUGE
            top = (np.where(live, PF, 0).max(axis=0) >> sh_d) + 1 << sh_d
            thr = np.where(live.sum(axis=0) == max_front, top, HUGE)
            quiet = cand >= thr[:, None]
            quiet |= rej
            quiet &= lane < rem[:, None]
            run = np.logical_and.accumulate(quiet, axis=1)
            k = run.sum(axis=1)
            nat = (run & ~rej).sum(axis=1)
            kt = int(k.sum())
            at = int(nat.sum())
            pruned += kt - at
            if at:
                restamp(np.flatnonzero(nat))
            # The first membership change after each quiet prefix, if
            # the window reached one: applied exactly — evict what it
            # dominates, append into the first dead row with the next
            # stamp, and sort-truncate a front that overflows.
            ch = np.flatnonzero(k < np.minimum(rem, W))
            if ch.size:
                kc = k[ch]
                c = cand[ch, kc]
                # The dominance test with the roles swapped; the
                # candidate also "dominates" every dead row, harmlessly.
                sub = PF[:, ch]
                sub[((sub | GmA) - c) & GmT == GmT] = HUGE
                dead = sub == HUGE
                col = dead.argmax(axis=0)
                sub[col, np.arange(ch.size)] = c | (nord[ch] << sh_s)
                PF[:, ch] = sub
                FI[col, ch] = gorder[pos[ch] + kc]
                nord[ch] += 1
                k[ch] += 1
                if can_trunc:
                    over = ch[dead.sum(axis=0) == 1]
                    if over.size:
                        restamp(over)
            pos += k
            # Finished slots idle harmlessly (no window, no change) until
            # a quarter of the columns are finished; then they leave.
            done = pos == end
            nd = int(np.count_nonzero(done))
            if nd * 4 >= R:
                fin = slot[done]
                PF_out[:, fin] = PF[:, done]
                FI_out[:, fin] = FI[:, done]
                if nd == R:
                    break
                keep = ~done
                PF = PF[:, keep]
                FI = FI[:, keep]
                nord = nord[keep]
                pos = pos[keep]
                end = end[keep]
                slot = slot[keep]
        # The rows in each slot's first-arrival order (node-major, and
        # within a node the reference's create-on-first-arrival dict
        # order), entries in stamp order (= the reference's list
        # order), written as one block; stored keys gather from the
        # generation column, so they stay the exact doubles the
        # reference would have cached.
        slot_rank = np.argsort(gorder[starts], kind="stable")
        pos_of = np.empty(G, dtype=np.int64)
        pos_of[slot_rank] = np.arange(G)
        fr_, rw = np.nonzero(PF_out != HUGE)
        srt = np.lexsort((PF_out[fr_, rw] & SM, pos_of[rw]))
        self._write(tables, batch, FI_out[fr_, rw][srt].astype(np.int64))
        return pruned


def _view_ids(views: Sequence[range], counts) -> np.ndarray:
    """The arena rows of ``views`` (row-id ranges), concatenated."""
    if len(views) == 1:
        return np.arange(views[0].start, views[0].stop)
    starts = np.fromiter((v.start for v in views), dtype=np.int64,
                         count=len(views))
    return ragged_ids(starts, counts)
