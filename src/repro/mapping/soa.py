"""Structure-of-arrays DP kernel: the combine step as numpy columns.

The reference kernel walks feasible fanin pairs one at a time, pricing
and bound-checking each candidate against its ``{W,H}`` slot.  This
kernel instead materializes the whole candidate batch of one combine
call as parallel numpy columns — just the *selection* columns (shape
id, key, ``p_dis``, ``p_tail``, ``par_b``) plus operand-index
provenance — and reduces each slot with vectorized selection.  Only the
surviving tuples (a handful per slot) are ever materialized back into
:class:`MapTuple` objects, their scalar fields gathered straight from
the generation columns (whose arithmetic is the reference's, so the
values are bit-equal), so the per-candidate Python object overhead
disappears from the hot path.

Bit-identity with the reference kernel is the contract (DESIGN.md §12):

* Candidate *generation order* is preserved: ``np.nonzero`` on the
  row-major feasibility mask enumerates pairs a-major then b, exactly
  the reference loops; exhaustive ordering interleaves the two stacking
  orders of each pair as adjacent candidates.
* All scalar arithmetic is elementwise IEEE-754 double ops in the exact
  association the reference uses, so every ``wcost`` and selection key
  is bit-equal to its scalar twin.
* Single mode (and non-PBE pareto, whose slot front provably stays a
  singleton and degenerates to the same strict-min selection): the slot
  winner is the *first occurrence* of the lexicographic minimum of
  ``(key, p_dis)`` — one stable ``np.lexsort`` — which is precisely
  what the reference's strict-``<`` incumbent replacement converges to.
  Accept events (for stats parity) are counted with a segmented prefix
  minimum over the lex ranks, no per-group Python loop.  The key enters
  the sort as a monotone uint16-digit image of its f64 bits
  (:func:`_key_cols`), so ``np.lexsort`` stays on numpy's radix path
  end to end whenever the shape ids and ``p_dis`` fit int16, which is
  every limit pair with ``(w_max+1)(h_max+1) < 32000``; larger limits
  take the same lexsort on the raw columns (a comparison sort).  It is
  the only selection path: realistic cost models make most keys
  binary-infinite fractions (fanout amortization divides ``wcost`` by
  the fanout in the area-flow seed), so narrower key images would
  rarely apply; DESIGN.md §12 gives the per-workload path count.
* PBE pareto mode: the bounded front (``max_front`` truncation) is a
  sequential recurrence — dropping a tuple can resurrect one it would
  have dominated, so candidates cannot be reduced independently — but
  it is sequential only *within* a slot.  The reducer runs the
  recurrence columnwise across slots: step ``r`` applies every slot's
  ``r``-th surviving candidate at once against a fixed-width
  ``(max_front + 1, slots)`` front array of packed int64 words.  Each
  word carries the dominance fields as guarded bit fields — dense
  per-slot key rank (ranks preserve every ``<=`` the dominance test
  asks while making fractional keys exact small ints), ``p_dis``,
  ``p_tail``, ``par_b`` — plus the insertion stamp, so one subtract /
  mask / compare per step evaluates the componentwise dominance of
  all fields at once (a field's guard bit survives ``(cand | guards)
  - front`` exactly when the field did not borrow, i.e. front <=
  cand), dead columns hold an all-fields-max sentinel that can never
  dominate and always sorts last, and the ``(key, p_dis, stamp)``
  sort-truncate past ``max_front`` is a single integer argsort of
  the shifted pack — the stamp tie-break reproduces the reference's
  stable list sort (list order == insertion order) bit-exactly.
  A sound vectorized pre-reject shrinks the replay set
  first: at any point, some live front entry is at least as strong
  (componentwise) as the prefix lexicographic-minimum candidate of
  the slot — such an entry can be evicted only by a still-stronger
  one and is never truncated, because at most two mutually
  non-dominated entries can tie at the lex minimum while the sort
  keeps ``max_front >= 4`` (the pre-reject is disabled for smaller
  caps) — so any candidate that entry dominates is rejected no matter
  how the front evolved.  Slots are processed longest-first so the
  still-active rows of every step are a prefix of the state arrays;
  once fewer than ``_PARETO_TAIL`` slots still hold candidates, the
  stragglers finish on a scalar replay of the same packed words
  (Python ints do the identical guard-bit test) seeded from the
  array state — same decisions, none of the per-step dispatch
  overhead on tiny row sets.  Winning tuples materialize through
  one batched gather at the end; no operand Python object is touched
  until binding.
* Slot dict order is the shapes' first-candidate order, matching the
  reference's create-on-first-arrival — load-bearing because the tree
  cache serializes tables in slot-insertion order.

Stats parity: ``tuples_created``/``tuples_pruned``/``bound_skips`` are
reproduced exactly, so the auto kernel can mix both kernels within one
run without observable drift.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import List

import numpy as np

from .kernel import metric_fast_path
from .tuples import MapTuple, TupleTable


#: The MapTuple fields ``_cols`` gathers, in column order.
_COL_FIELDS = attrgetter("width", "height", "wcost", "levels", "p_dis",
                         "p_tail", "par_b", "ends_par", "trans", "disch",
                         "has_pi")

#: uint16 digits of a uint64, least significant first (endian-aware).
_DIGITS = (0, 1, 2, 3) if np.little_endian else (3, 2, 1, 0)
_SIGN64 = np.uint64(1 << 63)
_U63 = np.uint64(63)


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


class SoAKernel:
    """The vectorized peer of :class:`~repro.mapping.kernel.ReferenceKernel`."""

    name = "soa"
    active = "soa"

    #: Below this many still-active slots the columnwise pareto loop
    #: hands the remaining candidates to the scalar replay: one step of
    #: the loop is ~20 numpy dispatches regardless of row count, which
    #: costs more than that many scalar insert decisions.
    _PARETO_TAIL = 48

    def __init__(self):
        self._stats = None
        self._batches = 0
        self._candidates = 0
        self._max_batch = 0
        #: id(view) -> column tuple; views are memoized per node by the
        #: engine for the whole run, so ids are stable until finalize().
        self._vcols = {}

    def build(self, engine) -> None:
        self._stats = engine.stats
        self._vcols.clear()
        config = engine.config
        self._w_max = config.w_max
        self._h_max = config.h_max
        self._hstride = config.h_max + 1
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
        self._ft = np.array([False, True])
        # Shape ids and potential-point counts fit int16 for any sane
        # limit pair (p_dis is bounded by the structure's device count,
        # itself at most w_max*h_max); numpy's radix sort only covers
        # <=16-bit integers, and the radix path sorts ~4x faster than a
        # comparison sort, so it is worth gating on.
        self._i16 = (config.w_max + 1) * (config.h_max + 1) < 32000
        metric = metric_fast_path(engine.model)
        if metric is None:  # resolve_kernel guarantees otherwise
            raise RuntimeError(
                "SoAKernel requires the scalar metric fast path")
        self._metric = metric

    def finalize(self) -> None:
        self._vcols.clear()

    def stats(self) -> dict:
        return {"active": self.active, "soa_batches": self._batches,
                "soa_candidates": self._candidates,
                "soa_max_batch": self._max_batch}

    # ------------------------------------------------------------------
    # column extraction
    # ------------------------------------------------------------------
    def _cols(self, view: List[MapTuple]):
        cols = self._vcols.get(id(view))
        if cols is None:
            # One C-level attrgetter pass + one float64 matrix instead
            # of eleven listcomps: every field is exact in a double
            # (ints bounded far below 2**53), so the per-column casts
            # reproduce the original values bit-for-bit.
            m = np.array([_COL_FIELDS(t) for t in view],
                         dtype=np.float64).reshape(len(view), 11)
            cols = (
                m[:, 0].astype(np.int64),   # width
                m[:, 1].astype(np.int64),   # height
                m[:, 2],                    # wcost
                m[:, 3].astype(np.int64),   # levels
                m[:, 4].astype(np.int64),   # p_dis
                m[:, 5].astype(np.int64),   # p_tail
                m[:, 6] != 0.0,             # par_b
                m[:, 7] != 0.0,             # ends_par
                m[:, 8].astype(np.int64),   # trans
                m[:, 9].astype(np.int64),   # disch
                m[:, 10] != 0.0,            # has_pi
            )
            self._vcols[id(view)] = cols
        return cols

    # ------------------------------------------------------------------
    # the combine step
    # ------------------------------------------------------------------
    def combine(self, table: TupleTable, is_or: bool,
                view_a: List[MapTuple], view_b: List[MapTuple]) -> None:
        stats = self._stats
        self._batches += 1
        stats.soa_batches += 1
        batch = (self._gen_or if is_or else self._gen_ser)(view_a, view_b)
        if batch is None:
            return
        n = batch["n"]
        self._candidates += n
        stats.soa_candidates += n
        if n > self._max_batch:
            self._max_batch = n
            if n > stats.soa_max_batch:
                stats.soa_max_batch = n
        if table.raw_slots():
            accepts, pruned = self._combine_seeded(table, batch, is_or,
                                                   view_a, view_b)
        elif self._pareto and self._pbe:
            accepts, pruned = self._reduce_pareto(table, batch, is_or,
                                                  view_a, view_b)
        else:
            # Without PBE bookkeeping every p field is constant across a
            # slot, so pareto dominance collapses to "key not worse":
            # the front is always the strict running (key, p_dis)
            # minimum — exactly single-mode selection.
            accepts, pruned = self._reduce_single(table, batch, is_or,
                                                  view_a, view_b)
        stats.tuples_created += n
        stats.tuples_pruned += pruned
        stats.bound_skips += pruned
        return

    # ------------------------------------------------------------------
    # candidate generation (selection columns only)
    # ------------------------------------------------------------------
    def _gen_or(self, view_a, view_b):
        aW, aH, aWC, aLV, aPD = self._cols(view_a)[:5]
        bW, bH, bWC, bLV, bPD = self._cols(view_b)[:5]
        # Row-major nonzero == the reference's a-major, b-minor loop.
        ai, bi = np.nonzero(aW[:, None] + bW[None, :] <= self._w_max)
        n = ai.size
        if n == 0:
            return None
        sid = ((aW[ai] + bW[bi]) * self._hstride
               + np.maximum(aH[ai], bH[bi]))
        wcost = aWC[ai] + bWC[bi]
        levels = np.maximum(aLV[ai], bLV[bi])
        # Inside a parallel stack every potential point rides on the
        # stack's shared bottom node: p_tail == p_dis, par_b True.
        p_dis = aPD[ai] + bPD[bi] if self._pbe else None
        return {"n": n, "sid": sid, "key": self._metric(wcost, levels),
                "p_dis": p_dis, "p_tail": p_dis, "par_b": None,
                "pair_a": ai, "pair_b": bi, "top_is_b": None,
                "wcost": wcost, "levels": levels, "committed": None}

    def _gen_ser(self, view_a, view_b):
        aW, aH, aWC, aLV, aPD, aPT, aPB, aEP = self._cols(view_a)[:8]
        bW, bH, bWC, bLV, bPD, bPT, bPB, bEP = self._cols(view_b)[:8]
        ai, bi = np.nonzero(aH[:, None] + bH[None, :] <= self._h_max)
        n0 = ai.size
        if n0 == 0:
            return None
        # Shape, base cost and levels are symmetric in the operands, so
        # they never need the top/bottom pick below.
        sid = (np.maximum(aW[ai], bW[bi]) * self._hstride
               + (aH[ai] + bH[bi]))
        wbase = aWC[ai] + bWC[bi]
        levels = np.maximum(aLV[ai], bLV[bi])

        if not self._pbe:
            # No committed discharges: both stacking orders share every
            # scalar, the ordering rule only affects provenance.
            top_is_b = (bEP[bi] & ~aEP[ai]) if self._adverse else None
            return {"n": n0, "sid": sid,
                    "key": self._metric(wbase, levels),
                    "p_dis": None, "p_tail": None, "par_b": None,
                    "pair_a": ai, "pair_b": bi, "top_is_b": top_is_b,
                    "wcost": wbase, "levels": levels, "committed": None}

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
            top_is_b = np.tile(self._ft, n0)
            n = 2 * n0
        else:
            if self._adverse:
                # Bulk-CMOS habit: the parallel stack rises toward the
                # dynamic node.
                swap = bEP[bi] & ~aEP[ai]
            elif self._naive:
                swap = None
            else:
                # The paper's rule: a parallel-stack-bearing operand
                # sinks to the bottom; with both or neither, the operand
                # with more potential discharge points sinks.
                swap = np.where(aPBs != bPBs, aPBs, aPDs >= bPDs)
            if swap is None:
                tPD, bPD_ = aPDs, bPDs
                tPT, bPT_ = aPTs, bPTs
                tPB, bPB_ = aPBs, bPBs
            else:
                tPD, bPD_ = np.where(swap, bPDs, aPDs), np.where(swap, aPDs, bPDs)
                tPT, bPT_ = np.where(swap, bPTs, aPTs), np.where(swap, aPTs, bPTs)
                tPB, bPB_ = np.where(swap, bPBs, aPBs), np.where(swap, aPBs, bPBs)
            pair_a, pair_b, top_is_b = ai, bi, swap
            n = n0
        # A parallel-ending top commits its trailing-stack points plus
        # the new junction; a series-ending top adds the junction to the
        # spine as a new potential point.
        committed = np.where(tPB, tPT + 1, 0)
        p_dis = np.where(tPB, (tPD - tPT) + bPD_, tPD + 1 + bPD_)
        # Same association as the reference: (top + bottom) + committed*d.
        wcost = wbase + committed * self._discharge
        return {"n": n, "sid": sid, "key": self._metric(wcost, levels),
                "p_dis": p_dis, "p_tail": bPT_, "par_b": bPB_,
                "pair_a": pair_a, "pair_b": pair_b, "top_is_b": top_is_b,
                "wcost": wcost, "levels": levels, "committed": committed}

    # ------------------------------------------------------------------
    # survivor materialization (reference's exact scalar arithmetic)
    # ------------------------------------------------------------------
    def _mat_or(self, a: MapTuple, b: MapTuple) -> MapTuple:
        p_dis = a.p_dis + b.p_dis if self._pbe else 0
        return MapTuple(
            a.width + b.width, max(a.height, b.height),
            a.wcost + b.wcost, a.trans + b.trans, a.disch + b.disch,
            max(a.levels, b.levels), p_dis, True,
            a.has_pi or b.has_pi, p_tail=p_dis, ends_par=True,
            op="par", left=a, right=b)

    def _mat_ser(self, top: MapTuple, bottom: MapTuple) -> MapTuple:
        if self._pbe:
            if top.par_b:
                committed = top.p_tail + 1
                p_dis = (top.p_dis - top.p_tail) + bottom.p_dis
            else:
                committed = 0
                p_dis = top.p_dis + 1 + bottom.p_dis
            p_tail = bottom.p_tail
            par_b = bottom.par_b
        else:
            committed = 0
            p_dis = 0
            p_tail = 0
            par_b = False
        return MapTuple(
            max(top.width, bottom.width), top.height + bottom.height,
            (top.wcost + bottom.wcost) + committed * self._discharge,
            top.trans + bottom.trans + committed,
            top.disch + bottom.disch + committed,
            max(top.levels, bottom.levels), p_dis, par_b,
            top.has_pi or bottom.has_pi, p_tail=p_tail,
            ends_par=bottom.ends_par, op="ser", left=top, right=bottom)

    def _mat(self, batch, c: int, is_or: bool,
             view_a, view_b) -> MapTuple:
        a = view_a[int(batch["pair_a"][c])]
        b = view_b[int(batch["pair_b"][c])]
        if is_or:
            return self._mat_or(a, b)
        tib = batch["top_is_b"]
        if tib is not None and tib[c]:
            return self._mat_ser(b, a)
        return self._mat_ser(a, b)

    def _mat_many(self, batch, idx, is_or: bool,
                  view_a, view_b) -> List[MapTuple]:
        """Materialize the tuples at batch positions ``idx``, in order.

        Every scalar field is gathered from the generation columns
        (already bit-exact); only the provenance back-pointers touch the
        operand objects.  One vectorized gather per batch replaces the
        per-winner scalar recompute of :meth:`_mat_ser`/:meth:`_mat_or`.
        """
        acols = self._cols(view_a)
        bcols = self._cols(view_b)
        pa = batch["pair_a"][idx]
        pb = batch["pair_b"][idx]
        trans = acols[8][pa] + bcols[8][pb]
        disch = acols[9][pa] + bcols[9][pb]
        committed = batch["committed"]
        if committed is not None:
            cm = committed[idx]
            trans = trans + cm
            disch = disch + cm
        sid = batch["sid"][idx]
        wl = (sid // self._hstride).tolist()
        hl = (sid % self._hstride).tolist()
        wcost = batch["wcost"][idx].tolist()
        levels = batch["levels"][idx].tolist()
        transl = trans.tolist()
        dischl = disch.tolist()
        haspil = (acols[10][pa] | bcols[10][pb]).tolist()
        p_dis = batch["p_dis"]
        if p_dis is None:
            pdl = ptl = None
        else:
            pdl = p_dis[idx].tolist()
            p_tail = batch["p_tail"]
            ptl = pdl if p_tail is p_dis else p_tail[idx].tolist()
        par_b = batch["par_b"]
        parl = par_b[idx].tolist() if par_b is not None else None
        m = len(wl)
        if pdl is None:
            pdl = ptl = [0] * m
        nones = [None] * m
        # ``map(MapTuple, ...)`` drives the construction loop in C with
        # all-positional calls (structure=None slot included) — no
        # per-tuple bytecode, measurable at this call volume.
        lefts = list(map(view_a.__getitem__, pa.tolist()))
        rights = list(map(view_b.__getitem__, pb.tolist()))
        if is_or:
            trues = [True] * m
            return list(map(MapTuple, wl, hl, wcost, transl, dischl,
                            levels, pdl, trues, haspil, nones, ptl,
                            trues, ["par"] * m, lefts, rights))
        if parl is None:
            parl = [False] * m
        tib = batch["top_is_b"]
        if tib is not None:
            for j in np.flatnonzero(tib[idx]).tolist():
                lefts[j], rights[j] = rights[j], lefts[j]
        # ends_par (the second ``nones``) is derived in
        # MapTuple.__init__ from right.ends_par, exactly the bottom's.
        return list(map(MapTuple, wl, hl, wcost, transl, dischl,
                        levels, pdl, parl, haspil, nones, ptl, nones,
                        ["ser"] * m, lefts, rights))

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
    def _group(self, sid, n):
        """``(gorder, sid_g, starts, seg)`` for the batch's shape groups.

        ``gorder`` sorts candidates stably by shape id (arrival order
        within each group); ``starts`` bounds the groups; ``seg`` is the
        per-position group index in that layout.
        """
        gorder = np.argsort(sid, kind="stable")
        sid_g = sid[gorder]
        newgrp = np.empty(n, dtype=bool)
        newgrp[0] = True
        np.not_equal(sid_g[1:], sid_g[:-1], out=newgrp[1:])
        starts = np.flatnonzero(newgrp)
        seg = np.cumsum(newgrp)
        seg -= 1
        return gorder, sid_g, starts, seg

    def _reduce_single(self, table, batch, is_or, view_a, view_b):
        """Single-mode selection: one stable sort, first element per slot.

        Stable lexsort: primary shape, then (key, p_dis), ties in
        arrival order — the first element of each shape group is the
        first occurrence of the lexicographic minimum, exactly the
        incumbent the reference's strict-< replacement ends up with.
        """
        n = batch["n"]
        sid = batch["sid"]
        key = batch["key"]
        sid_s, pd_s = self._sort_cols(batch)
        # With int16 sort columns the key enters as its radix digits and
        # the whole lexsort runs on numpy's radix path; otherwise every
        # column sorts by comparison.
        cols = (_key_cols(key) if self._i16 else (key,)) + (sid_s,)
        if pd_s is not None:
            cols = (pd_s,) + cols
        order = np.lexsort(cols)
        sid_o = sid_s[order]
        newgrp = np.empty(n, dtype=bool)
        newgrp[0] = True
        np.not_equal(sid_o[1:], sid_o[:-1], out=newgrp[1:])
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
        # minimum of the arrival index).
        first_arrival = np.minimum.reduceat(order, starts)
        winners = order[starts][np.argsort(first_arrival, kind="stable")]
        slots = table.raw_slots()
        ws = sid[winners]
        wl = (ws // self._hstride).tolist()
        hl = (ws % self._hstride).tolist()
        kl = key[winners].tolist()
        mats = self._mat_many(batch, winners, is_or, view_a, view_b)
        for w_, h_, k_, m_ in zip(wl, hl, kl, mats):
            slots[(w_, h_)] = [(k_, m_)]
        return accepts, n - accepts

    def _pareto_prereject(self, gpack, GmA, GmT, sh_d, hi_bits, seg,
                          starts, G, n):
        """Sound dominated-candidate pre-reject (group-sorted layout).

        A candidate dominated by its group's *exclusive prefix*
        lexicographic-minimum candidate can never enter the front (see
        the module docstring for why some live front entry is always at
        least that strong).  Only sound while ``max_front >= 4``; the
        caller gates on that.

        ``gpack >> sh_d`` isolates the (key rank, p_dis) fields, so the
        prefix argmin of (key, p_dis) in arrival order falls out of a
        running minimum of one per-group-offset integer — new-minimum
        positions are strictly increasing, so a running *maximum* over
        them carries the argmin forward.  The dominance test itself
        runs on the full packs (the prefix minimum is only minimal
        among *earlier* candidates, so even its key can exceed the
        current candidate's).
        """
        pack2 = gpack >> sh_d
        off_u = np.int64(1) << hi_bits
        rr = pack2 + (G - seg) * off_u
        cm = np.minimum.accumulate(rr)
        newmin = np.empty(n, dtype=bool)
        newmin[0] = True
        np.less(rr[1:], cm[:-1], out=newmin[1:])
        am = np.maximum.accumulate(np.where(newmin, np.arange(n), -1))
        pm = np.empty(n, dtype=np.int64)
        pm[0] = 0
        pm[1:] = am[:-1]
        pre = (((gpack | GmA) - gpack[pm]) & GmT) == GmT
        # Group firsts have an empty prefix; everyone else's prefix
        # argmin is in-group (the group's first is a new minimum: the
        # per-group offsets strictly descend).
        pre[starts] = False
        return pre

    def _reduce_pareto(self, table, batch, is_or, view_a, view_b):
        n = batch["n"]
        key = batch["key"]
        p_dis = batch["p_dis"]
        p_tail = batch["p_tail"]
        par_b = batch["par_b"]
        sid_s, pd_s = self._sort_cols(batch)
        gorder, sid_g, starts, seg = self._group(sid_s, n)
        G = starts.size
        gk = key[gorder]
        gd = p_dis[gorder]
        gt = gd if p_tail is p_dis else p_tail[gorder]
        # OR combines have par_b uniformly True and p_tail aliasing
        # p_dis, so dominance and eviction reduce to (key, p_dis).
        gp = par_b[gorder] if par_b is not None else None
        full = gp is not None
        max_front = table.max_front
        # Dense per-group key ranks: dominance only ever compares keys
        # within one slot, so the within-group rank image preserves
        # every <= / == outcome while turning fractional keys into
        # exact small ints that fit a packed word.
        if self._i16:
            # Same radix digits as the single-mode sort: every column
            # <= 16 bits keeps np.lexsort on its radix path.
            ord2 = np.lexsort(_key_cols(gk) + (seg.astype(np.int16),))
        else:
            ord2 = np.lexsort((gk, seg))
        sk2 = gk[ord2]
        sg2 = seg[ord2]
        gchg = np.empty(n, dtype=bool)
        gchg[0] = True
        np.not_equal(sg2[1:], sg2[:-1], out=gchg[1:])
        newv = np.empty(n, dtype=bool)
        newv[0] = True
        np.not_equal(sk2[1:], sk2[:-1], out=newv[1:])
        np.logical_or(newv, gchg, out=newv)
        dense = np.cumsum(newv)
        base = dense[np.flatnonzero(gchg)]
        rank = np.empty(n, dtype=np.int64)
        rank[ord2] = dense - base[sg2]
        counts0 = np.empty(G, dtype=np.int64)
        counts0[:-1] = starts[1:] - starts[:-1]
        counts0[-1] = n - starts[-1]
        # Guarded bit-field pack (lsb->msb: par_b, p_tail, stamp,
        # p_dis, key rank; one zero guard bit above each field).  One
        # spare value per field so the all-fields-max dead-column
        # sentinel compares strictly above every live entry.
        BK = (int(rank.max()) + 1).bit_length()
        BD = (int(gd.max()) + 1).bit_length()
        BS = (int(counts0.max()) + max_front + 1).bit_length()
        if full:
            BT = (int(gt.max()) + 1).bit_length()
            sh_t = 3
            sh_s = sh_t + BT + 1
        else:
            sh_s = 0
        sh_d = sh_s + BS + 1
        sh_k = sh_d + BD + 1
        if sh_k + BK + 1 > 63:
            # Pathological field widths (p_dis beyond any feasible
            # structure): the exact scalar path costs nothing to take.
            return self._combine_seeded(table, batch, is_or,
                                        view_a, view_b)
        if full:
            gmA = ((1 << 2) | (1 << (sh_t + BT)) | (1 << (sh_s + BS))
                   | (1 << (sh_d + BD)) | (1 << (sh_k + BK)))
            gmT = ((1 << 2) | (1 << (sh_t + BT))
                   | (1 << (sh_d + BD)) | (1 << (sh_k + BK)))
            huge = (3 | (((1 << BT) - 1) << sh_t)
                    | (((1 << BS) - 1) << sh_s)
                    | (((1 << BD) - 1) << sh_d)
                    | (((1 << BK) - 1) << sh_k))
            gpack = ((rank << sh_k) | (gd << sh_d) | (gt << sh_t)
                     | gp.astype(np.int64))
        else:
            gmA = ((1 << (sh_s + BS)) | (1 << (sh_d + BD))
                   | (1 << (sh_k + BK)))
            gmT = (1 << (sh_d + BD)) | (1 << (sh_k + BK))
            huge = ((((1 << BS) - 1) << sh_s)
                    | (((1 << BD) - 1) << sh_d)
                    | (((1 << BK) - 1) << sh_k))
            gpack = (rank << sh_k) | (gd << sh_d)
        GmA = np.int64(gmA)
        GmT = np.int64(gmT)
        HUGE = np.int64(huge)
        SM = np.int64(((1 << BS) - 1) << sh_s)
        NSM = np.int64(~(((1 << BS) - 1) << sh_s))
        if max_front >= 4:
            pre = self._pareto_prereject(gpack, GmA, GmT, sh_d,
                                         BK + BD + 2, seg, starts, G, n)
            survl = np.flatnonzero(~pre)
        else:
            # The pre-reject's witness argument needs the sort-truncate
            # to keep the (<= 2) lex-minimum ties plus whatever entries
            # dominate them; a tighter cap can truncate the witness
            # itself, so the full recurrence must see every candidate.
            survl = np.arange(n)
        M = survl.size
        pruned = n - M
        accepts = 0
        # Survivor-domain packs (group-sorted layout restricted to the
        # pre-reject survivors) plus original-batch provenance.
        spack = gpack[survl]
        si = gorder[survl].astype(np.int32)
        # Per-group survivor ranges: every group keeps its first
        # candidate (an empty table never rejects), so counts >= 1.
        bnd = np.searchsorted(survl, starts)
        counts = np.empty(G, dtype=np.int64)
        counts[:-1] = bnd[1:] - bnd[:-1]
        counts[-1] = M - bnd[-1]
        # Rows = groups by descending survivor count (stable), so each
        # step's still-active rows are a prefix and every matrix op
        # below runs on a view of the state, never a copy.
        grank = np.argsort(-counts, kind="stable")
        rstart = bnd[grank]
        rcount = counts[grank]
        cmax = int(rcount[0])
        rows = np.arange(G)
        # Step-major layout: step r's candidates (the r-th survivor of
        # every still-active slot, rows ascending) are one contiguous
        # slice — the loop body reads views, never gathers.  Row i is
        # active at step r iff i < A_sched[r] (counts descend), so the
        # element's position is off[r] + i: an exact-integer scatter,
        # no sort.
        A_sched = np.searchsorted(-rcount, -np.arange(cmax),
                                  side="left")
        off = np.empty(cmax + 1, dtype=np.int64)
        off[0] = 0
        np.cumsum(A_sched, out=off[1:])
        rm_start = np.empty(G, dtype=np.int64)
        rm_start[0] = 0
        np.cumsum(rcount[:-1], out=rm_start[1:])
        i_rm = np.repeat(rows, rcount)
        r_rm = np.arange(M) - np.repeat(rm_start, rcount)
        step_perm = np.empty(M, dtype=np.int64)
        step_perm[off[r_rm] + i_rm] = (
            np.repeat(rstart - rm_start, rcount) + np.arange(M))
        pT = spack[step_perm]
        pgT = pT | GmA
        siT = si[step_perm]
        # Column capacity: one past the cap when truncation can fire,
        # else one past the deepest survivor run — either way a dead
        # column to append into always exists.  State is (F, rows) so
        # every per-row reduction runs over the *outer* axis (numpy's
        # contiguous-inner-loop fast path, ~5x cheaper than reducing a
        # length-F inner axis).
        F = min(max_front, cmax) + 1
        can_trunc = F == max_front + 1
        fullcap = F - max_front
        PF = np.full((F, G), HUGE, dtype=np.int64)
        FI = np.zeros((F, G), dtype=np.int32)
        nord = np.zeros(G, dtype=np.int64)
        # Preallocated workspaces: nothing in the loop body allocates
        # proportional to row count x front width.
        I1 = np.empty((F, G), dtype=np.int64)
        B1 = np.empty((F, G), dtype=bool)
        mx = np.empty(G, dtype=np.int64)
        am = np.empty(G, dtype=bool)
        ov = np.empty(G, dtype=bool)
        lcw = np.empty(G, dtype=np.intp)
        neword_s = (np.arange(max_front, dtype=np.int64) << sh_s)[:, None]
        GMA = int(GmA)
        GMT = int(GmT)
        NSMi = int(NSM)
        SMi = int(SM)
        shs = sh_s
        offl = off.tolist()
        Al = A_sched.tolist()
        r = 0
        while True:
            A = Al[r] if r < cmax else 0
            if A < self._PARETO_TAIL:
                break
            o0 = offl[r]
            o1 = offl[r + 1]
            pc = pT[o0:o1]
            pfA = PF[:, :A]
            i1 = I1[:, :A]
            mxA = mx[:A]
            amA = am[:A]
            # Accept test: some live entry componentwise at-least-as-
            # strong rejects the candidate (TupleTable.admits, rowwise).
            # Per packed field, front <= cand leaves the field's guard
            # standing in (cand | guards) - front; all dominance guards
            # at once == GmT, the integer maximum of masked values, so
            # the row reduction is a plain max.  Dead columns hold the
            # all-max sentinel and can never dominate.
            np.subtract(pgT[o0:o1][None, :], pfA, out=i1)
            np.bitwise_and(i1, GmT, out=i1)
            np.maximum.reduce(i1, axis=0, out=mxA)
            np.not_equal(mxA, GmT, out=amA)
            acc = amA.nonzero()[0]
            na = acc.size
            accepts += na
            pruned += A - na
            if na:
                # Evict what accepted candidates dominate: the same
                # guard trick with operands swapped.  Rejected rows
                # substitute the dead sentinel for their candidate —
                # the all-max word "dominates" only dead entries, so
                # no mask op is needed and ``b1`` lands on exactly the
                # dead-after-evict set (prior dead entries trivially
                # "evict" to the sentinel they already are).
                b1 = B1[:, :A]
                pcm = pc if na == A else np.where(amA, pc, HUGE)
                np.bitwise_or(pfA, GmA, out=i1)
                np.subtract(i1, pcm[None, :], out=i1)
                np.bitwise_and(i1, GmT, out=i1)
                np.equal(i1, GmT, out=b1)
                np.copyto(pfA, HUGE, where=b1)
                # Append into the first dead column with a fresh
                # insertion stamp packed into the word.
                col = b1.argmax(axis=0)[acc]
                no = nord[acc]
                PF[col, acc] = pc[acc] | (no << sh_s)
                FI[col, acc] = siT[o0:o1][acc]
                nord[acc] = no + 1
                if can_trunc:
                    # A row owes a truncation exactly when the append
                    # just filled its one remaining dead column.
                    np.add.reduce(b1, axis=0, out=lcw[:A])
                    np.equal(lcw[:A], fullcap, out=ov[:A])
                    np.logical_and(ov[:A], amA, out=ov[:A])
                    over = ov[:A].nonzero()[0]
                    nov = over.size
                    if nov:
                        # Sort-truncate: the reference's stable list
                        # sort by (key, p_dis) is an integer sort of
                        # the packed word — (key rank, p_dis, stamp)
                        # are its deciding fields (stamps are
                        # distinct), and the stamp tie-break realizes
                        # the stability.  Keep the strongest
                        # max_front, re-rank their stamps.  One or
                        # two full rows per step is the norm, where
                        # sorting 5 ints in Python beats a dozen tiny
                        # array dispatches.
                        if nov <= 3:
                            for j in over.tolist():
                                z = sorted(zip(PF[:, j].tolist(),
                                               FI[:, j].tolist()))
                                z[max_front] = (HUGE, 0)
                                PF[:, j] = [
                                    (w & NSMi) | (s << shs) if s < max_front
                                    else w for s, (w, _) in enumerate(z)]
                                FI[:, j] = [fi for _, fi in z]
                        else:
                            srt = np.argsort(PF[:, over] >> sh_s, axis=0)
                            PF[srt[-1], over] = HUGE
                            keep = srt[:-1]
                            ovc = over[None, :]
                            vals = PF[keep, ovc]
                            vals &= NSM
                            vals |= neword_s
                            PF[keep, ovc] = vals
                        nord[over] = max_front
            r += 1
        # Scalar tail: the (< _PARETO_TAIL) rows still holding
        # candidates finish on a replay of the same packed words —
        # Python ints run the identical guard-bit dominance test.
        # The tail keeps each front *sorted by the full packed word*
        # (= by (key rank, p_dis, stamp); stamps are distinct, so the
        # low fields never decide): truncation drops the sorted-max in
        # O(1), and because stamps stay monotone, survivor stamp order
        # after a drop equals the reference's re-ranked order — both
        # the future exact-tie breaks and the final accept-order
        # output (one tiny per-row sort at the end) come out
        # identical.  With a small batch (or a small max_front, where
        # the pre-reject is off) this is the whole reduction.
        KLOW = (1 << sh_k) - 1
        out_i = [None] * G
        for i in range(A):
            fcol = PF[:, i]
            live = np.nonzero(fcol != HUGE)[0]
            fp = fcol[live]
            if live.size > 1:
                o2 = np.argsort(fp)
                fp = fp[o2]
                live = live[o2]
            fpl = fp.tolist()
            fil = FI[live, i].tolist()
            nxt = int(nord[i])
            lt = 0
            # Row i's remaining candidates sit at off[r..count-1] + i
            # in the step-major layout.
            idx = off[r:int(rcount[i])] + i
            cl = pT[idx].tolist()
            bl = siT[idx].tolist()
            for c, b_ in zip(cl, bl):
                # The front is key-sorted, so only the prefix at or
                # below the candidate's key rank can dominate it (a
                # dominator needs key <= cand's) — bound the scan by
                # the candidate with its sub-key bits saturated.
                ckh = c | KLOW
                cg = c | GMA
                ok = True
                for f in fpl:
                    if f > ckh:
                        break
                    if (cg - f) & GMT == GMT:
                        ok = False
                        break
                if not ok:
                    pruned += 1
                    continue
                accepts += 1
                w = 0
                for j, f in enumerate(fpl):
                    if ((f | GMA) - c) & GMT != GMT:
                        if w != j:
                            fpl[w] = f
                            fil[w] = fil[j]
                        w += 1
                if w != len(fpl):
                    del fpl[w:]
                    del fil[w:]
                cw = c | (nxt << shs)
                p_ = bisect_right(fpl, cw)
                fpl.insert(p_, cw)
                fil.insert(p_, b_)
                nxt += 1
                if len(fpl) > max_front:
                    fpl.pop()
                    fil.pop()
                    lt = nxt
            if len(fil) > 1:
                # Reference slot order: sorted at the last truncation
                # (list position, since the list is kept sorted), then
                # accept order (stamps) for everything newer.
                lts = lt << shs
                sk = [(1, s) if s >= lts else (0, j)
                      for j, s in enumerate(f & SMi for f in fpl)]
                fil = [b for _, b in sorted(zip(sk, fil))]
            out_i[i] = fil
        if A < G:
            # Rows the loop finished: gather live entries in stamp
            # order, split per row.
            mask = PF != HUGE
            if A:
                mask[:, :A] = False
            fr_, rw = np.nonzero(mask)
            srt = np.lexsort((PF[fr_, rw] & SM, rw))
            iflat = FI[fr_, rw][srt].tolist()
            cnts = np.bincount(rw, minlength=G).tolist()
            pos = 0
            for i in range(A, G):
                c = cnts[i]
                out_i[i] = iflat[pos:pos + c]
                pos += c
        # Assemble slots in each shape's first-arrival order (the
        # reference's create-on-first-arrival dict order), one batched
        # materialization for all winners; stored keys gather from the
        # generation column, so they stay the exact doubles the
        # reference would have cached.
        shapel = sid_g[starts].tolist()
        slot_rank = np.argsort(gorder[starts], kind="stable").tolist()
        rowof = np.empty(G, dtype=np.int64)
        rowof[grank] = rows
        rowofl = rowof.tolist()
        pend = []
        flat = []
        for p in slot_rank:
            i = rowofl[p]
            pend.append((shapel[p], len(out_i[i])))
            flat.extend(out_i[i])
        if flat:
            fa = np.asarray(flat, dtype=np.int64)
            keys = key[fa].tolist()
            mats = self._mat_many(batch, fa, is_or, view_a, view_b)
        else:
            keys = []
            mats = []
        hstride = self._hstride
        pos = 0
        for s_, cnum in pend:
            end = pos + cnum
            table.install_front((s_ // hstride, s_ % hstride),
                                zip(keys[pos:end], mats[pos:end]))
            pos = end
        return accepts, pruned

    def _combine_seeded(self, table, batch, is_or, view_a, view_b):
        """Exact slow path for a table that already holds tuples.

        The engine always combines into a fresh table, but the kernel
        contract doesn't require it; replaying through ``admits`` /
        ``insert`` keeps decisions and stats literal for any caller.
        """
        n = batch["n"]
        sid = batch["sid"].tolist()
        key = batch["key"].tolist()
        if batch["p_dis"] is None:
            gd = gt = [0] * n
            gp = [is_or] * n
        else:
            gd = batch["p_dis"].tolist()
            gt = batch["p_tail"].tolist()
            gp = ([True] * n if batch["par_b"] is None
                  else batch["par_b"].tolist())
        hstride = self._hstride
        accepts = 0
        pruned = 0
        for c in range(n):
            s_ = sid[c]
            shape = (s_ // hstride, s_ % hstride)
            if table.admits(shape, key[c], gd[c], gt[c], gp[c]):
                table.insert(self._mat(batch, c, is_or, view_a, view_b),
                             key=key[c])
                accepts += 1
            else:
                pruned += 1
        return accepts, pruned
