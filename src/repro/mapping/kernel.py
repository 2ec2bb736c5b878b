"""DP kernels: the fixed kernel set and the reference kernel.

The combine/dominance inner loop of the mapping DP runs in one of three
kernels, named by :attr:`MapperConfig.kernel`; :data:`KERNELS` maps
each name to its factory and is the one list every config, CLI and
service check validates against:

* ``"reference"`` — the scalar Python kernel (this module), a literal
  transcription of :meth:`TupleTable.insert` that prices and
  bound-checks each candidate before allocating it.  It is the oracle:
  every other kernel must reproduce its tables bit-for-bit.
* ``"soa"`` — the structure-of-arrays numpy kernel
  (:mod:`repro.mapping.soa`): candidate generation and dominance
  filtering as broadcasted column arithmetic over a whole batch of
  nodes, bit-identical to the reference by construction (see DESIGN.md
  §12).
* ``"auto"`` (the default) — a hybrid that routes each batch to the soa
  kernel when numpy is importable and the batch's candidate pairs
  reach :data:`AUTO_THRESHOLD`, and to the reference kernel otherwise.
  Sound because both kernels produce identical tables *and* identical
  stats counters; the routed node tally lands in
  ``stats.auto_routed_soa`` / ``stats.auto_routed_reference`` and the
  report kernel block.

The kernel contract: a kernel fills *empty* tables (the engine builds
every table fresh) with exactly the reference's slots — slot insertion
order included, since gate formation takes the first minimum in
slot order — and reproduces
its ``tuples_created``/``tuples_pruned`` counters, so runs mixing
kernels stay bit-identical.  Operand views are ranges of rows in the
tables' :class:`~repro.mapping.tuples.Arena`; a kernel fills a table by
writing its rows there, in slot order, followed by one row reserved for
the node's formed-gate leaf, and setting the table's ``start``/``stop``
(DESIGN.md §17).  The dual-kernel digest sweep and the fuzzed
slot-for-slot harness in ``tests/mapping`` are the parity witnesses.

A kernel is bound to one :class:`~repro.mapping.engine.MappingEngine`
run via :meth:`KernelProtocol.build`.  The engine walks the network one
topological level at a time: every AND/OR node of a level depends only
on lower levels, so the level's nodes reach the kernel
together, cut into chunks under a fixed candidate budget, through
:meth:`KernelProtocol.combine_many`.  :meth:`KernelProtocol.finalize`
runs once after the DP.
"""

from __future__ import annotations

import math
from typing import (List, NamedTuple, Protocol, Sequence, Tuple,
                    runtime_checkable)

try:  # numpy is an optional dependency: the soa kernel needs it,
    import numpy as np  # everything else runs without it.
except ImportError:  # pragma: no cover - exercised via monkeypatch
    np = None

from ..errors import MappingError
from ..pipeline.metrics import MappingStats
from .cost import CostModel
from .tuples import KEY, OP_LEAF, OP_PAR, OP_SER, Row, TupleTable

#: Minimum candidate pairs (``len(view_a) * len(view_b)`` summed over a
#: batch's nodes) for the auto kernel to route a batch to the soa
#: kernel; smaller batches stay on the reference kernel, whose per-pair
#: cost beats the fixed numpy dispatch overhead (DESIGN.md §12).
AUTO_THRESHOLD = 64

#: One node of a kernel batch: ``(table, is_or, view_a, view_b)``, the
#: views being ranges of arena row ids in the table's arena.
BatchItem = Tuple[TupleTable, bool, range, range]


def key_vectorizable(model: CostModel) -> bool:
    """True when ``model.tuple_key_metrics`` prices numpy columns
    elementwise.

    Probes the key with small arrays and checks the result is a float64
    column that agrees with the scalar spelling: the condition under
    which the soa kernel's vectorized keys, and gate formation's column
    reduction, are bit-identical to the scalar keys of the reference
    kernel.  Both shipped key forms (plain ``wcost`` and
    ``level_weight * levels + wcost``) pass; a subclass using non-ufunc
    arithmetic fails closed, and so does every model without numpy.
    """
    if np is None:
        return False
    fn = model.tuple_key_metrics
    wcost = np.array([0.0, 1.5], dtype=np.float64)
    levels = np.array([0, 3], dtype=np.int64)
    try:
        out = fn(wcost, levels)
        if not (isinstance(out, np.ndarray) and out.shape == (2,)
                and out.dtype == np.float64):
            return False
        return (float(out[0]) == float(fn(0.0, 0))
                and float(out[1]) == float(fn(1.5, 3)))
    except Exception:
        return False


@runtime_checkable
class KernelProtocol(Protocol):
    """What the mapping engine requires of a DP kernel."""

    #: the configured spelling this kernel implements
    name: str
    #: what actually runs ("reference", "soa", or "hybrid")
    active: str

    def build(self, engine) -> None:
        """Bind per-run state (config, cost model, stats) from ``engine``.

        A kernel binds the values it needs and must not retain the
        engine itself: the engine holds its kernel, so a back-reference
        recreates a reference cycle and every finished mapping task
        would wait for the cyclic garbage collector instead of being
        freed by reference counting (DESIGN.md §15).
        """

    def combine_many(self, items: Sequence[BatchItem]) -> List[int]:
        """Fill every item's empty table; return each item's candidates.

        ``items`` are independent nodes (one topological level, or a
        chunk of one).  Every table must end up exactly as the reference
        kernel fills it, with the same aggregate counters.  The returned
        list holds each item's contribution to ``tuples_created``, in
        item order (the engine's per-node histogram samples it).
        """

    def finalize(self) -> None:
        """Flush any buffered per-run state (called once after the DP)."""


class _Cand(NamedTuple):
    """A candidate the reference kernel keeps: the arena's tuple
    columns (:data:`~repro.mapping.tuples.COLUMNS` order), then its
    provenance — the op and the top/left and bottom/right rows."""

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
    op: int
    left: int
    right: int


#: The placeholder contents of a table's reserved gate row.
_GATE_ROW = ((0,) * KEY, math.nan, (OP_LEAF, -1, -1))


class ReferenceKernel:
    """The scalar oracle kernel.

    ``_combine_node`` is deliberately written flat: configuration, cost
    prices, and the node's slot map are bound to locals once per node,
    the fanin view is pre-filtered per ``{W,H}`` budget so the inner
    loop touches only feasible pairs, and a candidate's scalar metrics
    are priced and bound-checked against the slot incumbent *before*
    anything is allocated.  Operands are arena rows read as Python
    values (:meth:`Arena.rows`); a survivor is a row-to-be carrying
    provenance row ids, and every table of the batch is written to the
    arena at the end, in one write.

    Bit-identity with the eager seed kernel is load-bearing and rests
    on three invariants: (1) feasible pairs are visited in exactly the
    original view order (the pre-filtered lists preserve relative
    order), (2) the keep/evict decisions are literal transcriptions of
    :meth:`TupleTable.insert`, and (3) a slot list is only created when
    its first candidate arrives, so slot insertion order — where gate
    formation takes its first minimum — is unchanged.
    """

    name = "reference"
    active = "reference"

    def build(self, engine) -> None:
        self._config = engine.config
        self._metric = engine.model.tuple_key_metrics
        self._discharge = engine.model.discharge_cost()
        self._stats = engine.stats

    def finalize(self) -> None:
        pass

    def combine_many(self, items: Sequence[BatchItem]) -> List[int]:
        if not items:
            return []
        arena = items[0][0].arena
        read = {}

        def rows(view):
            got = read.get((view.start, view.stop))
            if got is None:
                got = read[(view.start, view.stop)] = arena.rows(view)
            return got

        created = []
        fills = []
        for table, is_or, view_a, view_b in items:
            slots = {}
            created.append(self._combine_node(table, is_or, rows(view_a),
                                              rows(view_b), slots))
            fills.append((table, [e for slot in slots.values()
                                  for e in slot]))
        # One write for the batch: each table's rows in slot order, then
        # the row reserved for its gate.
        base = arena.reserve(sum(len(entries) + 1 for _, entries in fills))
        fields, keys, prov = [], [], []
        row = base
        for table, entries in fills:
            table.start = row
            table.stop = row = row + len(entries)
            row += 1
            for key, cand in entries:
                fields.append(cand[:KEY])
                keys.append(key)
                prov.append(cand[KEY:])
            fields.append(_GATE_ROW[0])
            keys.append(_GATE_ROW[1])
            prov.append(_GATE_ROW[2])
        arena.write_rows(base, fields, keys, prov)
        return created

    def _combine_node(self, table: TupleTable, is_or: bool,
                      view_a: List[Row], view_b: List[Row],
                      slots: dict) -> int:
        config = self._config
        w_max = config.w_max
        h_max = config.h_max
        pbe = config.pbe_aware
        pareto = config.pareto
        ordering = config.ordering
        adverse = ordering == "adverse" or (not pbe and ordering != "naive")
        naive = not adverse and (not pbe or ordering == "naive")
        exhaustive = not adverse and not naive and ordering == "exhaustive"
        metric = self._metric
        discharge = self._discharge
        slots_get = slots.get
        max_front = table.max_front
        created = 0
        pruned = 0
        if is_or:
            # Parallel composition: W adds, so b must fit the remaining
            # width budget (heights are both within h_max already).
            by_budget = [[b for b in view_b if b.width <= budget]
                         for budget in range(w_max)]
            for a in view_a:
                budget = w_max - a.width
                if budget < 1:
                    continue
                a_w = a.width
                a_h = a.height
                a_wc = a.wcost
                a_tr = a.trans
                a_di = a.disch
                a_lv = a.levels
                a_pd = a.p_dis
                a_hp = a.has_pi
                a_id = a.id
                for b in by_budget[budget]:
                    created += 1
                    width = a_w + b.width
                    b_h = b.height
                    height = b_h if b_h > a_h else a_h
                    wcost = a_wc + b.wcost
                    b_lv = b.levels
                    levels = b_lv if b_lv > a_lv else a_lv
                    # Inside a parallel stack every potential point rides
                    # on the stack's shared bottom node: all of them are
                    # "tail" points (p_tail == p_dis, par_b True).
                    p_dis = (a_pd + b.p_dis) if pbe else 0
                    key = metric(wcost, levels)
                    slot = slots_get((width, height))
                    if slot is None:
                        slots[(width, height)] = [(key, _Cand(
                            width, height, wcost, levels, p_dis, p_dis,
                            True, True, a_tr + b.trans, a_di + b.disch,
                            a_hp or b.has_pi, OP_PAR, a_id, b.id))]
                        continue
                    if not pareto:
                        inc_key, inc = slot[0]
                        if key < inc_key or (key == inc_key
                                             and p_dis < inc.p_dis):
                            slot[0] = (key, _Cand(
                                width, height, wcost, levels, p_dis, p_dis,
                                True, True, a_tr + b.trans, a_di + b.disch,
                                a_hp or b.has_pi, OP_PAR, a_id, b.id))
                        else:
                            pruned += 1
                        continue
                    # Pareto front; the candidate has par_b True and
                    # p_tail == p_dis, which simplifies both dominance
                    # directions of TupleTable.insert.
                    dominated = False
                    for kept_key, kept in slot:
                        if (kept_key <= key and kept.p_dis <= p_dis
                                and kept.p_tail <= p_dis):
                            dominated = True
                            break
                    if dominated:
                        pruned += 1
                        continue
                    slot[:] = [e for e in slot
                               if not (key <= e[0] and p_dis <= e[1].p_dis
                                       and p_dis <= e[1].p_tail
                                       and e[1].par_b)]
                    slot.append((key, _Cand(
                        width, height, wcost, levels, p_dis, p_dis, True,
                        True, a_tr + b.trans, a_di + b.disch,
                        a_hp or b.has_pi, OP_PAR, a_id, b.id)))
                    if len(slot) > max_front:
                        slot.sort(key=lambda e: (e[0], e[1].p_dis))
                        del slot[max_front:]
        else:
            # Series composition: H adds, so b must fit the remaining
            # height budget (widths are both within w_max already).
            by_budget = [[b for b in view_b if b.height <= budget]
                         for budget in range(h_max)]
            for a in view_a:
                budget = h_max - a.height
                if budget < 1:
                    continue
                for b in by_budget[budget]:
                    # Stacking order: the configured ordering rule picks
                    # which operand(s) go on top.
                    if adverse:
                        # Bulk-CMOS habit (Figure 2(a)): the parallel
                        # stack rises toward the dynamic node.
                        if b.ends_par and not a.ends_par:
                            orders = ((b, a),)
                        else:
                            orders = ((a, b),)
                    elif naive:
                        orders = ((a, b),)
                    elif exhaustive:
                        orders = ((a, b), (b, a))
                    # The paper's rule: a parallel-stack-bearing operand
                    # sinks to the bottom (its discharge points may be
                    # protected by ground); with both or neither, the
                    # operand with more potential discharge points sinks.
                    elif a.par_b != b.par_b:
                        orders = ((b, a),) if a.par_b else ((a, b),)
                    elif a.p_dis >= b.p_dis:
                        orders = ((b, a),)
                    else:
                        orders = ((a, b),)
                    for top, bottom in orders:
                        created += 1
                        t_w = top.width
                        b_w = bottom.width
                        width = t_w if t_w > b_w else b_w
                        height = top.height + bottom.height
                        if pbe:
                            if top.par_b:
                                # The new junction is the never-grounded
                                # bottom node of the top's trailing
                                # parallel stack: discharge it and the
                                # stack's internal (tail) points now.
                                # The top's spine junctions keep their
                                # own classification.
                                committed = top.p_tail + 1
                                p_dis = ((top.p_dis - top.p_tail)
                                         + bottom.p_dis)
                            else:
                                # Series-ending top: the junction joins
                                # the combined spine as a new potential
                                # point; nothing commits.
                                committed = 0
                                p_dis = top.p_dis + 1 + bottom.p_dis
                            p_tail = bottom.p_tail
                            par_b = bottom.par_b
                        else:
                            committed = 0
                            p_dis = 0
                            p_tail = 0
                            par_b = False
                        wcost = (top.wcost + bottom.wcost
                                 + committed * discharge)
                        t_lv = top.levels
                        b_lv = bottom.levels
                        levels = t_lv if t_lv > b_lv else b_lv
                        key = metric(wcost, levels)
                        slot = slots_get((width, height))
                        if slot is None:
                            slots[(width, height)] = [(key, _Cand(
                                width, height, wcost, levels, p_dis,
                                p_tail, par_b, bottom.ends_par,
                                top.trans + bottom.trans + committed,
                                top.disch + bottom.disch + committed,
                                top.has_pi or bottom.has_pi, OP_SER,
                                top.id, bottom.id))]
                            continue
                        if not pareto:
                            inc_key, inc = slot[0]
                            if key < inc_key or (key == inc_key
                                                 and p_dis < inc.p_dis):
                                slot[0] = (key, _Cand(
                                    width, height, wcost, levels, p_dis,
                                    p_tail, par_b, bottom.ends_par,
                                    top.trans + bottom.trans + committed,
                                    top.disch + bottom.disch + committed,
                                    top.has_pi or bottom.has_pi, OP_SER,
                                    top.id, bottom.id))
                            else:
                                pruned += 1
                            continue
                        dominated = False
                        for kept_key, kept in slot:
                            if (kept_key <= key and kept.p_dis <= p_dis
                                    and kept.p_tail <= p_tail
                                    and (not kept.par_b or par_b)):
                                dominated = True
                                break
                        if dominated:
                            pruned += 1
                            continue
                        slot[:] = [e for e in slot
                                   if not (key <= e[0]
                                           and p_dis <= e[1].p_dis
                                           and p_tail <= e[1].p_tail
                                           and (not par_b or e[1].par_b))]
                        slot.append((key, _Cand(
                            width, height, wcost, levels, p_dis, p_tail,
                            par_b, bottom.ends_par,
                            top.trans + bottom.trans + committed,
                            top.disch + bottom.disch + committed,
                            top.has_pi or bottom.has_pi, OP_SER, top.id,
                            bottom.id)))
                        if len(slot) > max_front:
                            slot.sort(key=lambda e: (e[0], e[1].p_dis))
                            del slot[max_front:]
        stats = self._stats
        stats.tuples_created += created
        stats.tuples_pruned += pruned
        return created


class AutoKernel:
    """Hybrid dispatch: soa for large batches, reference for small ones.

    Sound as a per-batch choice because both kernels produce identical
    tables and identical stats counters — the routing decision is pure
    execution strategy.  A batch goes to the soa kernel when its
    candidate pairs, summed over its nodes, reach
    :data:`AUTO_THRESHOLD`; the nodes of every batch are tallied into
    ``stats.auto_routed_soa`` / ``stats.auto_routed_reference`` so
    reports can show how a hybrid run actually split its work.
    """

    name = "auto"
    active = "hybrid"

    def __init__(self, reference, soa):
        self._reference = reference
        self._soa = soa
        # Replaced by the engine's stats on build(); a throwaway default
        # keeps an unbuilt hybrid (unit tests, ad-hoc harnesses) usable.
        self._stats = MappingStats()

    def build(self, engine) -> None:
        self._stats = engine.stats
        self._reference.build(engine)
        self._soa.build(engine)

    def combine_many(self, items) -> List[int]:
        pairs = sum(len(a) * len(b) for _, _, a, b in items)
        if pairs >= AUTO_THRESHOLD:
            self._stats.auto_routed_soa += len(items)
            return self._soa.combine_many(items)
        self._stats.auto_routed_reference += len(items)
        return self._reference.combine_many(items)

    def finalize(self) -> None:
        self._reference.finalize()
        self._soa.finalize()


def _soa_factory(engine):
    """``kernel="soa"``: numpy is a hard requirement, the model soft.

    An explicit soa request without numpy must not be silently ignored;
    a non-vectorizable cost model degrades to the reference kernel with
    ``stats.kernel_fallbacks`` incremented (the tables are bit-identical
    either way, so the fallback is observable only in the counter).
    """
    if np is None:
        raise MappingError(
            "kernel='soa' requires numpy, which is not importable; "
            "install numpy or pick another kernel "
            f"({', '.join(KERNELS)})")
    if not engine._key_columns:
        # The model's key is not elementwise-exact on arrays: the soa
        # kernel cannot match the oracle, so the run degrades to the
        # reference kernel.
        engine.stats.kernel_fallbacks += 1
        return ReferenceKernel()
    from .soa import SoAKernel

    return SoAKernel()


def _auto_factory(engine):
    """``kernel="auto"``: the hybrid when numpy and the model allow."""
    if np is None:
        return ReferenceKernel()
    if not engine._key_columns:
        engine.stats.kernel_fallbacks += 1
        return ReferenceKernel()
    from .soa import SoAKernel

    return AutoKernel(ReferenceKernel(), SoAKernel())


#: The kernel names ``MapperConfig.kernel``, the CLI and the service
#: accept, each with the factory that turns a bound-to-be
#: :class:`~repro.mapping.engine.MappingEngine` into an unbuilt kernel.
KERNELS = {
    "reference": lambda engine: ReferenceKernel(),
    "soa": _soa_factory,
    "auto": _auto_factory,
}


def resolve_kernel(engine):
    """The kernel instance a configured engine runs, already built.

    ``MapperConfig`` validates ``kernel`` against :data:`KERNELS`
    eagerly, so the lookup here cannot miss.
    """
    kernel = KERNELS[engine.config.kernel](engine)
    kernel.build(engine)
    return kernel
