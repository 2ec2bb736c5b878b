"""DP kernel selection: the kernel registry and the reference kernel.

The combine/dominance inner loop of the mapping DP is pluggable: a
*kernel registry* maps the spellings :attr:`MapperConfig.kernel`
accepts to factories producing :class:`KernelProtocol` implementations.
Three kernels ship built in:

* ``"reference"`` — the scalar Python kernel (this module), a literal
  transcription of :meth:`TupleTable.insert` with the lazy-structure and
  incumbent-bound optimizations of PR 2.  It is the oracle: every other
  kernel must reproduce its tables bit-for-bit.
* ``"soa"`` — the structure-of-arrays numpy kernel
  (:mod:`repro.mapping.soa`): candidate generation and dominance
  filtering as broadcasted column arithmetic, bit-identical to the
  reference by construction (see DESIGN.md §12).
* ``"auto"`` — a hybrid that routes each combine call to the soa kernel
  when numpy is importable and the operand views are large enough
  (``MapperConfig.auto_threshold``) to amortize the array overhead, and
  to the reference kernel otherwise.  Sound because both kernels
  produce identical tables *and* identical stats counters; the per-call
  routing tally lands in ``stats.auto_routed_soa`` /
  ``stats.auto_routed_reference`` and the report kernel block.

Third-party kernels plug in via :func:`register_kernel` and are
selected with ``MapperConfig(kernel="<name>")`` like the built-ins.
They inherit the same parity obligations: identical tables (slot
insertion order included — the tree cache serializes it) and identical
``tuples_created``/``tuples_pruned``/``bound_skips`` counters, so runs
mixing kernels stay bit-identical.  The dual-kernel digest sweep and
the fuzzed slot-for-slot harness in ``tests/mapping`` are the reusable
parity witnesses.

A kernel is bound to one :class:`~repro.mapping.engine.MappingEngine`
run via :meth:`KernelProtocol.build` and then receives every per-node
:meth:`KernelProtocol.combine` call.  :meth:`KernelProtocol.finalize`
runs once after the DP; :meth:`KernelProtocol.stats` exposes per-kernel
diagnostics for reports.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Protocol, runtime_checkable

try:  # numpy is an optional dependency: the soa kernel needs it,
    import numpy as np  # everything else runs without it.
except ImportError:  # pragma: no cover - exercised via monkeypatch
    np = None

from ..errors import MappingError
from ..pipeline.metrics import MappingStats
from .cost import CostModel
from .tuples import MapTuple, TupleTable

#: The built-in kernel spellings (CLI choices; the registry may hold
#: more — ``available_kernels()`` is the authoritative list).
KERNELS = ("reference", "soa", "auto")

#: Default for ``MapperConfig.auto_threshold``: minimum
#: ``len(view_a) * len(view_b)`` for the auto kernel to route a combine
#: call to the soa kernel; smaller batches stay on the reference
#: kernel, whose per-pair cost beats the fixed numpy dispatch overhead.
AUTO_THRESHOLD = 64

#: name -> factory.  A factory is called with the bound-to-be
#: :class:`~repro.mapping.engine.MappingEngine` and returns an
#: *unbuilt* kernel instance; ``resolve_kernel`` calls ``build`` on it.
_REGISTRY: Dict[str, Callable] = {}


def register_kernel(name: str, factory: Callable, *,
                    replace: bool = False) -> None:
    """Register a DP kernel factory under ``name``.

    ``factory(engine)`` must return an object satisfying
    :class:`KernelProtocol`; it receives the engine *before* ``build``
    so it can inspect ``engine.config`` / ``engine.model`` and choose
    what to instantiate (the built-in ``"soa"`` factory, for example,
    degrades to the reference kernel for non-vectorizable cost models).
    The returned kernel carries the full parity obligations spelled out
    in the module docstring — bit-identical tables and work counters.

    Registered names become valid ``MapperConfig(kernel=...)`` values
    immediately.  Re-registering an existing name raises
    :class:`~repro.errors.MappingError` unless ``replace=True`` — the
    guard that keeps a plugin from silently shadowing a built-in.
    """
    if not isinstance(name, str) or not name:
        raise MappingError("kernel name must be a non-empty string, "
                           f"got {name!r}")
    if not callable(factory):
        raise MappingError(f"kernel factory for {name!r} must be callable, "
                           f"got {factory!r}")
    if name in _REGISTRY and not replace:
        raise MappingError(
            f"kernel {name!r} is already registered; pass replace=True "
            "to override it")
    _REGISTRY[name] = factory


def unregister_kernel(name: str) -> None:
    """Remove a registered kernel (built-ins refuse to unregister)."""
    if name in KERNELS:
        raise MappingError(f"cannot unregister built-in kernel {name!r}")
    if name not in _REGISTRY:
        raise MappingError(f"kernel {name!r} is not registered")
    del _REGISTRY[name]


def available_kernels() -> tuple:
    """Registered kernel names, built-ins first, in registration order.

    This is the list ``MapperConfig`` validates ``kernel=`` against and
    the list error messages cite.
    """
    return tuple(_REGISTRY)


def metric_fast_path(model: CostModel):
    """``model.tuple_key_metrics`` when the scalar fast path is sound.

    The fast path prices candidates from raw ``(wcost, levels)`` metrics
    without allocating a tuple.  It is only trusted when ``tuple_key``
    is the base-class delegation to ``tuple_key_metrics``; a model
    overriding ``tuple_key`` directly gets ``None`` (and the reference
    kernel's allocate-then-insert path).
    """
    return (model.tuple_key_metrics
            if type(model).tuple_key is CostModel.tuple_key else None)


def metric_vectorizable(model: CostModel) -> bool:
    """True when ``tuple_key_metrics`` prices numpy columns elementwise.

    Probes the metric with small arrays and checks the result is a
    float64 column that agrees with the scalar spelling — the condition
    under which the soa kernel's vectorized keys are bit-identical to
    the reference kernel's scalar keys.  Both shipped key forms (plain
    ``wcost`` and ``level_weight * levels + wcost``) pass; a subclass
    using non-ufunc arithmetic fails closed.
    """
    metric = metric_fast_path(model)
    if metric is None or np is None:
        return False
    wcost = np.array([0.0, 1.5], dtype=np.float64)
    levels = np.array([0, 3], dtype=np.int64)
    try:
        out = metric(wcost, levels)
    except Exception:
        return False
    if not (isinstance(out, np.ndarray) and out.shape == (2,)
            and out.dtype == np.float64):
        return False
    return (float(out[0]) == float(metric(0.0, 0))
            and float(out[1]) == float(metric(1.5, 3)))


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

    def combine(self, table: TupleTable, is_or: bool,
                view_a: List[MapTuple], view_b: List[MapTuple]) -> None:
        """Fill ``table`` with the surviving combinations of the views."""

    def finalize(self) -> None:
        """Flush any buffered per-run state (called once after the DP)."""

    def stats(self) -> dict:
        """Per-kernel diagnostics for reports (JSON-ready)."""


class ReferenceKernel:
    """The scalar oracle kernel.

    ``combine`` is deliberately written flat: configuration, cost
    prices, and the table's slot map are bound to locals once per node,
    the fanin view is pre-filtered per ``{W,H}`` budget so the inner
    loop touches only feasible pairs, and a candidate's scalar metrics
    are priced and bound-checked against the slot incumbent *before*
    any MapTuple is allocated.  Survivors are allocated lazily: a
    provenance back-pointer (op/left/right) instead of a built
    structure tree.

    Bit-identity with the eager seed kernel is load-bearing and rests
    on three invariants: (1) feasible pairs are visited in exactly the
    original view order (the pre-filtered lists preserve relative
    order), (2) the keep/evict decisions are literal transcriptions of
    :meth:`TupleTable.insert`, and (3) a slot list is only created when
    its first candidate arrives, so slot insertion order — which the
    tree cache serializes — is unchanged.
    """

    name = "reference"
    active = "reference"

    def build(self, engine) -> None:
        self._config = engine.config
        self._metric = engine._metric_key
        self._discharge = engine.model.discharge_cost()
        self._stats = engine.stats

    def finalize(self) -> None:
        pass

    def stats(self) -> dict:
        return {"active": self.active}

    def combine(self, table: TupleTable, is_or: bool,
                view_a: List[MapTuple], view_b: List[MapTuple]) -> None:
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
        key_fn = table.key_fn
        discharge = self._discharge
        slots = table.raw_slots()
        slots_get = slots.get
        max_front = table.max_front
        created = 0
        pruned = 0
        skips = 0
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
                    if metric is not None:
                        key = metric(wcost, levels)
                        cand = None
                    else:
                        cand = MapTuple(width, height, wcost, a_tr + b.trans,
                                        a_di + b.disch, levels, p_dis, True,
                                        a_hp or b.has_pi, p_tail=p_dis,
                                        ends_par=True, op="par",
                                        left=a, right=b)
                        key = key_fn(cand)
                    slot = slots_get((width, height))
                    if slot is None:
                        if cand is None:
                            cand = MapTuple(width, height, wcost,
                                            a_tr + b.trans, a_di + b.disch,
                                            levels, p_dis, True,
                                            a_hp or b.has_pi, p_tail=p_dis,
                                            ends_par=True, op="par",
                                            left=a, right=b)
                        slots[(width, height)] = [(key, cand)]
                        continue
                    if not pareto:
                        inc_key, inc = slot[0]
                        if key < inc_key or (key == inc_key
                                             and p_dis < inc.p_dis):
                            if cand is None:
                                cand = MapTuple(width, height, wcost,
                                                a_tr + b.trans,
                                                a_di + b.disch,
                                                levels, p_dis, True,
                                                a_hp or b.has_pi,
                                                p_tail=p_dis, ends_par=True,
                                                op="par", left=a, right=b)
                            slot[0] = (key, cand)
                        else:
                            pruned += 1
                            if cand is None:
                                skips += 1
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
                        if cand is None:
                            skips += 1
                        continue
                    if cand is None:
                        cand = MapTuple(width, height, wcost, a_tr + b.trans,
                                        a_di + b.disch, levels, p_dis, True,
                                        a_hp or b.has_pi, p_tail=p_dis,
                                        ends_par=True, op="par",
                                        left=a, right=b)
                    slot[:] = [e for e in slot
                               if not (key <= e[0] and p_dis <= e[1].p_dis
                                       and p_dis <= e[1].p_tail
                                       and e[1].par_b)]
                    slot.append((key, cand))
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
                        if metric is not None:
                            key = metric(wcost, levels)
                            cand = None
                        else:
                            cand = MapTuple(width, height, wcost,
                                            top.trans + bottom.trans
                                            + committed,
                                            top.disch + bottom.disch
                                            + committed,
                                            levels, p_dis, par_b,
                                            top.has_pi or bottom.has_pi,
                                            p_tail=p_tail,
                                            ends_par=bottom.ends_par,
                                            op="ser", left=top, right=bottom)
                            key = key_fn(cand)
                        slot = slots_get((width, height))
                        if slot is None:
                            if cand is None:
                                cand = MapTuple(width, height, wcost,
                                                top.trans + bottom.trans
                                                + committed,
                                                top.disch + bottom.disch
                                                + committed,
                                                levels, p_dis, par_b,
                                                top.has_pi or bottom.has_pi,
                                                p_tail=p_tail,
                                                ends_par=bottom.ends_par,
                                                op="ser", left=top,
                                                right=bottom)
                            slots[(width, height)] = [(key, cand)]
                            continue
                        if not pareto:
                            inc_key, inc = slot[0]
                            if key < inc_key or (key == inc_key
                                                 and p_dis < inc.p_dis):
                                if cand is None:
                                    cand = MapTuple(width, height, wcost,
                                                    top.trans + bottom.trans
                                                    + committed,
                                                    top.disch + bottom.disch
                                                    + committed,
                                                    levels, p_dis, par_b,
                                                    top.has_pi
                                                    or bottom.has_pi,
                                                    p_tail=p_tail,
                                                    ends_par=bottom.ends_par,
                                                    op="ser", left=top,
                                                    right=bottom)
                                slot[0] = (key, cand)
                            else:
                                pruned += 1
                                if cand is None:
                                    skips += 1
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
                            if cand is None:
                                skips += 1
                            continue
                        if cand is None:
                            cand = MapTuple(width, height, wcost,
                                            top.trans + bottom.trans
                                            + committed,
                                            top.disch + bottom.disch
                                            + committed,
                                            levels, p_dis, par_b,
                                            top.has_pi or bottom.has_pi,
                                            p_tail=p_tail,
                                            ends_par=bottom.ends_par,
                                            op="ser", left=top, right=bottom)
                        slot[:] = [e for e in slot
                                   if not (key <= e[0]
                                           and p_dis <= e[1].p_dis
                                           and p_tail <= e[1].p_tail
                                           and (not par_b or e[1].par_b))]
                        slot.append((key, cand))
                        if len(slot) > max_front:
                            slot.sort(key=lambda e: (e[0], e[1].p_dis))
                            del slot[max_front:]
        stats = self._stats
        stats.tuples_created += created
        stats.tuples_pruned += pruned
        stats.bound_skips += skips


class AutoKernel:
    """Hybrid dispatch: soa for large batches, reference for small ones.

    Sound as a per-call choice because both kernels produce identical
    tables and identical stats counters — the routing decision is pure
    execution strategy.  The batch-size cutoff comes from
    ``MapperConfig.auto_threshold`` (via ``resolve_kernel``), and every
    per-call decision is tallied into ``stats.auto_routed_soa`` /
    ``stats.auto_routed_reference`` so reports can show how a hybrid
    run actually split its work.
    """

    name = "auto"
    active = "hybrid"

    def __init__(self, reference, soa, threshold=None):
        self._reference = reference
        self._soa = soa
        self._threshold = AUTO_THRESHOLD if threshold is None else threshold
        # Replaced by the engine's stats on build(); a throwaway default
        # keeps an unbuilt hybrid (unit tests, ad-hoc harnesses) usable.
        self._stats = MappingStats()

    def build(self, engine) -> None:
        self._stats = engine.stats
        self._reference.build(engine)
        self._soa.build(engine)

    def combine(self, table, is_or, view_a, view_b) -> None:
        if len(view_a) * len(view_b) >= self._threshold:
            self._stats.auto_routed_soa += 1
            self._soa.combine(table, is_or, view_a, view_b)
        else:
            self._stats.auto_routed_reference += 1
            self._reference.combine(table, is_or, view_a, view_b)

    def finalize(self) -> None:
        self._reference.finalize()
        self._soa.finalize()

    def stats(self) -> dict:
        routed = self._stats
        return {"active": self.active, "threshold": self._threshold,
                "routed_soa": routed.auto_routed_soa,
                "routed_reference": routed.auto_routed_reference,
                **{k: v for k, v in self._soa.stats().items()
                   if k != "active"}}


def _reference_factory(engine):
    return ReferenceKernel()


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
            "install numpy or pick another registered kernel "
            f"(available_kernels(): {', '.join(available_kernels())})")
    if not metric_vectorizable(engine.model):
        # The model overrides tuple_key directly or its metric form is
        # not elementwise-exact on arrays: the soa kernel cannot match
        # the oracle, so the run degrades to the reference kernel.
        engine.stats.kernel_fallbacks += 1
        return ReferenceKernel()
    from .soa import SoAKernel

    return SoAKernel()


def _auto_factory(engine):
    """``kernel="auto"``: the hybrid when numpy and the model allow."""
    if np is None:
        return ReferenceKernel()
    if not metric_vectorizable(engine.model):
        engine.stats.kernel_fallbacks += 1
        return ReferenceKernel()
    from .soa import SoAKernel

    return AutoKernel(ReferenceKernel(), SoAKernel(),
                      threshold=engine.config.auto_threshold)


register_kernel("reference", _reference_factory)
register_kernel("soa", _soa_factory)
register_kernel("auto", _auto_factory)


def resolve_kernel(engine):
    """The kernel instance a configured engine runs, already built.

    Looks ``engine.config.kernel`` up in the registry, calls the
    factory with the engine, and binds the returned kernel via
    ``build``.  ``MapperConfig`` validates the spelling eagerly, so an
    unknown name here means the registry changed between config
    construction and the run — still a typed error, never a
    ``KeyError``.
    """
    choice = engine.config.kernel
    factory = _REGISTRY.get(choice)
    if factory is None:
        raise MappingError(
            f"unknown kernel {choice!r}; available kernels: "
            f"{', '.join(available_kernels())}")
    kernel = factory(engine)
    kernel.build(engine)
    return kernel
