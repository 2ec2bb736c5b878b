"""The structure-of-arrays kernel: bit-identity, routing, and fallbacks.

Three layers of checks:

* **Direct kernel fuzz** — seeded random cone tables pushed through
  :class:`ReferenceKernel` and :class:`SoAKernel` side by side, across
  orderings x table modes x cost models, comparing the resulting slot
  maps *exactly*: slot insertion order, per-slot entry order, selection
  keys, and every scalar field of every surviving tuple.  This covers
  the vectorized selection path (radix-digit sort, the pareto
  change-point reducer) far from the corners real circuits visit; the
  key's digit image is checked on its own against a stable argsort,
  and hand-built candidate sequences pin the reducer's two shortcut
  verdicts (rejected, append-then-truncate) at their edges.
* **Engine-level equivalence** — ``kernel="soa"``/``"auto"`` reproduce
  the reference digests and stats on real networks, across the
  cross-kernel parity configurations CI runs (the large ones under
  ``REPRO_EQUIV_FULL=1``); the broader sweep lives in
  ``test_lazy_equivalence.py``, which runs every pinned seed digest
  under both kernels.
* **Resolution edges** — auto-kernel routing, the vectorizability
  fallback (a key that is not elementwise -> reference kernel +
  ``kernel_fallbacks``), and ``kernel="soa"`` without numpy being a
  hard :class:`MappingError` rather than a silent downgrade.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

np = pytest.importorskip("numpy")

from repro.bench_suite import load_circuit  # noqa: E402
from repro.bench_suite.generators import random_network  # noqa: E402
from repro.domino.structure import Leaf  # noqa: E402
from repro.errors import MappingError  # noqa: E402
from repro.mapping import CostModel, DepthCost, MapperConfig  # noqa: E402
from repro.mapping import MappingEngine, map_network  # noqa: E402
from repro.mapping import prepare_network  # noqa: E402
from repro.mapping.kernel import (AUTO_THRESHOLD, AutoKernel,  # noqa: E402
                                  ReferenceKernel, resolve_kernel)
from repro.mapping.soa import SoAKernel, _key_cols  # noqa: E402
from repro.mapping.tuples import Arena, MapTuple, TupleTable  # noqa: E402
from repro.network import network_from_expression  # noqa: E402
from repro.pipeline import MappingStats  # noqa: E402
from repro.synth import decompose, sweep, unate_with_sweep  # noqa: E402


# ---------------------------------------------------------------------------
# direct kernel fuzz
# ---------------------------------------------------------------------------
def _fake_engine(config: MapperConfig, model: CostModel):
    return SimpleNamespace(config=config, model=model,
                           stats=MappingStats())


def _random_tuple(rng: random.Random, idx: int, config: MapperConfig,
                  fractional: bool) -> MapTuple:
    width = rng.randint(1, config.w_max)
    height = rng.randint(1, config.h_max)
    trans = rng.randint(1, width * height + 1)
    wcost = float(trans)
    if fractional:
        # fanout-amortized area flow: binary-infinite fractions, the
        # regime real cost models put the f64 radix-digit sort in
        wcost += rng.randint(0, 6) / 7.0
    par_b = rng.random() < 0.5
    p_dis = rng.randint(0, width * height)
    p_tail = rng.randint(0, p_dis) if par_b else rng.randint(0, p_dis)
    return MapTuple(width=width, height=height, wcost=wcost,
                    trans=trans, disch=rng.randint(0, 2),
                    levels=rng.randint(0, 5), p_dis=p_dis,
                    par_b=par_b, has_pi=rng.random() < 0.5,
                    p_tail=p_tail, ends_par=par_b or rng.random() < 0.3,
                    structure=Leaf(f"t{idx}"))


def _snapshot(table: TupleTable):
    return [(shape, [(key, t.width, t.height, t.wcost, t.trans, t.disch,
                      t.levels, t.p_dis, t.p_tail, t.par_b, t.ends_par,
                      t.has_pi)
                     for key, t in entries])
            for shape, entries in table.keyed_slots()]


def _run_both(config, model, view_a, view_b, is_or, max_front=4):
    """Both kernels fill one table from the same two views.

    The views' tuples become rows of a fresh arena per kernel, and the
    kernel sees them as the row ranges the engine hands it.
    """
    outs = []
    for make_kernel in (ReferenceKernel, SoAKernel):
        engine = _fake_engine(config, model)
        kernel = make_kernel()
        kernel.build(engine)
        arena = Arena()
        rows_a = arena.append_tuples(view_a)
        rows_b = arena.append_tuples(view_b)
        table = TupleTable(key_fn=model.tuple_key_metrics,
                           pareto=config.pareto,
                           max_front=max_front, arena=arena)
        kernel.combine_many([(table, is_or, rows_a, rows_b)])
        kernel.finalize()
        outs.append((_snapshot(table),
                     (engine.stats.tuples_created,
                      engine.stats.tuples_pruned,
                      engine.stats.bound_skips)))
    return outs


@pytest.mark.parametrize("ordering",
                         ["paper", "naive", "adverse", "exhaustive"])
@pytest.mark.parametrize("pareto", [False, True])
@pytest.mark.parametrize("fractional", [False, True])
def test_fuzzed_cone_tables_bit_identical(ordering, pareto, fractional):
    model = CostModel()
    for seed in range(6):
        rng = random.Random(1000 * seed + hash((ordering, pareto,
                                                fractional)) % 997)
        config = MapperConfig(w_max=rng.randint(3, 8),
                              h_max=rng.randint(4, 10),
                              ordering=ordering, pareto=pareto,
                              pbe_aware=True)
        view_a = [_random_tuple(rng, i, config, fractional)
                  for i in range(rng.randint(1, 24))]
        view_b = [_random_tuple(rng, 100 + i, config, fractional)
                  for i in range(rng.randint(1, 24))]
        for is_or in (True, False):
            (ref_slots, ref_stats), (soa_slots, soa_stats) = _run_both(
                config, model, view_a, view_b, is_or)
            assert soa_slots == ref_slots, (
                f"slot divergence: seed={seed} is_or={is_or}")
            assert soa_stats == ref_stats, (
                f"stats divergence: seed={seed} is_or={is_or}")


@pytest.mark.parametrize("model", [DepthCost(), DepthCost(level_weight=2.5)],
                         ids=["depth", "depth2.5"])
def test_fuzzed_tables_other_models(model):
    rng = random.Random(7)
    config = MapperConfig(w_max=6, h_max=8, ordering="exhaustive",
                          pareto=True, pbe_aware=True)
    view_a = [_random_tuple(rng, i, config, True) for i in range(20)]
    view_b = [_random_tuple(rng, 50 + i, config, True) for i in range(20)]
    for is_or in (True, False):
        (ref_slots, ref_stats), (soa_slots, soa_stats) = _run_both(
            config, model, view_a, view_b, is_or)
        assert soa_slots == ref_slots
        assert soa_stats == ref_stats


@pytest.mark.parametrize("max_front", [1, 2, 64])
def test_pareto_front_bounds_bit_identical(max_front):
    """Degenerate and oversized front caps reproduce the reference.

    ``max_front=1`` keeps a single survivor per slot (every accept is a
    truncation decision), ``max_front=2`` fills and truncates fronts
    after only two accepts, so the reducer's append-then-truncate
    verdict fires on almost every front, and ``max_front=64`` never
    truncates at all on these view sizes, so that verdict must never
    fire and the sort-truncate path must stay a no-op.
    """
    model = CostModel()
    for seed in range(4):
        rng = random.Random(9000 + 31 * max_front + seed)
        config = MapperConfig(w_max=5, h_max=7, ordering="exhaustive",
                              pareto=True, pbe_aware=True)
        view_a = [_random_tuple(rng, i, config, seed % 2 == 0)
                  for i in range(rng.randint(4, 20))]
        view_b = [_random_tuple(rng, 100 + i, config, seed % 2 == 0)
                  for i in range(rng.randint(4, 20))]
        for is_or in (True, False):
            (ref_slots, ref_stats), (soa_slots, soa_stats) = _run_both(
                config, model, view_a, view_b, is_or, max_front=max_front)
            assert soa_slots == ref_slots, (
                f"slot divergence: max_front={max_front} seed={seed} "
                f"is_or={is_or}")
            assert soa_stats == ref_stats, (
                f"stats divergence: max_front={max_front} seed={seed} "
                f"is_or={is_or}")


def _tie_heavy_tuple(rng: random.Random, idx: int,
                     config: MapperConfig) -> MapTuple:
    # keys drawn from a two-value set and p_dis from a narrow band, so
    # the sort-truncate at max_front constantly lands on exact
    # (key, p_dis) ties and the arrival-order tie-break is what decides
    # which entries survive
    width = rng.randint(1, config.w_max)
    height = rng.randint(1, config.h_max)
    trans = rng.choice((3, 4))
    par_b = rng.random() < 0.5
    p_dis = rng.randint(0, 2)
    return MapTuple(width=width, height=height, wcost=float(trans),
                    trans=trans, disch=rng.randint(0, 1),
                    levels=rng.randint(0, 2), p_dis=p_dis,
                    par_b=par_b, has_pi=rng.random() < 0.5,
                    p_tail=rng.randint(0, p_dis),
                    ends_par=par_b or rng.random() < 0.3,
                    structure=Leaf(f"t{idx}"))


@pytest.mark.parametrize("max_front", [2, 4])
def test_pareto_exact_key_ties_at_truncation_boundary(max_front):
    """Slots full of exact (key, p_dis) duplicates truncate identically.

    The reference truncation is a *stable* sort on ``(key, p_dis)``
    followed by a cut, so among tied entries survival is decided purely
    by arrival order — the subtlest contract the columnwise front has
    to honor.
    """
    model = CostModel()
    for seed in range(6):
        rng = random.Random(7000 + 31 * max_front + seed)
        config = MapperConfig(w_max=3, h_max=4, ordering="exhaustive",
                              pareto=True, pbe_aware=True)
        view_a = [_tie_heavy_tuple(rng, i, config)
                  for i in range(rng.randint(6, 24))]
        view_b = [_tie_heavy_tuple(rng, 100 + i, config)
                  for i in range(rng.randint(6, 24))]
        for is_or in (True, False):
            (ref_slots, ref_stats), (soa_slots, soa_stats) = _run_both(
                config, model, view_a, view_b, is_or, max_front=max_front)
            assert soa_slots == ref_slots, (
                f"tie-break divergence: max_front={max_front} "
                f"seed={seed} is_or={is_or}")
            assert soa_stats == ref_stats


def _ser_view(cands):
    """A series-combine view whose candidates arrive as ``cands``.

    Stacked below a single series-ending leaf under the naive ordering,
    the ``i``-th tuple yields the ``i``-th candidate, all in one
    ``(1, 2)`` slot, with ``(key, p_dis, p_tail, par_b)`` exactly as
    given (the leaf adds one potential point at the junction).
    """
    top = MapTuple(width=1, height=1, wcost=0.0, trans=1, disch=0,
                   levels=0, p_dis=0, par_b=False, has_pi=False,
                   p_tail=0, ends_par=False, structure=Leaf("top"))
    bottoms = [MapTuple(width=1, height=1, wcost=float(key), trans=1,
                        disch=0, levels=0, p_dis=p_dis - 1, par_b=par_b,
                        has_pi=False, p_tail=p_tail, ends_par=par_b,
                        structure=Leaf(f"b{i}"))
               for i, (key, p_dis, p_tail, par_b) in enumerate(cands)]
    return [top], bottoms


def _front(cands):
    """Run ``cands`` through both kernels; the slot's final front."""
    config = MapperConfig(w_max=4, h_max=4, ordering="naive",
                          pareto=True, pbe_aware=True)
    view_a, view_b = _ser_view(cands)
    (ref_slots, ref_stats), (soa_slots, soa_stats) = _run_both(
        config, CostModel(), view_a, view_b, False)
    assert soa_slots == ref_slots
    assert soa_stats == ref_stats
    [(shape, entries)] = ref_slots
    assert shape == (1, 2)
    return [(e[0], e[7], e[8], e[9]) for e in entries]


def test_pareto_front_refills_after_a_double_eviction():
    """A full front that loses two entries to one candidate is not full.

    The next candidate lies above the old front's (key, p_dis) maximum,
    which on a full front would make it an append-then-truncate no-op.
    Here it must enter the front.
    """
    cands = [(13, 7, 0, False), (12, 8, 0, False), (11, 9, 0, False),
             (10, 10, 0, False),   # front full, max (13, 7)
             (11, 8, 0, False),    # evicts (12, 8) and (11, 9)
             (14, 6, 0, False)]    # above the old max, enters
    assert _front(cands) == [(13.0, 7, 0, False), (10.0, 10, 0, False),
                             (11.0, 8, 0, False), (14.0, 6, 0, False)]


def test_pareto_tie_at_front_max_evicts_the_tied_entry():
    """A candidate tying the full front's maximum can still evict it.

    It ties the maximum on (key, p_dis), where a newcomer that evicts
    nothing would sort last and be cut, but it dominates the tied entry
    through ``p_tail``, so it replaces that entry instead.  Only a
    candidate strictly above the maximum may skip the exact step.
    """
    cands = [(13, 7, 2, True), (12, 8, 0, False), (11, 9, 0, False),
             (10, 10, 0, False),   # front full, max (13, 7)
             (13, 7, 1, True)]     # ties the max, dominates it
    assert _front(cands) == [(12.0, 8, 0, False), (11.0, 9, 0, False),
                             (10.0, 10, 0, False), (13.0, 7, 1, True)]


def test_pareto_pack_overflow_falls_back_to_the_reference_kernel(
        monkeypatch):
    """Fields too wide for one packed word: the reference fills the table.

    Potential-point counts near 2**50 are far beyond any feasible
    structure, but they are what makes ``p_dis`` overflow the
    change-point reducer's packed int64 front words.
    """
    verdicts = []
    reduce_pareto = SoAKernel._reduce_pareto

    def spy(self, table, batch):
        verdicts.append(reduce_pareto(self, table, batch))
        return verdicts[-1]

    monkeypatch.setattr(SoAKernel, "_reduce_pareto", spy)
    rng = random.Random(11)
    config = MapperConfig(w_max=5, h_max=8, ordering="paper", pareto=True,
                          pbe_aware=True)

    def wide(idx):
        t = _random_tuple(rng, idx, config, True)
        t.p_dis += 1 << 50
        return t

    view_a = [wide(i) for i in range(12)]
    view_b = [wide(60 + i) for i in range(12)]
    for is_or in (True, False):
        (ref_slots, ref_stats), (soa_slots, soa_stats) = _run_both(
            config, CostModel(), view_a, view_b, is_or)
        assert soa_slots == ref_slots
        assert soa_stats == ref_stats
    assert verdicts == [None, None]


# ---------------------------------------------------------------------------
# the key's radix-digit image
# ---------------------------------------------------------------------------
_TINY = 5e-324  # the smallest subnormal
_HUGE = 1.7976931348623157e308  # the largest finite double
_KEY_CASES = {
    "negatives": [3.5, -1.25, -1e300, 0.5, -1.25, 7.0, -0.0078125, -3.5],
    "signed_zeros": [0.0, -0.0, 1.0, -0.0, 0.0, -1.0, -0.0, 0.0],
    "subnormals": [_TINY, -_TINY, 2.2250738585072014e-308, 1e-310,
                   -1e-310, 0.0, -0.0, _TINY, -2.2250738585072014e-308],
    "large_magnitudes": [_HUGE, -_HUGE, 1e300, -1e300, 2.0 ** 1000,
                         float("inf"), float("-inf"), _HUGE, 1.0],
    "integer_valued": [3.0, 2.0, 3.0, 1.0, 0.0, 32768.0, -2.0,
                       2.0 ** 53, 2.0 ** 53 - 1, 65536.0, -32769.0, 2.0],
}


def _assert_digits_sort_stably(key):
    order = np.lexsort(_key_cols(key))
    assert np.array_equal(order, np.argsort(key, kind="stable")), key


@pytest.mark.parametrize("case", sorted(_KEY_CASES))
def test_key_digits_order_like_a_stable_argsort(case):
    """``np.lexsort`` over the digits is exactly a stable key argsort.

    Equal keys — ``-0.0`` and ``+0.0`` included — must keep arrival
    order, since that order decides the reference's slot winner.
    """
    _assert_digits_sort_stably(np.array(_KEY_CASES[case], dtype=np.float64))


def test_key_digits_order_a_mixed_tie_heavy_sample():
    pool = [v for values in _KEY_CASES.values() for v in values]
    pool += [k / 7.0 for k in range(-20, 21)]
    rng = random.Random(5)
    for _ in range(20):
        key = np.array([rng.choice(pool) for _ in range(500)],
                       dtype=np.float64)
        _assert_digits_sort_stably(key)


# ---------------------------------------------------------------------------
# engine-level equivalence and instrumentation
# ---------------------------------------------------------------------------
def _kernel_runs(circuit, flow, config, kernels):
    """Map ``circuit`` once per kernel; kernel -> (digest, counters).

    The soa run must really have run the soa kernel, so that a silent
    fallback to the reference kernel cannot pass as parity.
    """
    network = load_circuit(circuit)
    prepared = prepare_network(network)
    runs = {}
    for kernel in kernels:
        r = map_network(network, flow=flow,
                        config=replace(config, kernel=kernel),
                        prepared=prepared)
        if kernel == "soa":
            assert r.mapping.kernel == "soa"
            assert r.stats.soa_batches > 0
        runs[kernel] = (r.circuit.digest(), r.stats.tuples_created,
                        r.stats.tuples_pruned, r.stats.bound_skips)
    return runs


def test_map_network_soa_matches_reference_digest_and_stats():
    runs = _kernel_runs("9symml", None,
                        MapperConfig(w_max=8, h_max=10, ordering="exhaustive",
                                     pareto=False),
                        ("reference", "soa", "auto"))
    assert runs["reference"] == runs["soa"] == runs["auto"]


_FULL = pytest.mark.skipif(os.environ.get("REPRO_EQUIV_FULL") != "1",
                           reason="large circuits; set REPRO_EQUIV_FULL=1")

#: (circuit, flow, ordering, table mode, (w_max, h_max)).  The default
#: set sweeps three small circuits at paper limits; the gated set adds
#: pareto fronts at the pareto-stress benchmark's W=12/H=16, where
#: fronts fill and truncate on most slots, and the two circuits with
#: the most nodes per topological level, where the soa kernel's batches
#: are largest (the ``domino`` preset forces the adverse ordering).
PARITY_CONFIGS = [
    *(pytest.param(c, "soi", o, m, (5, 8), id=f"{c}-soi-{o}-{m}")
      for c in ("cm150", "mux", "z4ml")
      for o in ("paper", "exhaustive")
      for m in ("single", "pareto")),
    *(pytest.param("f51m", "soi", o, "pareto", (12, 16),
                   id=f"f51m-soi-{o}-pareto-W12H16", marks=_FULL)
      for o in ("paper", "exhaustive")),
    *(pytest.param(c, f, o, "single", (5, 8), id=f"{c}-{f}-{o}-single",
                   marks=_FULL)
      for c in ("c7552", "des")
      for f, o in (("domino", "adverse"), ("soi", "paper"),
                   ("soi", "exhaustive"))),
]


@pytest.mark.parametrize("circuit,flow,ordering,mode,limits",
                         PARITY_CONFIGS)
def test_cross_kernel_parity(circuit, flow, ordering, mode, limits):
    """Both kernels agree on the digest and the work counters."""
    config = MapperConfig(w_max=limits[0], h_max=limits[1],
                          ordering=ordering, pareto=(mode == "pareto"))
    runs = _kernel_runs(circuit, flow, config, ("reference", "soa"))
    assert runs["reference"] == runs["soa"]


def _table_snapshot(engine):
    return {uid: _snapshot(table) for uid, table in engine._tables.items()}


@pytest.mark.parametrize("ordering", ["paper", "exhaustive"])
def test_pareto_parity_at_benchmark_limits(ordering):
    """Both kernels agree on pareto tables at W=12/H=16.

    Random networks shaped like the pareto-stress benchmark's inputs
    (smaller, so the reference kernel stays fast) give batches of
    thousands of candidates into hundreds of slots, where the
    change-point reducer's windows, compaction and restamps all run.
    Every node's table must match slot for slot, and so must the
    digest and the counters.
    """
    for seed, n_gates in ((1, 30), (3, 40), (4, 30)):
        net = random_network(f"rand{seed}", n_pi=16, n_gates=n_gates,
                             n_po=2, seed=seed, locality=10,
                             depth_target=12)
        unate, _ = unate_with_sweep(sweep(decompose(net)))
        runs = []
        for kernel in ("reference", "soa"):
            engine = MappingEngine(unate, CostModel(), MapperConfig(
                w_max=12, h_max=16, pareto=True, ordering=ordering,
                kernel=kernel))
            result = engine.run()
            stats = engine.stats
            runs.append((_table_snapshot(engine), result.circuit.digest(),
                         (stats.tuples_created, stats.tuples_pruned,
                          stats.bound_skips)))
            if kernel == "soa":
                assert stats.soa_max_batch > 1000
        assert runs[0][1] == runs[1][1], f"digest divergence: seed={seed}"
        assert runs[0][2] == runs[1][2], f"stats divergence: seed={seed}"
        assert runs[0][0] == runs[1][0], f"table divergence: seed={seed}"


def test_soa_kernel_records_activity():
    r = map_network(load_circuit("mux"),
                    config=MapperConfig(kernel="soa"))
    assert r.mapping.kernel == "soa"
    assert r.stats.soa_batches > 0
    assert r.stats.soa_candidates >= r.stats.soa_batches
    assert r.stats.soa_max_batch > 0
    assert r.stats.combine_time_s > 0.0


def test_reference_kernel_records_no_soa_activity():
    r = map_network(load_circuit("mux"),
                    config=MapperConfig(kernel="reference"))
    assert r.mapping.kernel == "reference"
    assert r.stats.soa_batches == 0


# ---------------------------------------------------------------------------
# kernel resolution and routing
# ---------------------------------------------------------------------------
def test_auto_kernel_routes_by_view_product():
    calls = []

    class Spy:
        def __init__(self, tag):
            self.tag = tag

        def build(self, engine):
            pass

        def combine_many(self, items):
            calls.append(self.tag)
            return [0] * len(items)

        def finalize(self):
            pass

    assert AUTO_THRESHOLD == 64
    auto = AutoKernel(Spy("ref"), Spy("soa"))
    auto.combine_many([(None, False, [None] * 7, [None] * 9)])   # 63 pairs
    auto.combine_many([(None, False, [None] * 8, [None] * 8)])   # 64 pairs
    # the batch's pairs add up: 40 + 24 reach the threshold together
    auto.combine_many([(None, False, [None] * 5, [None] * 8),
                       (None, True, [None] * 4, [None] * 6)])
    assert calls == ["ref", "soa", "soa"]
    assert (auto._stats.auto_routed_reference,
            auto._stats.auto_routed_soa) == (1, 3)


def test_auto_kernel_mixes_both_kernels_on_real_circuit():
    r = map_network(load_circuit("9symml"),
                    config=MapperConfig(w_max=8, h_max=10, kernel="auto"))
    assert r.mapping.kernel == "hybrid"
    # the hybrid genuinely used the soa kernel for the big batches and
    # left the small ones to the reference kernel
    assert 0 < r.stats.soa_batches < r.stats.combine_calls


def test_non_elementwise_key_falls_back_to_reference():
    class BranchingModel(CostModel):
        def tuple_key_metrics(self, wcost, levels):  # a Python branch
            return wcost if levels < 2 else wcost + 1.0

    r = map_network(network_from_expression("(a + b) * (c + d)"),
                    cost_model=BranchingModel(),
                    config=MapperConfig(kernel="soa"))
    assert r.mapping.kernel == "reference"
    assert r.stats.kernel_fallbacks == 1
    assert r.stats.soa_batches == 0


def test_non_elementwise_key_auto_falls_back_with_counter():
    class FractionalModel(CostModel):
        def tuple_key_metrics(self, wcost, levels):  # scalars only
            return math.fsum((wcost, levels / 7.0))

    r = map_network(network_from_expression("(a + b) * (c + d) + e"),
                    cost_model=FractionalModel(),
                    config=MapperConfig(kernel="auto", pareto=True))
    assert r.mapping.kernel == "reference"
    assert r.stats.kernel_fallbacks == 1
    assert r.stats.soa_batches == 0


def test_soa_without_numpy_is_hard_error(monkeypatch):
    import repro.mapping.kernel as kernel_mod

    monkeypatch.setattr(kernel_mod, "np", None)
    # the error names the other kernels so the fix is discoverable
    with pytest.raises(MappingError,
                       match=r"numpy.*reference, soa, auto"):
        map_network(network_from_expression("a * b + c"),
                    config=MapperConfig(kernel="soa"))
    # auto degrades silently instead
    r = map_network(network_from_expression("a * b + c"),
                    config=MapperConfig(kernel="auto"))
    assert r.mapping.kernel == "reference"


def test_resolve_kernel_shapes():
    engine = SimpleNamespace(config=MapperConfig(kernel="reference"),
                             model=CostModel(), stats=MappingStats(),
                             _key_columns=True)
    assert isinstance(resolve_kernel(engine), ReferenceKernel)
    engine = SimpleNamespace(config=MapperConfig(kernel="soa"),
                             model=CostModel(), stats=MappingStats(),
                             _key_columns=True)
    assert isinstance(resolve_kernel(engine), SoAKernel)
    engine = SimpleNamespace(config=MapperConfig(kernel="auto"),
                             model=CostModel(), stats=MappingStats(),
                             _key_columns=True)
    assert isinstance(resolve_kernel(engine), AutoKernel)


def test_kernel_config_validation():
    with pytest.raises(Exception):
        MapperConfig(kernel="simd")
    # the kernel is execution strategy, not semantics: fingerprints of
    # different kernels must collide so cache entries stay shared
    fp = MapperConfig(kernel="reference").fingerprint()
    assert MapperConfig(kernel="soa").fingerprint() == fp
