"""The DP's keep/evict rule, case by case, on both kernels.

The rule is stated on :meth:`ReferenceKernel._combine_node`.  Each case
offers a sequence of candidates to one node through a two-operand
``combine_many`` call: a series-ending leaf of cost 0 stacked on top of
one bottom row per candidate, under the naive ordering, so the ``i``-th
bottom makes the ``i``-th candidate with exactly the given
``(key, p_dis, p_tail, par_b)`` and a shape one taller than the
bottom's.  The reference classes run without numpy; their soa twins
(skipped without numpy) must reach the same slots and counters.
"""

from types import SimpleNamespace

import pytest

from repro.mapping import CostModel, MapperConfig
from repro.mapping import kernel as kernel_module
from repro.mapping.kernel import ReferenceKernel
from repro.mapping.tuples import Arena
from repro.pipeline import MappingStats
from tests.mapping.rows import append_rows, fields, slots

try:
    import numpy
except ImportError:  # the reference classes still run
    numpy = None

needs_numpy = pytest.mark.skipif(numpy is None, reason="soa needs numpy")


def _offer(kernel_name, cands, pareto, model=None):
    """Offer ``cands`` to one slot-table; its slots and counters.

    ``cands`` are ``(key, p_dis)`` pairs, optionally extended with
    ``p_tail``, ``par_b`` and the bottom's ``(width, height)``.  Slots
    come back as ``[(shape, [(key, p_dis, p_tail, par_b), ...])]`` and
    the counters as ``(tuples_created, tuples_pruned)``.
    """
    model = model or CostModel()
    config = MapperConfig(w_max=4, h_max=4, ordering="naive",
                          pareto=pareto, pbe_aware=True)
    engine = SimpleNamespace(config=config, model=model,
                             stats=MappingStats())
    if kernel_name == "soa":
        from repro.mapping.soa import SoAKernel

        kernel = SoAKernel()
    else:
        kernel = ReferenceKernel()
    kernel.build(engine)
    arena = Arena()
    top = append_rows(arena, [fields(wcost=0.0, has_pi=False)])
    bottoms = []
    for key, p_dis, p_tail, par_b, (width, height) in (
            tuple(c) + (0, False, (1, 1))[len(c) - 2:] for c in cands):
        # the junction below the series-ending top adds one potential
        # point: the candidate's p_dis is the bottom's plus one
        bottoms.append(fields(width=width, height=height, wcost=key,
                              p_dis=p_dis - 1, p_tail=p_tail, par_b=par_b,
                              has_pi=False))
    bottom = append_rows(arena, bottoms)
    [table], [created] = kernel.combine_many(arena, [(False, top, bottom)])
    kernel.finalize()
    assert created == engine.stats.tuples_created == len(cands)
    return ([(shape, [(e[0], e[5], e[6], e[7]) for e in entries])
             for shape, entries in slots(arena, table)],
            (engine.stats.tuples_created, engine.stats.tuples_pruned))


class TestSingleBestMode:
    kernel = "reference"

    def offer(self, cands):
        return _offer(self.kernel, cands, pareto=False)

    def test_keeps_lower_cost(self):
        front, counts = self.offer([(5.0, 1), (3.0, 1), (4.0, 1)])
        assert front == [((1, 2), [(3.0, 1, 0, False)])]
        assert counts == (3, 1)

    def test_tie_broken_by_p_dis(self):
        front, counts = self.offer([(3.0, 2), (3.0, 1), (3.0, 1)])
        # the lower p_dis replaces the incumbent; an exact tie does not
        assert front == [((1, 2), [(3.0, 1, 0, False)])]
        assert counts == (3, 1)

    def test_shapes_kept_separate(self):
        front, counts = self.offer([(2.0, 1, 0, False, (1, 1)),
                                    (9.0, 1, 0, False, (2, 1))])
        # slots in the order their first candidate arrived
        assert front == [((1, 2), [(2.0, 1, 0, False)]),
                         ((2, 2), [(9.0, 1, 0, False)])]
        assert counts == (2, 0)


class TestParetoMode:
    kernel = "reference"

    def offer(self, cands):
        return _offer(self.kernel, cands, pareto=True)

    def test_incomparable_tuples_coexist(self):
        front, counts = self.offer([(3.0, 3), (5.0, 1)])
        assert front == [((1, 2), [(3.0, 3, 0, False), (5.0, 1, 0, False)])]
        assert counts == (2, 0)

    def test_dominated_tuple_rejected(self):
        front, counts = self.offer([(3.0, 2), (4.0, 3),
                                    # par_b only ever weakens a tuple
                                    (3.0, 2, 0, True)])
        assert front == [((1, 2), [(3.0, 2, 0, False)])]
        assert counts == (3, 2)

    def test_dominating_tuple_evicts(self):
        front, counts = self.offer([(4.0, 3, 1, True), (5.0, 2, 0, False),
                                    (3.0, 2, 0, False)])
        assert front == [((1, 2), [(3.0, 2, 0, False)])]
        assert counts == (3, 0)

    def test_front_capped(self):
        front, counts = self.offer([(float(10 - i), i + 1)
                                    for i in range(6)])
        # the stable (key, p_dis) sort keeps the cap's cheapest entries
        assert kernel_module.MAX_FRONT == 4
        assert front == [((1, 2), [(5.0, 6, 0, False), (6.0, 5, 0, False),
                                   (7.0, 4, 0, False), (8.0, 3, 0, False)])]
        assert counts == (6, 0)


@needs_numpy
class TestSingleBestModeSoa(TestSingleBestMode):
    kernel = "soa"


@needs_numpy
class TestParetoModeSoa(TestParetoMode):
    kernel = "soa"


class TestStoredKeys:
    """A row's key is computed once, from ``(wcost, levels)``."""

    def test_key_cached_not_recomputed(self):
        calls = []

        class Counting(CostModel):
            def tuple_key_metrics(self, wcost, levels):
                calls.append(wcost)
                return wcost

        front, _ = _offer("reference", [(3.0, 1), (2.0, 1), (4.0, 1)],
                          pareto=False, model=Counting())
        # one key computation per candidate; the kept row stores its key
        assert calls == [3.0, 2.0, 4.0]
        assert front == [((1, 2), [(2.0, 1, 0, False)])]
