"""Tests for MapTuple and TupleTable selection."""

from repro.domino import Leaf
from repro.mapping import MapTuple, TupleTable


def make_tuple(w=1, h=1, wcost=1.0, p_dis=0, par_b=False):
    return MapTuple(width=w, height=h, wcost=wcost, trans=int(wcost),
                    disch=0, levels=0, p_dis=p_dis, par_b=par_b,
                    has_pi=True, structure=Leaf("x"))


def key(wcost, levels):
    return wcost


class TestSingleBestMode:
    def test_keeps_lower_cost(self):
        table = TupleTable(key)
        assert table.insert(make_tuple(wcost=5.0))
        assert table.insert(make_tuple(wcost=3.0))
        assert not table.insert(make_tuple(wcost=4.0))
        assert [t.wcost for t in table.all_tuples()] == [3.0]

    def test_tie_broken_by_p_dis(self):
        table = TupleTable(key)
        table.insert(make_tuple(wcost=3.0, p_dis=2))
        assert table.insert(make_tuple(wcost=3.0, p_dis=1))
        kept = list(table.all_tuples())[0]
        assert kept.p_dis == 1

    def test_shapes_kept_separate(self):
        table = TupleTable(key)
        table.insert(make_tuple(w=1, h=2, wcost=2.0))
        table.insert(make_tuple(w=2, h=1, wcost=9.0))
        assert len(table) == 2
        assert table.shapes() == [(1, 2), (2, 1)]

    def test_best_across_shapes(self):
        table = TupleTable(key)
        table.insert(make_tuple(w=1, h=2, wcost=2.0))
        table.insert(make_tuple(w=2, h=1, wcost=9.0))
        assert table.best().wcost == 2.0

    def test_best_of_empty_is_none(self):
        assert TupleTable(key).best() is None


class TestParetoMode:
    def test_incomparable_tuples_coexist(self):
        table = TupleTable(key, pareto=True)
        table.insert(make_tuple(wcost=3.0, p_dis=2))
        table.insert(make_tuple(wcost=5.0, p_dis=0))
        assert len(table.get(1, 1)) == 2

    def test_dominated_tuple_rejected(self):
        table = TupleTable(key, pareto=True)
        table.insert(make_tuple(wcost=3.0, p_dis=1))
        assert not table.insert(make_tuple(wcost=4.0, p_dis=2))
        assert len(table.get(1, 1)) == 1

    def test_dominating_tuple_evicts(self):
        table = TupleTable(key, pareto=True)
        table.insert(make_tuple(wcost=4.0, p_dis=2))
        assert table.insert(make_tuple(wcost=3.0, p_dis=1))
        kept = table.get(1, 1)
        assert len(kept) == 1
        assert kept[0].wcost == 3.0

    def test_front_capped(self):
        table = TupleTable(key, pareto=True, max_front=3)
        for i in range(6):
            table.insert(make_tuple(wcost=float(10 - i), p_dis=i))
        assert len(table.get(1, 1)) == 3


class TestStoredKeys:
    """A row's key is computed once, from ``(wcost, levels)``."""

    def test_key_cached_not_recomputed(self):
        calls = []

        def counting_key(wcost, levels):
            calls.append(wcost)
            return wcost

        table = TupleTable(counting_key)
        table.insert(make_tuple(wcost=3.0))
        table.insert(make_tuple(wcost=2.0))
        table.best()
        table.best()
        # one key computation per offered tuple; best() uses stored keys
        assert len(calls) == 2

    def test_insert_accepts_precomputed_key(self):
        def exploding_key(wcost, levels):
            raise AssertionError("key_fn must not be called")

        table = TupleTable(exploding_key)
        assert table.insert(make_tuple(wcost=3.0), key=3.0)

