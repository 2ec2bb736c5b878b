"""Gate formation: the column reduction against a scalar oracle.

The engine forms every node of a kernel batch at once, as one column
reduction over the batch's arena rows, whenever the cost model's
selection key prices numpy columns elementwise, and one row at a time
otherwise.  Both must choose what the one-node-at-a-time
``_form_gate`` loop below (kept here as the oracle) chooses: the first
tuple, in slot order, of the least ``(tuple_key_metrics(...), p_dis)``,
with ``wcost + overhead`` plus, under an ungrounded policy, ``p_dis``
discharge transistors, in that association.  The gate row each node's
fanouts see is checked the same way, sunk or fanout-amortized.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.domino import Leaf
from repro.mapping import (ClockWeightedCost, CostModel, DepthCost,
                           MapperConfig, MappingEngine, MapTuple, TupleTable)
from repro.mapping.engine import GROUND_POLICIES
from repro.network import network_from_expression


# ---------------------------------------------------------------------------
# the oracle: gate formation one tuple at a time
# ---------------------------------------------------------------------------
def _oracle_form_gate(model, config, tuples):
    """``(index, wcost, trans, disch, levels, footed)`` of the gate."""
    policy = config.ground_policy
    best = None
    best_key = None
    for index, t in enumerate(tuples):
        overhead = model.gate_overhead_cost(t.has_pi)
        wcost = t.wcost + overhead
        disch = t.disch
        trans = t.trans + (5 if t.has_pi else 4)
        ungrounded = (policy == "pessimistic"
                      or (policy == "footless" and t.has_pi))
        if ungrounded and config.pbe_aware:
            wcost += t.p_dis * model.discharge_cost()
            disch += t.p_dis
            trans += t.p_dis
        levels = t.levels + 1
        key = (model.tuple_key_metrics(wcost, levels), t.p_dis)
        if best_key is None or key < best_key:
            best_key = key
            best = (index, wcost, trans, disch, levels, t.has_pi)
    return best


def _oracle_gate_input(model, wcost, trans, disch, levels, share):
    """``(wcost, trans, disch, levels)`` of the ``{1,1}`` gate input."""
    sunk = share == 0
    base_w = 0.0 if sunk else wcost / max(1, share)
    return (base_w + model.leaf_cost(), (0 if sunk else trans) + 1,
            0 if sunk else disch, levels)


# ---------------------------------------------------------------------------
# random tables
# ---------------------------------------------------------------------------
class _ScalarKey(DepthCost):
    """A key with a Python branch: numpy columns fail the probe."""

    def tuple_key_metrics(self, wcost, levels):
        return (self.level_weight * levels + wcost if levels > 1
                else wcost + 0.5)


MODELS = {
    "area": CostModel(),
    "clock-weighted": ClockWeightedCost(k=2.0),
    # a fractional clock weight: overheads and discharge prices whose
    # sums round, so the association order shows in the last bit
    "clock-weighted-0.3": ClockWeightedCost(k=0.3),
    "depth": DepthCost(level_weight=2.5),
}

# Costs from a small pool force exact key ties; sevenths are the
# binary-infinite fractions fanout amortization produces.
_WCOST = st.one_of(st.sampled_from([3.0, 4.0, 4.5, 6.0]),
                   st.integers(2, 40).map(float),
                   st.integers(14, 280).map(lambda n: n / 7.0),
                   st.floats(0.1, 50.0))
_ROW = st.fixed_dictionaries({
    "wcost": _WCOST,
    "trans": st.integers(1, 30),
    "disch": st.integers(0, 4),
    "levels": st.integers(0, 3),
    "p_dis": st.integers(0, 3),
    "has_pi": st.booleans(),
    "par_b": st.booleans(),
})
# A table: 1-4 slots of 1-4 rows each (multi-row slots are pareto fronts)
_TABLE = st.lists(st.lists(_ROW, min_size=1, max_size=4), min_size=1,
                  max_size=4)
# share 0 is a forced (sunk) boundary, else the node's fanout count
_BATCH = st.lists(st.tuples(_TABLE, st.integers(0, 4)), min_size=1,
                  max_size=6)


def _tuple(row, shape, idx):
    width, height = shape
    return MapTuple(width=width, height=height, wcost=row["wcost"],
                    trans=row["trans"], disch=row["disch"],
                    levels=row["levels"], p_dis=row["p_dis"],
                    par_b=row["par_b"], has_pi=row["has_pi"],
                    p_tail=min(row["p_dis"], 1), ends_par=row["par_b"],
                    structure=Leaf(f"x{idx}"))


def _form(model, config, batch):
    """Finish ``batch``'s nodes in an engine; what each path produced."""
    engine = MappingEngine(network_from_expression("a * b"), model, config)
    uids, tables, contents = [], [], []
    for j, (slots, share) in enumerate(batch):
        uid = 1000 + j
        shaped = [(shape, [_tuple(row, shape, 10 * j + i)
                           for i, row in enumerate(rows)])
                  for shape, rows in zip([(1, 1), (2, 1), (1, 2), (2, 2)],
                                         slots)]
        table = TupleTable(model.tuple_key_metrics, pareto=True,
                           arena=engine.arena)
        table._load([(model.tuple_key_metrics(t.wcost, t.levels), t)
                     for _, ts in shaped for t in ts])
        tables.append(table)
        contents.append([t for _, ts in shaped for t in ts])
        engine._share[uid] = share
        uids.append(uid)
    engine._finish_nodes(uids, tables)
    out = []
    for uid, table in zip(uids, tables):
        record = engine._gates[uid]
        row = engine._gates.formed[uid][0]
        [gate] = engine.arena.rows(range(table.stop, table.stop + 1))
        assert engine._fanin_view(uid) == (
            range(table.start, table.stop + 1) if engine._share[uid]
            else range(table.stop, table.stop + 1))
        out.append(((row - table.start, record.wcost, record.trans,
                     record.disch, record.levels, record.footed),
                    (gate.wcost, gate.trans, gate.disch, gate.levels),
                    (gate.width, gate.height, gate.p_dis, gate.p_tail,
                     gate.par_b, gate.ends_par, gate.has_pi)))
    return engine, contents, out


def _expected(model, config, batch, contents):
    expected = []
    for (_, share), tuples in zip(batch, contents):
        chosen = _oracle_form_gate(model, config, tuples)
        expected.append((chosen,
                         _oracle_gate_input(model, *chosen[1:5], share),
                         (1, 1, 0, 0, False, False, False)))
    return expected


@pytest.mark.parametrize("pbe", [True, False], ids=["pbe", "bulk"])
@pytest.mark.parametrize("policy", GROUND_POLICIES)
@pytest.mark.parametrize("model_name", sorted(MODELS))
@settings(max_examples=30, deadline=None)
@given(batch=_BATCH)
def test_column_gate_formation_matches_the_scalar_oracle(model_name, policy,
                                                         pbe, batch):
    pytest.importorskip("numpy")
    model = MODELS[model_name]
    config = MapperConfig(pbe_aware=pbe, ground_policy=policy, pareto=True)
    engine, contents, got = _form(model, config, batch)
    assert engine._key_columns
    assert got == _expected(model, config, batch, contents)


@pytest.mark.parametrize("policy", GROUND_POLICIES)
@settings(max_examples=30, deadline=None)
@given(batch=_BATCH)
def test_key_failing_the_probe_takes_the_scalar_path(policy, batch):
    model = _ScalarKey(level_weight=2.5)
    config = MapperConfig(pbe_aware=True, ground_policy=policy, pareto=True)
    engine, contents, got = _form(model, config, batch)
    assert not engine._key_columns
    assert got == _expected(model, config, batch, contents)


def test_a_nan_key_falls_back_to_the_scalar_loop():
    """NaN keys compare as the scalar loop does, not as a column min."""
    np = pytest.importorskip("numpy")

    class NanKey(CostModel):
        def tuple_key_metrics(self, wcost, levels):
            # elementwise, and NaN at levels 2 (0 * inf)
            return wcost + (levels - 2) * float("inf")

    model = NanKey()
    config = MapperConfig()
    batch = [([[dict(wcost=5.0, trans=5, disch=0, levels=1, p_dis=0,
                     has_pi=False, par_b=False),
                dict(wcost=3.0, trans=3, disch=0, levels=0, p_dis=0,
                     has_pi=False, par_b=False)]], 1)]
    with np.errstate(invalid="ignore"):
        engine, contents, got = _form(model, config, batch)
    assert engine._key_columns
    # the first row's key is NaN: no later key compares below it
    assert got[0][0][0] == 0
    assert got == _expected(model, config, batch, contents)
