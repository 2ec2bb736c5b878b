"""Column tables: the DP's tuples live as arena rows.

A mapping run keeps every sub-solution as one row of its arena and
builds :class:`MapTuple` objects only for the gates plan selection
picks.  These tests pin that, and the arena mechanics the engine and
both kernels rely on: rows survive growth, a table is a contiguous row
range followed by its gate row, and structures rebuild from provenance
exactly as an eager combination would have built them.
"""

from __future__ import annotations

import pytest

from repro.bench_suite import load_circuit
from repro.domino import Leaf, parallel, series
from repro.mapping import (CostModel, MapperConfig, MappingEngine, MapTuple,
                           TupleTable, flow_config, prepare_network)
from repro.mapping.tuples import OP_GATE, OP_PAR, OP_SER, Arena

np = pytest.importorskip("numpy")


def _leaf_tuple(name, wcost=1.0, p_dis=0):
    return MapTuple(width=1, height=1, wcost=wcost, trans=1, disch=0,
                    levels=0, p_dis=p_dis, par_b=False, has_pi=True,
                    structure=Leaf(name))


def _reachable(arena, rows):
    """Rows reachable from ``rows`` through combine provenance."""
    seen = set()
    stack = list(rows)
    while stack:
        row = stack.pop()
        if row in seen:
            continue
        seen.add(row)
        op, left, right = arena._p[3 * row:3 * row + 3]
        if op in (OP_SER, OP_PAR):
            stack += (left, right)
    return seen


@pytest.mark.parametrize("flow", ["domino", "rs", "soi"])
def test_map_tuples_are_built_only_for_selected_gates(monkeypatch, flow):
    """No MapTuple during the DP; at most one per reachable row after.

    Without a tree cache, the soa kernel writes rows and the engine
    forms gates from columns, so ``run_dp()`` builds no MapTuple at
    all, and plan selection builds only the selected gates' tuples.
    """
    built = []
    init = MapTuple.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MapTuple, "__init__", counting)
    network, _ = prepare_network(load_circuit("count"))
    config = flow_config(flow, MapperConfig(kernel="soa"))
    engine = MappingEngine(network, CostModel(), config)
    engine.run_dp()
    assert built == []
    plan = engine.plan()
    rows = [engine._gates.formed[uid][0] for uid in plan.gate_records]
    assert 0 < len(built) <= len(_reachable(engine.arena, rows))
    assert len(built) == len(plan.gates)


def test_rows_survive_growth_and_read_back_typed():
    arena = Arena(2)
    tuples = [_leaf_tuple(f"x{i}", wcost=i / 7.0, p_dis=i % 3)
              for i in range(11)]
    ids = arena.append_tuples(tuples, keys=[t.wcost for t in tuples])
    assert ids == range(0, 11) and len(arena) == 11
    for t, row in zip(tuples, arena.rows(ids)):
        assert (row.width, row.height, row.wcost, row.p_dis, row.has_pi,
                row.par_b) == (1, 1, t.wcost, t.p_dis, True, False)
        assert type(row.width) is int and type(row.has_pi) is bool
        assert arena.key(row.id) == t.wcost
        assert arena.structure(row.id) is t.structure
    assert np.array_equal(arena.gather(np.arange(11))[:, 2],
                          [t.wcost for t in tuples])


def test_structures_rebuild_from_provenance_and_memoize():
    arena = Arena()
    a, b, c = arena.append_tuples([_leaf_tuple(x) for x in "abc"])
    base = arena.reserve(3)
    fields = (1, 2, 2.0, 0, 1, 0, False, False, 2, 0, True)
    arena.write_rows(base, [fields] * 3, [2.0] * 3,
                     [(OP_PAR, a, b), (OP_SER, base, c), (OP_GATE, 7, -1)])
    built = arena.structure(base + 1)
    expected = series(parallel(Leaf("a"), Leaf("b")), Leaf("c"))
    assert built == expected
    assert arena.structure(base + 1) is built
    assert arena.structure(base) is built.children[0]
    gate = arena.structure(base + 2)
    assert (gate.signal, gate.is_primary, gate.source_gate) == \
        ("g7", False, 7)


def test_a_table_is_a_row_range_followed_by_its_gate_row():
    arena = Arena()
    arena.append_tuples([_leaf_tuple("pi")])
    slots = [((1, 1), [_leaf_tuple("a", 2.0), _leaf_tuple("b", 3.0, 1)]),
             ((2, 1), [MapTuple(width=2, height=1, wcost=4.0, trans=2,
                                disch=0, levels=0, p_dis=0, par_b=True,
                                has_pi=True,
                                structure=parallel(Leaf("a"), Leaf("b")))])]
    table = TupleTable(lambda wcost, levels: wcost, pareto=True, arena=arena)
    table._load([(t.wcost, t) for _, ts in slots for t in ts])
    assert (table.start, table.stop, len(arena)) == (1, 4, 5)
    assert [(shape, [t.wcost for _, t in entries])
            for shape, entries in table.keyed_slots()] \
        == [((1, 1), [2.0, 3.0]), ((2, 1), [4.0])]
    assert [k for _, entries in table.keyed_slots() for k, _ in entries] \
        == [2.0, 3.0, 4.0]
    assert table.best().wcost == 2.0
    assert table.shapes() == [(1, 1), (2, 1)]


@pytest.mark.parametrize("kernel", ["reference", "soa"])
@pytest.mark.parametrize("flow", ["domino", "soi"])
def test_ends_par_column_is_the_rebuilt_structure_fact(kernel, flow):
    """The ``ends_par`` column each kernel writes for a combined row (a
    parallel combination ends in parallel; a series one inherits its
    bottom operand's) is what the rebuilt pulldown reports."""
    network, _ = prepare_network(load_circuit("mux"))
    engine = MappingEngine(network, CostModel(),
                           flow_config(flow, MapperConfig(kernel=kernel)))
    engine.run_dp()
    arena = engine.arena
    checked = 0
    for table in engine._tables.values():
        for row in arena.rows(range(table.start, table.stop)):
            if arena._p[3 * row.id] in (OP_SER, OP_PAR):
                assert row.ends_par == \
                    arena.structure(row.id).ends_in_parallel
                checked += 1
    assert checked > 0
