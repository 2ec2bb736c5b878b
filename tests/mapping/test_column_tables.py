"""Column tables: the DP's tuples live as arena rows.

A mapping run keeps every sub-solution as one row of its arena, and
materializes a row (rebuilds its pulldown structure) only for the gates
plan selection picks: the plan reads each selected gate's structure and
columns from its formed row.  These tests pin that, and the arena
mechanics the engine and both kernels rely on: rows survive growth, a
table is a contiguous row range followed by its gate row, and
structures rebuild from provenance exactly as an eager combination
would have built them.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.bench_suite import load_circuit
from repro.domino import Leaf, parallel, series
from repro.mapping import (CostModel, MapperConfig, MappingEngine,
                           flow_config, prepare_network)
from repro.mapping.kernel import ReferenceKernel
from repro.mapping.tuples import OP_GATE, OP_PAR, OP_SER, Arena
from repro.pipeline import MappingStats
from tests.mapping.rows import append_rows, fields, slots

np = pytest.importorskip("numpy")


@pytest.mark.parametrize("flow", ["domino", "rs", "soi"])
def test_map_tuples_are_built_only_for_selected_gates(flow):
    """No structure during the DP; plan selection rebuilds its gates'.

    The DP combines rows, and only the primary inputs carry an eager
    structure.  ``plan()`` takes each selected gate's structure from
    provenance and its ``has_pi`` from the formed row.
    """
    network, _ = prepare_network(load_circuit("count"))
    config = flow_config(flow, MapperConfig(kernel="soa"))
    engine = MappingEngine(network, CostModel(), config)
    engine.run_dp()
    assert len(engine.arena._structs) == len(network.pis)
    plan = engine.plan()
    assert plan.gates
    for planned in plan.gates:
        row = engine._gates[planned.node_id][0]
        assert planned.structure is engine.arena.structure(row)
        assert planned.has_pi == (engine.arena.rows(
            range(row, row + 1))[0].has_pi)


def test_rows_survive_growth_and_read_back_typed():
    arena = Arena(2)
    rows = [fields(wcost=i / 7.0, p_dis=i % 3) for i in range(11)]
    leaves = [Leaf(f"x{i}") for i in range(11)]
    ids = append_rows(arena, rows, keys=[r[2] for r in rows],
                      structures=leaves)
    assert ids == range(0, 11) and len(arena) == 11
    for written, leaf, row in zip(rows, leaves, arena.rows(ids)):
        assert (row.width, row.height, row.wcost, row.p_dis, row.has_pi,
                row.par_b) == (1, 1, written[2], written[4], True, False)
        assert type(row.width) is int and type(row.has_pi) is bool
        assert arena.key(row.id) == written[2]
        assert arena.structure(row.id) is leaf
    assert np.array_equal(arena.gather(np.arange(11))[:, 2],
                          [r[2] for r in rows])


def test_structures_rebuild_from_provenance_and_memoize():
    arena = Arena()
    a, b, c = append_rows(arena, [fields()] * 3,
                          structures=[Leaf(x) for x in "abc"])
    base = arena.reserve(3)
    row = (1, 2, 2.0, 0, 1, 0, False, False, 2, 0, True)
    arena.write_rows(base, [row] * 3, [2.0] * 3,
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
    from repro.mapping.soa import SoAKernel

    for kernel in (ReferenceKernel(), SoAKernel()):
        kernel.build(SimpleNamespace(config=MapperConfig(w_max=4, h_max=4),
                                     model=CostModel(),
                                     stats=MappingStats()))
        arena = Arena()
        append_rows(arena, [fields()])
        tops = append_rows(arena, [fields(wcost=2.0),
                                   fields(height=2, wcost=3.0, trans=2)])
        bottom = append_rows(arena, [fields(wcost=1.0)])
        [table], [created] = kernel.combine_many(arena,
                                                 [(True, tops, bottom)])
        # an OR node: each top beside the bottom, one slot per shape,
        # and the row after the table reserved for the node's gate
        assert created == 2
        assert (table.start, table.stop, len(arena)) == (4, 6, 7)
        assert [(shape, [e[0] for e in entries])
                for shape, entries in slots(arena, table)] \
            == [((2, 1), [3.0]), ((2, 2), [4.0])]
        assert arena._p[3 * table.start:3 * table.stop].tolist() \
            == [OP_PAR, 1, 3, OP_PAR, 2, 3]


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
