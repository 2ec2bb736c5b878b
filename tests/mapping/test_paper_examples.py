"""The paper's worked examples, locked in as regression tests.

* Figure 3: the `{W,H,cost}` dynamic program on OR(AND(a,b), AND(c,d))
  with Wmax=Hmax=4 — AND tuple cost 2, AND gate cost 7, OR's flat
  solution cost 4, final gate cost 9.
* Section V's combine arithmetic: verified through MappingEngine tuples
  (the structural counterparts live in tests/domino/test_analysis.py).
* Figure 5: the ordering rule sinks the parallel stack.
"""

import pytest

from repro.mapping import CostModel, MapperConfig, MappingEngine
from repro.network import LogicNetwork


@pytest.fixture
def fig3():
    net = LogicNetwork("fig3")
    a, b, c, d = (net.add_pi(x) for x in "abcd")
    and1 = net.add_and(a, b)
    and2 = net.add_and(c, d)
    or1 = net.add_or(and1, and2)
    net.add_po(or1, "out")
    return net, (and1, and2, or1)


def _rows(engine, uid, width, height):
    """Node ``uid``'s table rows of shape ``(width, height)``."""
    return [row for row in engine.arena.rows(engine._tables[uid])
            if (row.width, row.height) == (width, height)]


def _engine(net, **kwargs) -> MappingEngine:
    defaults = dict(w_max=4, h_max=4, pbe_aware=False, ordering="naive",
                    duplication=False)
    defaults.update(kwargs)
    return MappingEngine(net, CostModel(), MapperConfig(**defaults))


class TestFigure3:
    def test_and_node_tuple(self, fig3):
        net, (and1, _, _) = fig3
        engine = _engine(net)
        engine.run()
        tuples = _rows(engine, and1, 1, 2)
        assert len(tuples) == 1
        assert tuples[0].trans == 2
        assert tuples[0].wcost == 2

    def test_and_gate_costs_seven(self, fig3):
        net, (and1, _, _) = fig3
        engine = _engine(net)
        engine.run()
        _, wcost, trans, _, _, footed = engine._gates[and1]
        # 2 pulldown + p-clock + inverter(2) + keeper + n-clock = 7
        assert wcost == 7
        assert trans == 7
        assert footed

    def test_or_node_flat_solution(self, fig3):
        net, (_, _, or1) = fig3
        engine = _engine(net)
        engine.run()
        flat = _rows(engine, or1, 2, 2)
        assert len(flat) == 1
        assert flat[0].wcost == 4  # both AND structures absorbed

    def test_or_node_formed_gate_combination(self, fig3):
        net, (_, _, or1) = fig3
        engine = _engine(net)
        engine.run()
        # combining the two formed AND gates: {W=2, H=1}, cost 16
        formed = _rows(engine, or1, 2, 1)
        assert len(formed) == 1
        assert formed[0].wcost == 16

    def test_final_gate_costs_nine(self, fig3):
        net, (_, _, or1) = fig3
        engine = _engine(net)
        result = engine.run()
        _, wcost, _, _, _, _ = engine._gates[or1]
        assert wcost == 9
        assert result.cost.t_total == 9
        assert result.cost.num_gates == 1

    def test_single_flat_gate_materialized(self, fig3):
        net, _ = fig3
        result = _engine(net).run()
        gate = result.circuit.gates[0]
        assert gate.width == 2
        assert gate.height == 2
        assert gate.t_pulldown == 4
        assert gate.footed


class TestFigure5Ordering:
    """AND((A*B + C), E): the paper's rule puts the stack at the bottom."""

    def _map(self, ordering):
        net = LogicNetwork("fig5")
        a, b, c, e = (net.add_pi(x) for x in "abce")
        stack = net.add_or(net.add_and(a, b), c)
        net.add_po(net.add_and(stack, e), "out")
        engine = MappingEngine(net, CostModel(), MapperConfig(
            w_max=5, h_max=8, pbe_aware=True, ordering=ordering,
            duplication=False))
        return engine.run()

    def test_paper_rule_sinks_stack(self):
        result = self._map("paper")
        gate = result.circuit.gates[0]
        assert gate.structure.ends_in_parallel
        assert gate.t_disch == 0

    def test_naive_rule_commits_discharges(self):
        result = self._map("naive")
        gate = result.circuit.gates[0]
        # fanin order puts the stack on top: 2 discharge transistors
        # (figure 5 left)
        assert gate.t_disch == 2
