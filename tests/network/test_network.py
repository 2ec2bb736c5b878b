"""Unit tests for the LogicNetwork DAG container."""

import pytest

from repro.errors import NetworkError
from repro.network import LogicNetwork, NodeType


@pytest.fixture
def simple() -> LogicNetwork:
    net = LogicNetwork("simple")
    a = net.add_pi("a")
    b = net.add_pi("b")
    g = net.add_and(a, b, name="g")
    net.add_po(g, "out")
    return net


class TestConstruction:
    def test_basic_counts(self, simple):
        assert len(simple) == 4
        assert len(simple.pis) == 2
        assert len(simple.pos) == 1

    def test_missing_fanin_rejected(self):
        net = LogicNetwork()
        with pytest.raises(NetworkError):
            net.add_and(0, 1)

    def test_po_cannot_be_fanin(self, simple):
        po = simple.pos[0]
        with pytest.raises(NetworkError):
            simple.add_inv(po)

    def test_bad_fanin_count_keeps_its_error_and_leaves_no_trace(self, simple):
        a, b = simple.pis
        last = simple.add_pi("last")
        size = len(simple)
        with pytest.raises(ValueError, match="must have exactly 1 fanin, got 2"):
            simple.add_gate(NodeType.INV, (a, b))
        with pytest.raises(ValueError, match="must have at least 1 fanin"):
            simple.add_and()
        with pytest.raises(ValueError, match="must have no fanins, got 1"):
            simple.add_gate(NodeType.CONST0, (a,))
        assert len(simple) == size
        # A refused node takes no id.
        assert simple.add_pi("next") == last + 1

    def test_ids_unique_and_increasing(self):
        net = LogicNetwork()
        ids = [net.add_pi(f"p{i}") for i in range(5)]
        assert ids == sorted(set(ids))


class TestTraversal:
    def test_topological_order(self, simple):
        order = simple.topological_order()
        pos = {uid: i for i, uid in enumerate(order)}
        for node in simple:
            for f in node.fanins:
                assert pos[f] < pos[node.uid]

    def test_fanouts(self, simple):
        a = simple.pis[0]
        gate = simple.node(simple.pos[0]).fanins[0]
        assert simple.fanouts(a) == (gate,)
        assert simple.fanout_count(gate) == 1

    def test_fanouts_of_unknown_id_raise_network_error(self, simple):
        with pytest.raises(NetworkError, match="no node with id 99"):
            LogicNetwork().fanouts(99)
        with pytest.raises(NetworkError, match="no node with id 99"):
            LogicNetwork().fanout_count(99)
        simple.fanouts(simple.pis[0])  # the fanout table is built now
        with pytest.raises(NetworkError, match="no node with id 99"):
            simple.fanouts(99)

    def test_transitive_fanin(self, simple):
        po = simple.pos[0]
        cone = simple.transitive_fanin(po)
        assert cone == set(simple.node_ids)

    def test_depth(self, simple):
        assert simple.depth() == 1
        deeper = LogicNetwork()
        a = deeper.add_pi("a")
        x = a
        for _ in range(5):
            x = deeper.add_and(x, a)
        deeper.add_po(x, "o")
        assert deeper.depth() == 5


class TestEditing:
    def test_replace_fanin(self, simple):
        a, b = simple.pis
        gate = simple.node(simple.pos[0]).fanins[0]
        c = simple.add_pi("c")
        simple.replace_fanin(gate, a, c)
        assert simple.node(gate).fanins == (c, b)
        simple.validate()

    def test_replace_missing_fanin_raises(self, simple):
        gate = simple.node(simple.pos[0]).fanins[0]
        with pytest.raises(NetworkError):
            simple.replace_fanin(gate, 999, simple.pis[0])

    def test_replace_fanin_rejects_a_po(self, simple):
        a, _ = simple.pis
        gate = simple.node(simple.pos[0]).fanins[0]
        spare = simple.add_po(a, "spare")
        with pytest.raises(NetworkError,
                           match="a PO node cannot be used as a fanin"):
            simple.replace_fanin(gate, a, spare)
        assert a in simple.node(gate).fanins
        simple.validate()

    def test_remove_unused(self):
        net = LogicNetwork()
        a = net.add_pi("a")
        b = net.add_pi("b")
        used = net.add_and(a, b)
        net.add_or(a, b)  # dangling
        net.add_po(used, "o")
        removed = net.remove_unused()
        assert removed == 1
        net.validate()
        # PIs always retained
        assert len(net.pis) == 2

        # Many POs share one deep chain; a dead chain hangs off it.
        net = LogicNetwork()
        a = net.add_pi("a")
        b = net.add_pi("b")
        net.add_pi("unused_pi")
        g = net.add_and(a, b)
        chain = [g]
        for i in range(200):
            g = net.add_or(g, a if i % 2 else b)
            chain.append(g)
        d = net.add_and(chain[100], b)
        dead = [d]
        for _ in range(5):
            d = net.add_or(d, a)
            dead.append(d)
        pos = [net.add_po(chain[-1 - 3 * i], f"o{i}") for i in range(40)]
        expect = set(net.pis) | set(pos)
        for p in pos:
            expect |= net.transitive_fanin(p)
        before = [u for u in net.node_ids if u in expect]
        removed = net.remove_unused()
        assert removed == len(dead)
        assert list(net.node_ids) == before
        assert len(net.pis) == 3
        net.validate()

    def test_copy_is_independent(self, simple):
        dup = simple.copy()
        dup.add_pi("z")
        assert len(dup) == len(simple) + 1
        assert [n.uid for n in simple] == sorted(simple.node_ids)


class TestValidation:
    def test_validate_passes(self, simple):
        simple.validate()

    def test_mappable_detection(self, simple):
        assert simple.is_mappable()
        simple.add_inv(simple.pis[0])
        assert not simple.is_mappable()

    def test_mappable_allows_const_po(self):
        net = LogicNetwork()
        net.add_pi("a")
        c = net.add_const(True)
        net.add_po(c, "o")
        assert net.is_mappable()

    def test_const_feeding_gate_not_mappable(self):
        net = LogicNetwork()
        a = net.add_pi("a")
        c = net.add_const(True)
        net.add_po(net.add_and(a, c), "o")
        assert not net.is_mappable()

    def test_count_by_type(self, simple):
        assert simple.count(NodeType.AND) == 1
        assert simple.count(NodeType.PI) == 2
        assert simple.count(NodeType.OR) == 0
