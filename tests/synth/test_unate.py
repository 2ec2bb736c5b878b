"""Tests for bubble-pushing unate conversion."""

import pytest

from repro.errors import UnateConversionError
from repro.network import LogicNetwork, NodeType, network_from_expression
from repro.synth import (
    check_unate_equivalent,
    decompose,
    sweep,
    unate_convert,
    unate_with_sweep,
)

from ..conftest import make_random_network


def _convert(expr):
    net = network_from_expression(expr)
    unate, report = unate_convert(sweep(decompose(net)))
    return net, unate, report


class TestBasics:
    def test_already_unate_unchanged(self):
        net, unate, report = _convert("a * b + c")
        assert unate.is_mappable()
        assert report.negated_pis == 0
        assert report.duplicated_nodes == 0
        assert check_unate_equivalent(net, unate) is None

    def test_single_inverter_absorbed_at_pi(self):
        net, unate, report = _convert("!a * b")
        assert unate.is_mappable()
        assert report.negated_pis == 1
        labels = {unate.node(u).label for u in unate.pis}
        assert "a_bar" in labels
        assert check_unate_equivalent(net, unate) is None

    def test_demorgan_applied(self):
        net, unate, report = _convert("!(a * b)")
        # NOT(AND) becomes OR of complemented inputs
        assert unate.count(NodeType.OR) == 1
        assert unate.count(NodeType.AND) == 0
        assert check_unate_equivalent(net, unate) is None

    def test_duplication_when_both_phases_needed(self):
        # g = a*b used positively and negatively
        net = network_from_expression("(a * b) * c + !(a * b) * d")
        cleaned = sweep(decompose(net))
        unate, report = unate_convert(cleaned)
        assert report.duplicated_nodes >= 1
        assert check_unate_equivalent(net, unate) is None

    def test_xor_converts(self):
        net = network_from_expression("(!a * b + a * !b)")
        cleaned = sweep(decompose(net))
        unate, report = unate_convert(cleaned)
        assert unate.is_mappable()
        assert check_unate_equivalent(net, unate) is None

    def test_gate_count_at_most_doubles(self):
        for seed in range(8):
            net = make_random_network(seed)
            cleaned = sweep(decompose(net))
            unate, report = unate_convert(cleaned)
            assert report.duplication_ratio <= 2.0 + 1e-9

    def test_depth_not_increased(self):
        for seed in range(8):
            net = make_random_network(seed)
            cleaned = sweep(decompose(net))
            unate, report = unate_convert(cleaned)
            assert report.unate_depth <= report.original_depth

    def test_requires_decomposed_input(self):
        net = LogicNetwork()
        a = net.add_pi("a")
        b = net.add_pi("b")
        net.add_po(net.add_gate(NodeType.NAND, (a, b)), "o")
        with pytest.raises(UnateConversionError):
            unate_convert(net)


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_networks_equivalent(self, seed):
        net = make_random_network(seed, n_gates=30)
        cleaned = sweep(decompose(net))
        unate, _ = unate_with_sweep(cleaned)
        assert unate.is_mappable()
        assert check_unate_equivalent(net, unate, vectors=256) is None

    def test_swept_result_mappable(self):
        net = make_random_network(3)
        unate, _ = unate_with_sweep(sweep(decompose(net)))
        unate.validate()
        assert unate.is_mappable()


def _depth(network):
    """AND/OR depth recomputed from scratch (inverters are free)."""
    level = {}
    for uid in network.topological_order():
        node = network.node(uid)
        bump = 1 if node.type in (NodeType.AND, NodeType.OR) else 0
        level[uid] = bump + max((level[f] for f in node.fanins), default=0)
    return max((level[p] for p in network.pos), default=0)


def _gates(network):
    return sum(1 for n in network if n.type in (NodeType.AND, NodeType.OR))


@pytest.mark.parametrize("name", ["mux", "cm150", "z4ml", "c432", "9symml"])
def test_reports_keep_every_field_on_registry_circuits(name, monkeypatch):
    """Each depth is computed where it is reported, and only there."""
    import repro.synth.unate as unate_module
    from repro.bench_suite import load_circuit

    cleaned = sweep(decompose(load_circuit(name)))
    unate, report = unate_convert(cleaned)
    assert report.unate_depth == _depth(unate)
    assert report.original_depth == _depth(cleaned)
    assert report.unate_gates == _gates(unate)
    assert report.original_gates == _gates(cleaned)

    walks = []
    real = unate_module._andor_depth

    def counted(network):
        walks.append(network)
        return real(network)

    monkeypatch.setattr(unate_module, "_andor_depth", counted)
    swept, swept_report = unate_with_sweep(cleaned)
    # the pre-sweep network's depth is never walked: one walk for the
    # input, one for the swept result
    assert len(walks) == 2
    assert swept_report.unate_depth == _depth(swept)
    assert swept_report.unate_gates == _gates(swept)
    for field in ("original_gates", "duplicated_nodes", "negated_pis",
                  "original_depth"):
        assert getattr(swept_report, field) == getattr(report, field)
