"""Property-based tests (hypothesis) over the core pipeline.

Random boolean expressions drive the whole flow (decompose -> sweep ->
unate -> map -> transistor circuit) and random structure trees drive the
PBE analysis; the invariants checked here are the ones the paper's
optimality argument rests on.
"""

from __future__ import annotations

import heapq

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.domino import Leaf, analyse, parallel, rearrange, series
from repro.mapping import (
    CostModel,
    MapperConfig,
    MappingEngine,
    domino_map,
    prepare_network,
    rs_map,
    soi_domino_map,
)
from repro.errors import NetworkError
from repro.network import LogicNetwork, NodeType, network_from_expression
from repro.sim import check_circuit_against_network
from repro.synth import check_unate_equivalent

# --------------------------------------------------------------------------
# expression strategy
# --------------------------------------------------------------------------
_VARS = list("abcdef")


def _exprs(depth: int):
    if depth == 0:
        return st.sampled_from(_VARS)
    sub = _exprs(depth - 1)
    return st.one_of(
        st.sampled_from(_VARS),
        st.tuples(sub, sub).map(lambda t: f"({t[0]} * {t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"({t[0]} + {t[1]})"),
        sub.map(lambda s: f"!({s})"),
    )


EXPRESSIONS = _exprs(4)


@settings(max_examples=40, deadline=None)
@given(EXPRESSIONS)
def test_unate_conversion_preserves_function(expr):
    net = network_from_expression(expr)
    unate, _ = prepare_network(net)
    assert unate.is_mappable()
    assert check_unate_equivalent(net, unate, vectors=128) is None


@settings(max_examples=25, deadline=None)
@given(EXPRESSIONS)
def test_all_three_flows_preserve_function(expr):
    net = network_from_expression(expr)
    for flow in (domino_map, rs_map, soi_domino_map):
        circuit = flow(net).circuit
        assert check_circuit_against_network(circuit, net,
                                             vectors=128) is None


@settings(max_examples=25, deadline=None)
@given(EXPRESSIONS)
def test_soi_discharge_never_exceeds_baseline(expr):
    net = network_from_expression(expr)
    base = domino_map(net).cost
    soi = soi_domino_map(net).cost
    assert soi.t_disch <= base.t_disch
    assert soi.t_total <= base.t_total


@settings(max_examples=25, deadline=None)
@given(EXPRESSIONS, st.integers(min_value=2, max_value=4),
       st.integers(min_value=2, max_value=6))
def test_limits_always_respected(expr, w_max, h_max):
    net = network_from_expression(expr)
    unate, _ = prepare_network(net)
    engine = MappingEngine(unate, CostModel(),
                           MapperConfig(w_max=w_max, h_max=h_max))
    result = engine.run()
    for gate in result.circuit.gates:
        assert gate.width <= w_max
        assert gate.height <= h_max


# --------------------------------------------------------------------------
# structure strategy
# --------------------------------------------------------------------------
_sigs = st.integers(min_value=0, max_value=40).map(lambda i: Leaf(f"s{i}"))

STRUCTURES = st.recursive(
    _sigs,
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda c: series(*c)),
        st.lists(children, min_size=2, max_size=3).map(lambda c: parallel(*c)),
    ),
    max_leaves=12,
)


@settings(max_examples=120, deadline=None)
@given(STRUCTURES)
def test_analysis_point_sets_disjoint(structure):
    analysis = analyse(structure)
    assert not set(analysis.committed) & set(analysis.potential)


@settings(max_examples=120, deadline=None)
@given(STRUCTURES)
def test_analysis_points_bounded_by_junctions(structure):
    analysis = analyse(structure)
    # a structure with n transistors has at most n-1 junction points
    assert (len(analysis.committed) + len(analysis.potential)
            <= max(0, structure.num_transistors - 1))


@settings(max_examples=120, deadline=None)
@given(STRUCTURES)
def test_rearrange_is_improving_and_stable(structure):
    out = rearrange(structure)
    assert out.num_transistors == structure.num_transistors
    assert out.width == structure.width
    assert out.height == structure.height
    before = len(analyse(structure).required(True))
    after = len(analyse(out).required(True))
    assert after <= before
    assert rearrange(out) == out


def _tail_potentials(structure) -> int:
    """Potential points inside the trailing parallel stack of ``structure``
    (what the mapper tracks as ``p_tail``)."""
    from repro.domino.structure import Parallel, Series

    analysis = analyse(structure)
    if isinstance(structure, Parallel):
        return analysis.p_dis
    if isinstance(structure, Series) and structure.ends_in_parallel:
        bottom_index = len(structure.children) - 1
        return sum(1 for path, _ in analysis.potential
                   if path[:1] == (bottom_index,))
    return 0


@settings(max_examples=120, deadline=None)
@given(STRUCTURES)
def test_combine_and_arithmetic_matches_structural_analysis(structure):
    """The mapper's incremental AND bookkeeping (paper section V, with the
    flattened-spine refinement documented in DESIGN.md) must agree with
    the from-scratch structural analysis when `structure` is stacked on
    top of a fresh transistor: a parallel-ending top commits its tail
    points plus the new junction; a series-ending top commits nothing and
    gains one spine junction."""
    top = analyse(structure)
    tail = _tail_potentials(structure)
    stacked = series(structure, Leaf("bottom"))
    combined = analyse(stacked)
    if structure.ends_in_parallel:
        expected_committed = len(top.committed) + tail + 1
        expected_potential = (top.p_dis - tail)
    else:
        expected_committed = len(top.committed)
        expected_potential = top.p_dis + 1
    assert len(combined.committed) == expected_committed
    assert combined.p_dis == expected_potential


# --------------------------------------------------------------------------
# topological order: the ascending-id fast path against a heap walk
# --------------------------------------------------------------------------
def _reference_order(net):
    """Min-id-first Kahn walk, independent of ``LogicNetwork``'s own."""
    fanouts = {n.uid: [] for n in net}
    indeg = {}
    for n in net:
        indeg[n.uid] = len(n.fanins)
        for f in n.fanins:
            fanouts[f].append(n.uid)
    ready = [u for u, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in fanouts[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    return order


def _downstream(net, uid):
    """Ids whose transitive fanin contains ``uid`` (``uid`` included)."""
    return {n.uid for n in net if uid in net.transitive_fanin(n.uid)}


@st.composite
def _networks(draw):
    """A random AND/OR/INV network; returns ``(net, signals, gates)``."""
    net = LogicNetwork("random")
    signals = [net.add_pi(f"i{k}") for k in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from((NodeType.AND, NodeType.OR,
                                     NodeType.INV)))
        if kind is NodeType.INV:
            fanins = [draw(st.sampled_from(signals))]
        else:
            fanins = draw(st.lists(st.sampled_from(signals),
                                   min_size=1, max_size=3))
        signals.append(net.add_gate(kind, fanins))
    for uid in draw(st.lists(st.sampled_from(signals), min_size=1,
                             max_size=3)):
        net.add_po(uid)
    gates = [u for u in signals if net.node(u).fanins]
    return net, signals, gates


@settings(max_examples=150, deadline=None)
@given(_networks(), st.data())
def test_topological_order_matches_a_min_heap_walk(built, data):
    net, signals, gates = built
    assert net.topological_order() == _reference_order(net)
    # Rewire fanins to later nodes: each such edge runs from a higher id
    # to a lower one, so the ascending-id shortcut no longer applies.
    for _ in range(data.draw(st.integers(0, 3))):
        uid = data.draw(st.sampled_from(gates))
        below = _downstream(net, uid)
        later = [s for s in signals if s > uid and s not in below]
        if not later:
            continue
        old = data.draw(st.sampled_from(net.node(uid).fanins))
        net.replace_fanin(uid, old, data.draw(st.sampled_from(later)))
        order = net.topological_order()
        assert order == _reference_order(net)
        assert sorted(order) == sorted(net.node_ids)


@settings(max_examples=80, deadline=None)
@given(_networks(), st.data())
def test_replace_fanin_cycle_raises(built, data):
    net, signals, gates = built
    uid = data.draw(st.sampled_from(gates))
    cycle_end = data.draw(st.sampled_from(
        sorted(s for s in _downstream(net, uid) if s in signals)))
    old = data.draw(st.sampled_from(net.node(uid).fanins))
    net.replace_fanin(uid, old, cycle_end)
    with pytest.raises(NetworkError, match="cycle"):
        net.topological_order()
