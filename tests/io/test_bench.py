"""Tests for the ISCAS .bench reader/writer."""

import io

import pytest

from repro.errors import ParseError
from repro.io import read_bench, write_bench
from repro.network import NodeType, network_from_expression
from repro.sim import assert_equivalent, truth_table


SAMPLE = """
# c17-like sample
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G6)
G4 = NAND(G1, G2)
G5 = NOT(G3)
G6 = OR(G4, G5)
"""


def test_parse_sample():
    net = read_bench(SAMPLE, name="sample")
    assert len(net.pis) == 3
    assert len(net.pos) == 1
    assert net.count(NodeType.NAND) == 1
    assert net.count(NodeType.INV) == 1


def test_declaration_order_independent():
    reordered = """
    INPUT(a)
    INPUT(b)
    OUTPUT(f)
    f = AND(g, b)
    g = OR(a, b)
    """
    net = read_bench(reordered)
    net.validate()
    assert net.count(NodeType.AND) == 1


def test_dff_cut_into_pseudo_io():
    text = """
    INPUT(a)
    OUTPUT(f)
    q = DFF(d)
    d = AND(a, q)
    f = OR(q, a)
    """
    net = read_bench(text)
    labels_pi = {net.node(u).label for u in net.pis}
    labels_po = {net.node(u).label for u in net.pos}
    assert labels_pi == {"a", "q"}
    assert labels_po == {"f", "q_next"}
    net.validate()


def test_comments_and_blanks_ignored():
    net = read_bench("# c\n\nINPUT(a)\nOUTPUT(f)\nf = BUFF(a)  # out\n")
    assert len(net) == 3


@pytest.mark.parametrize("bad", [
    "f = FROB(a)",
    "INPUT(a)\nf = AND(a, missing)\nOUTPUT(f)",
    "INPUT(a)\nf = AND(a)\nf = OR(a)\nOUTPUT(f)",
    "what is this line",
])
def test_bad_input_raises(bad):
    with pytest.raises(ParseError):
        read_bench(bad)


def test_cycle_detected():
    text = "INPUT(a)\nOUTPUT(f)\nf = AND(g, a)\ng = OR(f, a)\n"
    with pytest.raises(ParseError, match="cycle"):
        read_bench(text)


def test_roundtrip_equivalent():
    net = network_from_expression("!(a * b) + (c + !d) * a", name="rt")
    buf = io.StringIO()
    write_bench(net, buf)
    back = read_bench(buf.getvalue(), name="rt")
    assert_equivalent(net, back)


def test_roundtrip_all_gate_types():
    text = """
    INPUT(a)
    INPUT(b)
    OUTPUT(f)
    g1 = NAND(a, b)
    g2 = NOR(a, b)
    g3 = XOR(g1, g2)
    g4 = XNOR(g3, a)
    g5 = NOT(g4)
    f = AND(g5, b)
    """
    net = read_bench(text, name="types")
    buf = io.StringIO()
    write_bench(net, buf)
    back = read_bench(buf.getvalue(), name="types")
    assert truth_table(net) == truth_table(back)


@pytest.mark.parametrize("text, line", [
    ("INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", 2),
    ("INPUT(a)\nOUTPUT(y)\na = DFF(y)\ny = NOT(a)\n", 3),
    ("INPUT(a)\nINPUT(b)\nOUTPUT(y)\na = AND(b, b)\ny = NOT(a)\n", 4),
    ("INPUT(b)\nOUTPUT(y)\na = DFF(y)\na = AND(b, b)\ny = NOT(a)\n", 4),
], ids=["input-twice", "dff-output-shadows-input", "gate-shadows-input",
        "gate-shadows-dff-output"])
def test_repeated_input_name_raises(text, line):
    with pytest.raises(ParseError, match="'a' defined twice") as info:
        read_bench(text)
    assert info.value.lineno == line


@pytest.mark.parametrize("text, name, line", [
    ("INPUT(a)\nOUTPUT(y)\nOUTPUT(y)\ny = NOT(a)\n", "y", 3),
    ("INPUT(a)\nOUTPUT(q_next)\nq = DFF(a)\nq_next = NOT(q)\n",
     "q_next", 3),
    ("INPUT(a)\nq = DFF(a)\nOUTPUT(q_next)\nq_next = NOT(q)\n",
     "q_next", 3),
], ids=["output-twice", "dff-pseudo-output-after", "dff-pseudo-output-first"])
def test_repeated_output_name_raises(text, name, line):
    with pytest.raises(ParseError,
                       match=f"output '{name}' defined twice") as info:
        read_bench(text)
    assert info.value.lineno == line
