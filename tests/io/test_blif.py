"""Tests for the BLIF reader/writer."""

import io

import pytest

from repro.errors import ParseError
from repro.io import read_blif, write_blif
from repro.sim import assert_equivalent, evaluate_by_name, truth_table

from ..conftest import make_random_network

SAMPLE = """
.model demo
.inputs a b c
.outputs f g
.names a b t1
11 1
.names t1 c f
1- 1
-1 1
.names a g
0 1
.end
"""


def test_parse_sample():
    net = read_blif(SAMPLE)
    assert net.name == "demo"
    assert len(net.pis) == 3
    assert len(net.pos) == 2
    out = evaluate_by_name(net, {"a": True, "b": True, "c": False})
    assert out["f"] is True
    assert out["g"] is False


def test_cover_with_dont_cares():
    text = """.model m
.inputs x y z
.outputs o
.names x y z o
1-0 1
01- 1
.end
"""
    net = read_blif(text)
    out = evaluate_by_name(net, {"x": True, "y": False, "z": False})
    assert out["o"] is True
    out = evaluate_by_name(net, {"x": False, "y": False, "z": False})
    assert out["o"] is False


def test_zero_phase_cover_inverted():
    text = """.model m
.inputs a b
.outputs o
.names a b o
11 0
.end
"""
    net = read_blif(text)
    # o = NOT(a AND b)
    assert evaluate_by_name(net, {"a": True, "b": True})["o"] is False
    assert evaluate_by_name(net, {"a": True, "b": False})["o"] is True


def test_constant_covers():
    text = """.model m
.inputs a
.outputs one zero
.names one
1
.names zero
.end
"""
    net = read_blif(text)
    table = truth_table(net)
    assert table["one"] == 0b11
    assert table["zero"] == 0


def test_latch_cut():
    text = """.model m
.inputs a
.outputs f
.latch d q 0
.names a q d
11 1
.names q f
1 1
.end
"""
    net = read_blif(text)
    pi_labels = {net.node(u).label for u in net.pis}
    po_labels = {net.node(u).label for u in net.pos}
    assert pi_labels == {"a", "q"}
    assert po_labels == {"f", "q_next"}


def test_continuation_lines():
    text = ".model m\n.inputs a \\\nb\n.outputs o\n.names a b o\n11 1\n.end\n"
    net = read_blif(text)
    assert len(net.pis) == 2


@pytest.mark.parametrize("bad", [
    ".model m\n.inputs a\n.outputs o\n.names a o\n1 1\n0 0\n.end",  # mixed phase
    ".model m\n.inputs a\n.outputs o\n.names a o\n11 1\n.end",       # cube width
    ".model m\n.inputs a\n.outputs o\nrandom row\n.end",             # stray row
    ".model m\n.inputs a\n.outputs o\n.end",                         # undefined o
])
def test_bad_blif_raises(bad):
    with pytest.raises(ParseError):
        read_blif(bad)


def test_roundtrip_random_networks():
    for seed in range(4):
        net = make_random_network(seed)
        buf = io.StringIO()
        write_blif(net, buf)
        back = read_blif(buf.getvalue(), name=net.name)
        assert_equivalent(net, back, vectors=256)


@pytest.mark.parametrize("body, line", [
    (".inputs a a\n.outputs y\n.names a y\n0 1", 2),
    (".inputs a\n.inputs a\n.outputs y\n.names a y\n0 1", 3),
    (".inputs a b\n.outputs y\n.names b a\n1 1\n.names a y\n0 1", 4),
    (".inputs b\n.outputs y\n.latch y a 0\n.names b a\n1 1\n"
     ".names a y\n0 1", 5),
], ids=["one-line", "two-lines", "cover-shadows-input",
        "cover-shadows-latch-output"])
def test_repeated_input_name_raises(body, line):
    with pytest.raises(ParseError, match="'a' defined twice") as info:
        read_blif(f".model m\n{body}\n.end\n")
    assert info.value.lineno == line


@pytest.mark.parametrize("body, name, line", [
    (".inputs a\n.outputs y y\n.names a y\n1 1", "y", 3),
    (".inputs a\n.outputs y\n.outputs y\n.names a y\n1 1", "y", 4),
    (".inputs a\n.outputs q_next\n.latch n q 0\n.names q n\n0 1\n"
     ".names a q_next\n1 1", "q_next", 4),
], ids=["one-line", "two-lines", "latch-pseudo-output"])
def test_repeated_output_name_raises(body, name, line):
    with pytest.raises(ParseError,
                       match=f"output '{name}' defined twice") as info:
        read_blif(f".model m\n{body}\n.end\n")
    assert info.value.lineno == line
