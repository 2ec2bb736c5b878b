"""Tests for the PLA reader."""

import pytest

from repro.errors import ParseError
from repro.io import read_pla
from repro.sim import evaluate_by_name, truth_table


def test_basic_cover():
    net = read_pla(""".i 2
.o 1
.ilb a b
.ob f
11 1
00 1
.e
""")
    assert truth_table(net)["f"] == 0b1001  # XNOR


def test_dont_cares_and_multiple_outputs():
    net = read_pla(""".i 3
.o 2
1-- 10
-11 01
.e
""")
    out = evaluate_by_name(net, {"in0": True, "in1": False, "in2": False})
    assert out["out0"] is True
    assert out["out1"] is False
    out = evaluate_by_name(net, {"in0": False, "in1": True, "in2": True})
    assert out["out1"] is True


def test_default_labels():
    net = read_pla(".i 2\n.o 1\n11 1\n.e\n")
    assert {net.node(u).label for u in net.pis} == {"in0", "in1"}


def test_empty_onset_is_constant_zero():
    net = read_pla(".i 2\n.o 1\n11 0\n.e\n")
    assert truth_table(net)["out0"] == 0


def test_tautology_cube():
    net = read_pla(".i 2\n.o 1\n-- 1\n.e\n")
    assert truth_table(net)["out0"] == 0b1111


@pytest.mark.parametrize("bad", [
    "11 1\n.e\n",                 # cube before .i/.o
    ".i 2\n.o 1\n111 1\n.e\n",    # wrong width
    ".i 2\n.o 1\n1x 1\n.e\n",     # bad character
    ".i 2\n.foobar\n.e\n",        # unknown directive
    ".e\n",                       # missing declarations
])
def test_bad_pla_raises(bad):
    with pytest.raises(ParseError):
        read_pla(bad)


def test_output_plane_only_one_is_on_set():
    # espresso's '2' is a don't-care output: the cube stays off the on-set
    net = read_pla(".i 1\n.o 1\n1 2\n.e\n")
    assert truth_table(net)["out0"] == 0
    for char in "0~-":
        net = read_pla(f".i 1\n.o 1\n1 {char}\n0 1\n.e\n")
        assert truth_table(net)["out0"] == 0b01  # only the `0 1` row


def test_bad_output_plane_character_raises_with_its_line():
    with pytest.raises(ParseError, match="'x'") as info:
        read_pla(".i 1\n.o 1\n1 2\n0 x\n.e\n")
    assert info.value.lineno == 4


def test_repeated_input_label_raises():
    with pytest.raises(ParseError, match="'a' defined twice") as info:
        read_pla(".i 2\n.o 1\n.ilb a a\n11 1\n.e\n")
    assert info.value.lineno == 3


def test_repeated_output_label_raises():
    with pytest.raises(ParseError, match="output 'y' defined twice") as info:
        read_pla(".i 1\n.o 2\n.ob y y\n1 11\n.e\n")
    assert info.value.lineno == 3
