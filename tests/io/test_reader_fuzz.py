"""Fuzzed BLIF, ``.bench`` and PLA input: a reader raises ParseError or
returns a valid network, and nothing else.

Each strategy draws lines from the format's own vocabulary (directives,
gate keywords, cube rows, names, stray punctuation) so that most inputs
get deep into the reader, plus fully random text.  A file that fails to
parse leaves no entry in the runner's network memo, and the corrected
file then loads and maps.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import ParseError
from repro.io import read_bench, read_blif, read_pla
from repro.network import LogicNetwork
from repro.pipeline.runner import (
    BatchTask,
    clear_network_memo,
    execute_task,
    network_memo_stats,
)

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

NAMES = st.sampled_from(["a", "b", "c", "y", "z", "a_next", "0", "1"])
JUNK = st.sampled_from(["", "\\", "#", "(", ")", ",", "=", "x", "-1",
                        "2", "9999999999", "\t", "\x0b"])


def _lines(line):
    return st.lists(st.one_of(line, JUNK, st.text(max_size=8)),
                    max_size=12).map("\n".join)


BLIF_LINE = st.one_of(
    st.tuples(st.sampled_from([".model", ".inputs", ".outputs", ".names",
                               ".latch", ".end", ".clock", ".exdc"]),
              st.lists(st.one_of(NAMES, JUNK), max_size=4)
              ).map(lambda t: " ".join([t[0], *t[1]])),
    st.tuples(st.text(alphabet="01-2x", max_size=4),
              st.sampled_from(["0", "1", "2", "", "1 1"])
              ).map(" ".join),
    st.sampled_from(["0", "1", "\\", "a \\"]),
)

BENCH_LINE = st.one_of(
    st.tuples(st.sampled_from(["INPUT", "OUTPUT", "input", "WIRE"]),
              st.one_of(NAMES, JUNK)).map(lambda t: f"{t[0]}({t[1]})"),
    st.tuples(NAMES,
              st.sampled_from(["AND", "or", "NAND", "NOR", "XOR", "XNOR",
                               "NOT", "BUF", "BUFF", "DFF", "MUX", ""]),
              st.lists(st.one_of(NAMES, JUNK), max_size=4)
              ).map(lambda t: f"{t[0]} = {t[1]}({', '.join(t[2])})"),
)

PLA_LINE = st.one_of(
    st.tuples(st.sampled_from([".i", ".o", ".ilb", ".ob", ".p", ".type",
                               ".e", ".end", ".kiss"]),
              st.lists(st.one_of(NAMES, JUNK), max_size=4)
              ).map(lambda t: " ".join([t[0], *t[1]])),
    st.tuples(st.text(alphabet="01-x", max_size=4),
              st.text(alphabet="01-~4", max_size=3)).map(" ".join),
)


def _parses_or_raises_parse_error(reader, text):
    try:
        network = reader(text)
    except ParseError:
        return
    assert isinstance(network, LogicNetwork)
    network.validate()


@FUZZ
@given(_lines(BLIF_LINE))
def test_blif_reader_raises_only_parse_error(text):
    _parses_or_raises_parse_error(read_blif, text)


@FUZZ
@given(_lines(BENCH_LINE))
def test_bench_reader_raises_only_parse_error(text):
    _parses_or_raises_parse_error(read_bench, text)


@FUZZ
@given(_lines(PLA_LINE))
def test_pla_reader_raises_only_parse_error(text):
    _parses_or_raises_parse_error(read_pla, text)


@pytest.mark.parametrize("reader", [read_blif, read_bench, read_pla])
@FUZZ
@given(st.text(max_size=200))
def test_random_text_raises_only_parse_error(reader, text):
    _parses_or_raises_parse_error(reader, text)


@pytest.mark.parametrize("suffix, broken, fixed", [
    (".blif",
     ".model t\n.inputs a b\n.outputs y\n.names a b y\n1x 1\n.end\n",
     ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"),
    (".bench",
     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n",
     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n"),
    (".pla",
     ".i two\n.o 1\n11 1\n.e\n",
     ".i 2\n.o 1\n11 1\n.e\n"),
])
def test_failed_parse_leaves_no_memo_entry(tmp_path, suffix, broken, fixed):
    path = tmp_path / f"toy{suffix}"
    path.write_text(broken)
    clear_network_memo()
    try:
        result = execute_task(BatchTask(str(path), flow="soi"))
        assert result.error is not None
        assert result.error.startswith("ParseError")
        assert network_memo_stats()["entries"] == 0
        path.write_text(fixed)
        result = execute_task(BatchTask(str(path), flow="soi"))
        assert result.error is None
        assert result.digest is not None
        assert network_memo_stats()["entries"] == 1
    finally:
        clear_network_memo()
