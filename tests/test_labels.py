"""Bit-vector label encoding: symmetric difference as the edge label, parsing,
the grammar graph and labeling files share, and the decimal form labeling
files are written in."""

import io
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setgraceful.graph import Graph, make_path, read_graph
from setgraceful.labeling import Labeling, edge_labels, read_labeling, write_labeling
from setgraceful.labels import (
    MAX_GROUND_SIZE, ParseError, check_ground_size, content_lines, parse_label, parse_natural)

K2 = Graph(2, ((0, 1),))

labels_with_m = st.integers(0, 10).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, (1 << m) - 1), st.integers(0, (1 << m) - 1))
)


def sym_diff(m, a, b):
    """The symmetric difference of labels a and b, as the label of an edge between them."""
    (label,) = edge_labels(K2, Labeling(m, (a, b)))
    return label


def test_sym_diff_elementwise():
    assert sym_diff(3, 0b011, 0b110) == 0b101


def test_sym_diff_self_cancels():
    assert sym_diff(4, 13, 13) == 0


def test_sym_diff_identity_element():
    # An endpoint at the empty label passes the other endpoint's label to the edge.
    assert sym_diff(4, 9, 0) == 9


@given(labels_with_m)
def test_sym_diff_commutative(t):
    m, a, b = t
    assert sym_diff(m, a, b) == sym_diff(m, b, a)


@given(st.integers(0, 2**20), st.integers(0, 2**20), st.integers(0, 2**20))
def test_sym_diff_associative(a, b, c):
    # Along the path a - b - c the middle label cancels: the two edge labels
    # combine to the symmetric difference of the end labels.
    ab, bc = edge_labels(make_path(3), Labeling(21, (a, b, c)))
    assert ab ^ bc == sym_diff(21, a, c)


@given(labels_with_m)
def test_sym_diff_zero_iff_equal(t):
    # So distinct vertex labels never give an edge the empty label.
    m, a, b = t
    assert (sym_diff(m, a, b) == 0) == (a == b)


def test_parse_binary():
    assert parse_label("0b101", 3) == 5


def test_parse_bare_padded_binary():
    # A bare string of exactly m binary digits reads as zero-padded binary.
    assert parse_label("101", 3) == 5
    assert parse_label("0010", 4) == 2
    assert parse_label("0011", 4) == 3
    # Without the exact-width cue it is decimal.
    assert parse_label("101", 7) == 101


def test_parse_decimal():
    assert parse_label("3", 2) == 3


def test_parse_out_of_range_names_m():
    with pytest.raises(ValueError, match="m=2"):
        parse_label("4", 2)


# int() reads "1_0", "+1", "0b1_1", "\u0663" (an Arabic-Indic three),
# "-1_0" and "-0" as numbers; a label literal takes ASCII digits only.
@pytest.mark.parametrize("bad", ["", "abc", "0x5", "-1", "0b2", "1_0", "+1",
                                 "0b1_1", "\u0663", "-1_0", "-0", "0b", "- 1"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_label(bad, 4)


def test_parse_natural_takes_ascii_digits_only():
    assert [parse_natural("007"), parse_natural("101"), parse_natural("0101", 2)] == [7, 101, 5]
    for text in ["", "-1", "+1", "1_0", " 1", "1.0", "\u0663", "\uff11", "0x1"]:
        with pytest.raises(ValueError, match="expected a natural number"):
            parse_natural(text)
    with pytest.raises(ValueError):
        parse_natural("012", 2)


def test_content_lines_drop_comments_and_blank_lines():
    text = "# head\n\n vertices  3 # n\n#\n0\t1\n   \n"
    assert list(content_lines(io.StringIO(text))) == [(3, ["vertices", "3"]), (5, ["0", "1"])]


def test_parse_errors_share_one_class():
    # Both readers raise exactly ParseError, a ValueError naming the line.
    for read, text in ((read_graph, "0 1\n1 2\n# note\n2 x\n"),
                       (read_labeling, "m 2\n0 0\n1 1\n2 z\n")):
        with pytest.raises(ParseError) as info:
            read(io.StringIO(text))
        assert type(info.value) is ParseError and isinstance(info.value, ValueError)
        assert info.value.lineno == 4 and str(info.value).startswith("line 4: ")


def test_format_int():
    buf = io.StringIO()
    write_labeling(Labeling(3, (7, 0)), buf)
    assert buf.getvalue() == "m 3\n0 7\n1 0\n"


def test_format_rejects_out_of_range():
    # The writer prints values as they are: Labeling has range-checked them.
    with pytest.raises(ValueError, match="label 8 at vertex 0 out of range"):
        write_labeling(Labeling(3, (8,)), io.StringIO())


@given(st.integers(0, MAX_GROUND_SIZE).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, (1 << m) - 1))
))
def test_parse_format_roundtrip(t):
    m, v = t
    assert parse_label(str(v), m) == v
    assert parse_label(format(v, f"0{max(m, 1)}b"), m) == v


def test_ground_size_cap():
    check_ground_size(0)
    check_ground_size(MAX_GROUND_SIZE)
    with pytest.raises(ValueError):
        check_ground_size(-1)
    with pytest.raises(ValueError):
        check_ground_size(MAX_GROUND_SIZE + 1)


@pytest.mark.parametrize("m", [3.0, True, "3", None])
def test_ground_size_must_be_int(m):
    # 3.0 used to fail inside 1 << m with a TypeError, and True was taken
    # for m = 1 and written as "m True", which read_labeling refuses.
    message = re.escape(f"ground size must be an int, got {m!r}")
    with pytest.raises(ValueError, match=message):
        check_ground_size(m)
    with pytest.raises(ValueError, match=message):
        Labeling(m, (0, 1))
