"""Bit-vector label encoding: symmetric difference, parsing, formatting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setgraceful.labels import (
    MAX_GROUND_SIZE,
    check_ground_size,
    format_label,
    parse_label,
    sym_diff,
)

labels_with_m = st.integers(0, 10).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, (1 << m) - 1), st.integers(0, (1 << m) - 1))
)


def test_sym_diff_elementwise():
    assert sym_diff(0b011, 0b110) == 0b101


def test_sym_diff_self_cancels():
    assert sym_diff(13, 13) == 0


def test_sym_diff_identity_element():
    assert sym_diff(9, 0) == 9


@given(labels_with_m)
def test_sym_diff_commutative(t):
    _, a, b = t
    assert sym_diff(a, b) == sym_diff(b, a)


@given(st.integers(0, 2**20), st.integers(0, 2**20), st.integers(0, 2**20))
def test_sym_diff_associative(a, b, c):
    assert sym_diff(sym_diff(a, b), c) == sym_diff(a, sym_diff(b, c))


@given(labels_with_m)
def test_sym_diff_zero_iff_equal(t):
    _, a, b = t
    assert (sym_diff(a, b) == 0) == (a == b)


def test_parse_binary():
    assert parse_label("0b101", 3) == 5


def test_parse_bare_padded_binary():
    # The zero-padded form format_label emits reads back as binary.
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


@pytest.mark.parametrize("bad", ["", "abc", "0x5", "-1", "0b2"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_label(bad, 4)


def test_format_binary_padded():
    assert format_label(5, 3, "binary") == "101"
    assert format_label(1, 4, "binary") == "0001"


def test_format_set_notation():
    assert format_label(0, 2, "set") == "{}"
    assert format_label(5, 3, "set") == "{x0,x2}"


def test_format_int():
    assert format_label(7, 3, "int") == "7"


def test_format_rejects_out_of_range():
    with pytest.raises(ValueError):
        format_label(8, 3, "int")


def test_format_rejects_unknown_style():
    with pytest.raises(ValueError):
        format_label(1, 3, "hex")


@given(st.integers(0, MAX_GROUND_SIZE).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, (1 << m) - 1))
))
def test_parse_format_roundtrip(t):
    m, v = t
    assert parse_label(format_label(v, m, "int"), m) == v
    assert parse_label(format_label(v, m, "binary"), m) == v


def test_ground_size_cap():
    check_ground_size(0)
    check_ground_size(MAX_GROUND_SIZE)
    with pytest.raises(ValueError):
        check_ground_size(-1)
    with pytest.raises(ValueError):
        check_ground_size(MAX_GROUND_SIZE + 1)
