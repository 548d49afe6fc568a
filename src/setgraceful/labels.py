"""Ground-set subsets encoded as fixed-width bit-vectors, and the grammar of
graph and labeling files.

A label is a subset of the ground set X = {x0, ..., x_{m-1}}, stored as a
non-negative integer whose bit i records membership of x_i.  The label
universe for ground size m is range(2**m), the value 0 is the empty set,
and the symmetric difference of two labels is their XOR, written inline as
``a ^ b``.  This module holds the ground-size cap, the search modes, the
one rule for counts (`check_count`), and what both file formats share:
``#`` starts a comment, fields are separated by whitespace, numbers are
naturals in ASCII decimal digits (`content_lines`, `parse_natural`), labels
among them (`parse_label`), and a malformed line raises `ParseError` with
its number.
"""

from __future__ import annotations

from typing import Iterable, Iterator

# The searcher keeps occupancy bitsets with one slot per label, i.e. 2**m
# bits, so the ground size has to stay at desk scale.
MAX_GROUND_SIZE = 30

# The search modes.  Defined here rather than in `search`, so that the CLI
# can offer them without loading the engine.
MODES = ("first", "count", "all")


def check_count(value: int, name: str, least: int = 0) -> int:
    """Return value unchanged, or raise ValueError naming it unless it is an int >= least.

    least is 0 (the value must be non-negative) or 1 (it must be positive).
    """
    # One type test: it also refuses bool, an int subclass whose True is no count.
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be {'positive' if least else 'non-negative'}, got {value}")
    return value


def check_ground_size(m: int) -> int:
    """Return m unchanged, or raise ValueError if it is not a usable ground size."""
    check_count(m, "ground size")
    if m > MAX_GROUND_SIZE:
        raise ValueError(f"ground size {m} exceeds the supported cap {MAX_GROUND_SIZE}")
    return m


class ParseError(ValueError):
    """Malformed graph or labeling file; carries the offending 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def content_lines(stream: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, fields) for each line holding more than a ``#`` comment."""
    for lineno, raw in enumerate(stream, start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield lineno, fields


def parse_natural(text: str) -> int:
    """The natural number that text writes in ASCII decimal digits.

    Unlike int(), this takes no sign, no "_" between digits, no whitespace
    and no non-ASCII digit; anything else raises ValueError.
    """
    # Stripping the digits from both ends leaves nothing only if every character is one.
    if not text or text.strip("0123456789"):
        raise ValueError(f"expected a natural number, got {text!r}")
    return int(text)


def parse_label(text: str, m: int) -> int:
    """Parse a label literal, a natural in ASCII decimal digits (`parse_natural`).

    Raises ValueError for malformed input and for values outside the label
    universe of ground size m.
    """
    check_ground_size(m)
    try:
        value = parse_natural(text)
    except ValueError:
        raise ValueError(f"not a label literal: {text!r}") from None
    if value >= 1 << m:
        raise ValueError(
            f"label {value} out of range for ground size m={m} (must be < 2^{m} = {1 << m})"
        )
    return value
