"""Ground-set subsets encoded as fixed-width bit-vectors, and label literals.

A label is a subset of the ground set X = {x0, ..., x_{m-1}}, stored as a
non-negative integer whose bit i records membership of x_i.  The label
universe for ground size m is range(2**m), the value 0 is the empty set,
and the symmetric difference of two labels is their XOR, written inline as
``a ^ b``.  This module holds the ground-size cap, the search modes, and
the parser for the label literals of labeling files.
"""

from __future__ import annotations

# The searcher keeps occupancy bitsets with one slot per label, i.e. 2**m
# bits, so the ground size has to stay at desk scale.
MAX_GROUND_SIZE = 30

# The search modes.  Defined here rather than in `search`, so that the CLI
# can offer them without loading the engine.
MODES = ("first", "count", "all")


def check_ground_size(m: int) -> int:
    """Return m unchanged, or raise ValueError if it is not a usable ground size."""
    # One type test: it also refuses bool, an int subclass whose True is no ground size.
    if type(m) is not int:
        raise ValueError(f"ground size must be an int, got {m!r}")
    if m < 0:
        raise ValueError(f"ground size must be non-negative, got {m}")
    if m > MAX_GROUND_SIZE:
        raise ValueError(f"ground size {m} exceeds the supported cap {MAX_GROUND_SIZE}")
    return m


def parse_label(text: str, m: int) -> int:
    """Parse a label literal (decimal, or binary with a 0b prefix).

    Any bare 0/1 string of exactly m characters is read as zero-padded
    binary, even where it is also an in-range decimal: at m = 4, "0011" is
    3, not 11.  Raises ValueError for malformed input and for values outside
    the label universe of ground size m.
    """
    check_ground_size(m)
    stripped = text.strip()
    try:
        if stripped.startswith(("0b", "0B")):
            value = int(stripped, 2)
        elif len(stripped) == m and set(stripped) <= {"0", "1"}:
            value = int(stripped, 2)
        else:
            value = int(stripped, 10)
    except ValueError:
        raise ValueError(f"not a label literal: {text!r}") from None
    if not 0 <= value < 1 << m:
        raise ValueError(
            f"label {value} out of range for ground size m={m} (must be < 2^{m} = {1 << m})"
        )
    return value
