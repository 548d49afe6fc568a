"""Ground-set subsets encoded as fixed-width bit-vectors.

A label is a subset of the ground set X = {x0, ..., x_{m-1}}, stored as a
non-negative integer whose bit i records membership of x_i.  The label
universe for ground size m is range(2**m), the value 0 is the empty set,
and symmetric difference of two labels is a single XOR.
"""

from __future__ import annotations

# The searcher keeps occupancy bitsets with one slot per label, i.e. 2**m
# bits, so the ground size has to stay at desk scale.
MAX_GROUND_SIZE = 30

STYLES = ("int", "binary", "set")

# The search modes.  Defined here rather than in `search`, so that the CLI
# can offer them without loading the engine.
MODES = ("first", "count", "all")


def check_ground_size(m: int) -> int:
    """Return m unchanged, or raise ValueError if it is not a usable ground size."""
    if m < 0:
        raise ValueError(f"ground size must be non-negative, got {m}")
    if m > MAX_GROUND_SIZE:
        raise ValueError(f"ground size {m} exceeds the supported cap {MAX_GROUND_SIZE}")
    return m


def check_label(value: int, m: int) -> int:
    """Return value unchanged, or raise ValueError if it is not a label for ground size m."""
    if not 0 <= value < 1 << m:
        raise ValueError(
            f"label {value} out of range for ground size m={m} (must be < 2^{m} = {1 << m})"
        )
    return value


def sym_diff(a: int, b: int) -> int:
    """Symmetric difference of two labels over a common ground size.

    The characteristic-vector encoding makes this bitwise XOR; the operation
    is total on in-range labels.
    """
    return a ^ b


def parse_label(text: str, m: int) -> int:
    """Parse a label literal (decimal, or binary with a 0b prefix).

    A bare 0/1 string of length exactly m is read as the zero-padded binary
    form that format_label emits; this cannot clash with an in-range decimal,
    because a 0/1-only decimal with m digits is at least 10**(m-1) > 2**m - 1
    for m >= 2.  Raises ValueError for malformed input and for values outside
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
    return check_label(value, m)


def format_label(value: int, m: int, style: str = "int") -> str:
    """Render a label as decimal, zero-padded binary, or set notation.

    Styles: "int" is the decimal value, "binary" is m binary digits
    (a single digit when m = 0, so parsing it back works), "set" lists the
    ground elements of the subset, e.g. "{x0,x2}", with "{}" for the empty set.
    """
    check_ground_size(m)
    check_label(value, m)
    if style == "int":
        return str(value)
    if style == "binary":
        return format(value, f"0{max(m, 1)}b")
    if style == "set":
        members = [f"x{i}" for i in range(m) if value >> i & 1]
        return "{" + ",".join(members) + "}"
    raise ValueError(f"unknown label style {style!r} (expected one of {STYLES})")
