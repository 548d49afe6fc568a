"""Vertex labelings, induced edge labels, and the validator that decides the
set-graceful predicate.

A labeling assigns each vertex a label (a subset of the ground set, encoded
as an integer below 2**m).  Each edge uv then carries the symmetric
difference of its endpoint labels.  The labeling is *set-graceful* when the
vertex labels are pairwise distinct and the edge labels hit every nonempty
subset exactly once.

Labeling file format (in the grammar of `labels`): a header line ``m <int>``,
then one line per vertex, ``<vertex> <label>``, where the label may be
decimal, 0b-prefixed binary, or a bare string of exactly m binary digits
(see `labels.parse_label`).  Vertices 0..n-1 must each appear exactly once.
"""

from __future__ import annotations

from typing import IO, Iterable, Sequence

from setgraceful.graph import Graph
from setgraceful.labels import (
    ParseError, check_ground_size, content_lines, parse_label, parse_natural)
from setgraceful.record import Record, set_field


class Labeling(Record):
    """A vertex-indexed assignment of labels over ground size m.

    Entries must be ints below 2**m; whether the assignment is set-graceful
    is not an invariant of the type and is checked by `validate`.
    """

    __slots__ = ("m", "values")

    def __init__(self, m: int, values: Iterable[int]) -> None:
        check_ground_size(m)
        values = tuple(values)
        limit = 1 << m
        # One type test, as in check_count, so bool is refused too.  The
        # hot loop keeps no index and no closure (which would make `value` a
        # cell); an earlier label that is this same object would have failed.
        for value in values:
            if type(value) is not int or not 0 <= value < limit:
                v = list(map(id, values)).index(id(value))
                problem = (f"out of range for ground size m={m}" if type(value) is int
                           else "is not an int")
                raise ValueError(f"label {value!r} at vertex {v} {problem}")
        set_field(self, "m", m)
        set_field(self, "values", values)


class ValidationReport(Record):
    """Structured verdict of the set-graceful predicate.

    Each component carries its first (lexicographically smallest) violation
    witness, None when the component holds; `valid` is the verdict, true
    exactly when every witness is None.
    """

    __slots__ = ("vertex_witness", "edge_witness", "missing_label", "empty_edge", "valid")


# No witness is set.  Records are immutable, so every valid labeling can
# share this one report.
_VALID = ValidationReport(None, None, None, None, True)


def edge_labels(g: Graph, f: Labeling) -> list[int]:
    """Induced edge labels, one per edge in g's canonical edge order."""
    if len(f.values) != g.n:
        raise ValueError(f"labeling covers {len(f.values)} vertices, graph has {g.n}")
    values = f.values
    return [values[u] ^ values[v] for u, v in g.edges]


def edges_cover_once(edges: Sequence[tuple[int, int]], full: int, values: Sequence[int]) -> bool:
    """The edge half of the predicate: each edge label occurs once, and
    together they are every nonempty label.

    full is the mask of the nonempty labels, ``(1 << 2**m) - 2``; edges and
    full depend only on the graph, so a caller testing many labelings of one
    graph computes them once.  The vertex labels themselves are not checked:
    a `Labeling` keeps them in range(2**m), `validate` tests that they are
    pairwise distinct, and the oracle's permutations are both by construction.
    """
    # One bit per edge label; a bit met twice is a repeated edge label.
    seen = 0
    for u, v in edges:
        bit = 1 << (values[u] ^ values[v])
        if seen & bit:
            return False
        seen |= bit
    return seen == full


def _first_duplicate(items: Iterable[int]) -> tuple[int, int] | None:
    """The lexicographically smallest index pair (i, j), i < j, of equal items.

    Each repeat pairs with the first occurrence of its item; within one
    value class the smallest such pair is the one of its second occurrence,
    so the minimum over all repeats is the answer.
    """
    first: dict[int, int] = {}
    return min(((i, j) for j, item in enumerate(items)
                if (i := first.setdefault(item, j)) != j), default=None)


def validate(g: Graph, f: Labeling) -> ValidationReport:
    """Check the set-graceful predicate, reporting every failing component.

    The verdict needs no witness: a valid labeling has 2**m - 1 edges,
    pairwise distinct vertex labels, and edge labels that `edges_cover_once`
    accepts, and gets the one shared all-valid report.  For an invalid one
    every component is evaluated (no fail-fast) so a CLI report can show
    each violation.  Witnesses are deterministic: the lexicographically
    smallest offending pair, edge, or missing label.
    """
    values = f.values
    if len(values) != g.n:
        raise ValueError(f"labeling covers {len(values)} vertices, graph has {g.n}")
    universe = 1 << f.m
    # Only 2**m - 1 edges can carry each nonempty label once, so this test is
    # exact; made first, it also spares the 2**m-bit mask (128 MB at m = 30).
    if (len(g.edges) == universe - 1 and len(set(values)) == len(values)
            and edges_cover_once(g.edges, (1 << universe) - 2, values)):
        return _VALID
    labels = edge_labels(g, f)
    present = set(labels)
    vertex_witness = _first_duplicate(values)
    dup = _first_duplicate(labels)
    edge_witness = (g.edges[dup[0]], g.edges[dup[1]]) if dup is not None else None
    empty_edge = g.edges[labels.index(0)] if 0 in present else None
    # The labels fill at most len(labels) of the candidates, so the scan
    # stops within len(labels) + 2 steps unless every label is present.
    missing_label = next((s for s in range(1, universe) if s not in present), None)
    # The verdict above is no, so some witness is set.
    return ValidationReport(vertex_witness, edge_witness, missing_label, empty_edge, False)


def read_labeling(stream: IO[str] | Iterable[str]) -> Labeling:
    """Parse the labeling file format; raises ParseError with a line number."""
    m: int | None = None
    assigned: dict[int, int] = {}
    # End-of-file errors name the last line that holds more than a comment.
    lineno = 1
    for lineno, fields in content_lines(stream):
        try:
            if m is None:
                if fields[0] != "m" or len(fields) != 2:
                    raise ValueError(f"expected header 'm <int>', got {' '.join(fields)!r}")
                m = check_ground_size(parse_natural(fields[1]))
                continue
            if len(fields) != 2:
                raise ValueError(f"expected '<vertex> <label>', got {' '.join(fields)!r}")
            vertex = parse_natural(fields[0])
            if vertex in assigned:
                raise ValueError(f"vertex {vertex} labeled twice")
            assigned[vertex] = parse_label(fields[1], m)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    if m is None:
        raise ParseError(lineno, "missing header 'm <int>'")
    for v in range(len(assigned)):
        if v not in assigned:
            raise ParseError(lineno, f"vertex {v} has no label")
    return Labeling(m, tuple(assigned[v] for v in range(len(assigned))))


def write_labeling(f: Labeling, stream: IO[str]) -> None:
    """Write the labeling file format, one vertex per line, labels in decimal."""
    stream.write(f"m {f.m}\n")
    for v, value in enumerate(f.values):
        stream.write(f"{v} {value}\n")
