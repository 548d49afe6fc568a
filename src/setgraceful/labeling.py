"""Vertex labelings, induced edge labels, the set-graceful predicate and validator.

A labeling assigns each vertex a label (a subset of the ground set, encoded
as an integer below 2**m).  Each edge uv then carries the symmetric
difference of its endpoint labels.  The labeling is *set-graceful* when the
vertex labels are pairwise distinct and the edge labels hit every nonempty
subset exactly once.

Labeling file format: a header line ``m <int>``, then one line per vertex,
``<vertex> <label>``, where the label may be decimal, 0b-prefixed binary, or
a bare string of exactly m binary digits (see `labels.parse_label`).
Vertices 0..n-1 must each appear exactly once; ``#`` starts a comment.
"""

from __future__ import annotations

from typing import IO, Iterable, Sequence

from setgraceful.graph import Graph
from setgraceful.labels import check_ground_size, parse_label
from setgraceful.record import Record, set_field


class LabelingParseError(ValueError):
    """Malformed labeling file; carries the offending 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


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
        # One type test, as in check_ground_size, so bool is refused too.  The
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


def is_set_graceful(g: Graph, m: int, values: Sequence[int]) -> bool:
    """The set-graceful predicate alone, on a plain sequence of labels.

    True exactly when the n labels are ints in range(2**m), are pairwise
    distinct, and `edges_cover_once` accepts their edge labels.  No
    `Labeling` or witness is built, so a caller that only needs the verdict
    pays for nothing else; `validate` asks it first and builds witnesses
    only when it says no.
    """
    if len(values) != g.n:
        raise ValueError(f"labeling covers {len(values)} vertices, graph has {g.n}")
    universe = 1 << check_ground_size(m)
    for value in values:
        if type(value) is not int or not 0 <= value < universe:
            return False
    if len(set(values)) != len(values):
        return False
    return edges_cover_once(g.edges, (1 << universe) - 2, values)


def edges_cover_once(edges: Sequence[tuple[int, int]], full: int, values: Sequence[int]) -> bool:
    """The edge half of the predicate: each edge label occurs once, and
    together they are every nonempty label.

    full is the mask of the nonempty labels, ``(1 << 2**m) - 2``; edges and
    full depend only on the graph, so a caller testing many labelings of one
    graph computes them once.  The vertex labels themselves are not checked:
    that they lie in range(2**m) and are pairwise distinct is tested by
    `is_set_graceful`, and holds by construction for the oracle's
    permutations.
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

    Within one value class the smallest pair is its first and second
    occurrence, so the answer is the minimum of those pairs over classes.
    """
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for idx, item in enumerate(items):
        if item in first:
            second.setdefault(item, idx)
        else:
            first[item] = idx
    return min(((first[item], j) for item, j in second.items()), default=None)


def validate(g: Graph, f: Labeling) -> ValidationReport:
    """Check the set-graceful predicate, reporting every failing component.

    The verdict comes from `is_set_graceful`; a valid labeling gets the one
    shared all-valid report.  For an invalid one every component is
    evaluated (no fail-fast) so a CLI report can show each violation.
    Witnesses are deterministic: the lexicographically smallest offending
    pair, edge, or missing label.
    """
    if is_set_graceful(g, f.m, f.values):
        return _VALID
    labels = edge_labels(g, f)
    present = set(labels)
    vertex_witness = _first_duplicate(f.values)
    dup = _first_duplicate(labels)
    edge_witness = (g.edges[dup[0]], g.edges[dup[1]]) if dup is not None else None
    empty_edge = g.edges[labels.index(0)] if 0 in present else None
    # The labels fill at most len(labels) of the candidates, so the scan
    # stops within len(labels) + 2 steps unless every label is present.
    missing_label = next((s for s in range(1, 1 << f.m) if s not in present), None)
    # is_set_graceful said no, so some witness is set.
    return ValidationReport(vertex_witness, edge_witness, missing_label, empty_edge, False)


def read_labeling(stream: IO[str] | Iterable[str]) -> Labeling:
    """Parse the labeling file format; raises LabelingParseError with a line number."""
    m: int | None = None
    assigned: dict[int, int] = {}
    last_line = 0
    for lineno, raw in enumerate(stream, start=1):
        last_line = lineno
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if m is None:
            if parts[0] != "m" or len(parts) != 2:
                raise LabelingParseError(lineno, f"expected header 'm <int>', got {line!r}")
            try:
                m = int(parts[1])
            except ValueError:
                raise LabelingParseError(lineno, f"ground size is not an integer: {parts[1]!r}") from None
            try:
                check_ground_size(m)
            except ValueError as exc:
                raise LabelingParseError(lineno, str(exc)) from None
            continue
        if len(parts) != 2:
            raise LabelingParseError(lineno, f"expected '<vertex> <label>', got {line!r}")
        try:
            vertex = int(parts[0])
        except ValueError:
            raise LabelingParseError(lineno, f"vertex index is not an integer: {parts[0]!r}") from None
        if vertex < 0:
            raise LabelingParseError(lineno, f"negative vertex index {vertex}")
        if vertex in assigned:
            raise LabelingParseError(lineno, f"vertex {vertex} labeled twice")
        try:
            assigned[vertex] = parse_label(parts[1], m)
        except ValueError as exc:
            raise LabelingParseError(lineno, str(exc)) from None
    if m is None:
        raise LabelingParseError(last_line or 1, "missing header 'm <int>'")
    for v in range(len(assigned)):
        if v not in assigned:
            raise LabelingParseError(last_line or 1, f"vertex {v} has no label")
    return Labeling(m, tuple(assigned[v] for v in range(len(assigned))))


def write_labeling(f: Labeling, stream: IO[str]) -> None:
    """Write the labeling file format, one vertex per line, labels in decimal."""
    stream.write(f"m {f.m}\n")
    for v, value in enumerate(f.values):
        stream.write(f"{v} {value}\n")
