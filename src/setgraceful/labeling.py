"""Vertex labelings, induced edge labels, the set-graceful predicate and validator.

A labeling assigns each vertex a label (a subset of the ground set, encoded
as an integer below 2**m).  Each edge uv then carries the symmetric
difference of its endpoint labels.  The labeling is *set-graceful* when the
vertex labels are pairwise distinct and the edge labels hit every nonempty
subset exactly once.

Labeling file format: a header line ``m <int>``, then one line per vertex,
``<vertex> <label>``, where the label may be decimal or 0b-prefixed binary.
Vertices 0..n-1 must each appear exactly once; ``#`` starts a comment.
"""

from __future__ import annotations

from typing import IO, Iterable, Sequence

from setgraceful.graph import Edge, Graph
from setgraceful.labels import check_ground_size, check_label, format_label, parse_label
from setgraceful.record import Record, set_field


class LabelingParseError(ValueError):
    """Malformed labeling file; carries the offending 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class Labeling(Record):
    """A vertex-indexed assignment of labels over ground size m.

    Entries must lie below 2**m; whether the assignment is set-graceful is
    not an invariant of the type and is checked by `validate`.
    """

    __slots__ = ("m", "values")

    def __init__(self, m: int, values: Iterable[int]) -> None:
        check_ground_size(m)
        values = tuple(values)
        limit = 1 << m
        for v, value in enumerate(values):
            if not 0 <= value < limit:
                raise ValueError(
                    f"label {value} at vertex {v} out of range for ground size m={m}"
                )
        set_field(self, "m", m)
        set_field(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


class ValidationReport(Record):
    """Structured verdict of the set-graceful predicate.

    Each component check carries its first (lexicographically smallest)
    violation witness; `valid` is the conjunction of all checks.
    """

    __slots__ = (
        "vertex_injective", "vertex_witness", "edge_injective", "edge_witness",
        "covers_all_nonempty", "missing_label", "empty_edge", "valid",
    )


def edge_labels(g: Graph, f: Labeling) -> list[int]:
    """Induced edge labels, one per edge in g's canonical edge order."""
    if len(f.values) != g.n:
        raise ValueError(f"labeling covers {len(f.values)} vertices, graph has {g.n}")
    values = f.values
    return [values[u] ^ values[v] for u, v in g.edges]


def is_set_graceful(g: Graph, m: int, values: Sequence[int]) -> bool:
    """The set-graceful predicate alone, on a plain sequence of labels.

    True exactly when the n labels lie in range(2**m), are pairwise
    distinct, and their edge labels hit every nonempty subset exactly once.
    No `Labeling` or witness is built, so a caller that only needs the
    verdict pays for nothing else; `validate(g, Labeling(m, values)).valid`
    gives the same answer on in-range labels.
    """
    if len(values) != g.n:
        raise ValueError(f"labeling covers {len(values)} vertices, graph has {g.n}")
    universe = 1 << check_ground_size(m)
    for value in values:
        if not 0 <= value < universe:
            return False
    if len(set(values)) != len(values):
        return False
    # One bit per edge label; a bit met twice is a repeated edge label.
    seen = 0
    for u, v in g.edges:
        bit = 1 << (values[u] ^ values[v])
        if seen & bit:
            return False
        seen |= bit
    return seen == (1 << universe) - 2


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

    All components are evaluated (no fail-fast) so a CLI report can show
    each violation.  Witnesses are deterministic: the lexicographically
    smallest offending pair, edge, or missing label.
    """
    labels = edge_labels(g, f)
    present = set(labels)
    vertex_witness = _first_duplicate(f.values)
    dup = _first_duplicate(labels)
    edge_witness = (g.edges[dup[0]], g.edges[dup[1]]) if dup is not None else None
    empty_edge = g.edges[labels.index(0)] if 0 in present else None
    # The labels fill at most len(labels) of the candidates, so the scan
    # stops within len(labels) + 2 steps unless every label is present.
    missing_label = next((s for s in range(1, 1 << f.m) if s not in present), None)
    return ValidationReport(
        vertex_injective=vertex_witness is None,
        vertex_witness=vertex_witness,
        edge_injective=edge_witness is None,
        edge_witness=edge_witness,
        covers_all_nonempty=missing_label is None,
        missing_label=missing_label,
        empty_edge=empty_edge,
        valid=(vertex_witness is None and edge_witness is None
               and missing_label is None and empty_edge is None),
    )


def translate(f: Labeling, a: int) -> Labeling:
    """XOR every vertex label with a; edge labels are unchanged.

    Translation is a bijection of the label universe, so it preserves the
    set-graceful property (and its failure) exactly.
    """
    check_label(a, f.m)
    return Labeling(f.m, tuple(v ^ a for v in f.values))


def normalize_anchor(f: Labeling, v0: int) -> Labeling:
    """Translate so the anchor vertex v0 carries the empty label."""
    if not 0 <= v0 < len(f.values):
        raise ValueError(f"anchor vertex {v0} out of range for {len(f.values)} vertices")
    return translate(f, f.values[v0])


def edge_preimage(g: Graph, f: Labeling, s: int) -> Edge:
    """The unique edge whose induced label equals s, for a valid labeling.

    A set-graceful labeling makes the edge map a bijection onto the nonempty
    labels, so every nonzero s has exactly one preimage edge.
    """
    if check_label(s, f.m) == 0:
        raise ValueError("empty label has no edge")
    if not is_set_graceful(g, f.m, f.values):
        raise ValueError("labeling is not set-graceful; edge labels are not a bijection")
    return g.edges[edge_labels(g, f).index(s)]


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


def write_labeling(f: Labeling, stream: IO[str], style: str = "int") -> None:
    """Write the labeling file format, one vertex per line."""
    stream.write(f"m {f.m}\n")
    for v, value in enumerate(f.values):
        stream.write(f"{v} {format_label(value, f.m, style)}\n")
