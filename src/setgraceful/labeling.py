"""Vertex labelings, induced edge labels, and the set-graceful validator.

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

from dataclasses import dataclass
from typing import IO, Iterable

from setgraceful.graph import Edge, Graph
from setgraceful.labels import check_ground_size, format_label, parse_label


class LabelingParseError(ValueError):
    """Malformed labeling file; carries the offending 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class Labeling:
    """A vertex-indexed assignment of labels over ground size m.

    Entries must lie below 2**m; whether the assignment is set-graceful is
    not an invariant of the type and is checked by `validate`.
    """

    m: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        check_ground_size(self.m)
        object.__setattr__(self, "values", tuple(self.values))
        limit = 1 << self.m
        for v, value in enumerate(self.values):
            if not 0 <= value < limit:
                raise ValueError(
                    f"label {value} at vertex {v} out of range for ground size m={self.m}"
                )

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ValidationReport:
    """Structured verdict of the set-graceful predicate.

    Each component check carries its first (lexicographically smallest)
    violation witness; `valid` is the conjunction of all checks.
    """

    range_ok: bool
    vertex_injective: bool
    vertex_witness: tuple[int, int] | None
    edge_injective: bool
    edge_witness: tuple[Edge, Edge] | None
    covers_all_nonempty: bool
    missing_label: int | None
    empty_edge: Edge | None
    valid: bool


def edge_labels(g: Graph, f: Labeling) -> list[int]:
    """Induced edge labels, one per edge in g's canonical edge order."""
    if len(f.values) != g.n:
        raise ValueError(f"labeling covers {len(f.values)} vertices, graph has {g.n}")
    values = f.values
    return [values[u] ^ values[v] for u, v in g.edges]


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
    values = f.values
    limit = 1 << f.m
    labels = edge_labels(g, f)

    range_ok = all(0 <= v < limit for v in values)

    vertex_witness = _first_duplicate(values)
    vertex_injective = vertex_witness is None

    dup = _first_duplicate(labels)
    edge_witness = (g.edges[dup[0]], g.edges[dup[1]]) if dup is not None else None
    edge_injective = edge_witness is None

    empty_edge: Edge | None = None
    for idx, lab in enumerate(labels):
        if lab == 0:
            empty_edge = g.edges[idx]
            break

    # Distinct nonzero edge labels form a subset of the 2**m - 1 nonempty
    # labels, so coverage is a count comparison; scan for a witness only on
    # failure (the smallest missing label then sits within the first
    # len(edges) + 2 candidates).
    distinct_nonzero = set(labels) - {0}
    covers_all_nonempty = len(distinct_nonzero) == limit - 1
    missing_label: int | None = None
    if not covers_all_nonempty:
        for s in range(1, limit):
            if s not in distinct_nonzero:
                missing_label = s
                break

    valid = (
        range_ok
        and vertex_injective
        and edge_injective
        and covers_all_nonempty
        and empty_edge is None
    )
    return ValidationReport(
        range_ok=range_ok,
        vertex_injective=vertex_injective,
        vertex_witness=vertex_witness,
        edge_injective=edge_injective,
        edge_witness=edge_witness,
        covers_all_nonempty=covers_all_nonempty,
        missing_label=missing_label,
        empty_edge=empty_edge,
        valid=valid,
    )


def translate(f: Labeling, a: int) -> Labeling:
    """XOR every vertex label with a; edge labels are unchanged.

    Translation is a bijection of the label universe, so it preserves the
    set-graceful property (and its failure) exactly.
    """
    if not 0 <= a < 1 << f.m:
        raise ValueError(f"translation label {a} out of range for ground size m={f.m}")
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
    if not 0 <= s < 1 << f.m:
        raise ValueError(f"label {s} out of range for ground size m={f.m}")
    if s == 0:
        raise ValueError("empty label has no edge")
    if not validate(g, f).valid:
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
