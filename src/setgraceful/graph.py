"""Finite simple graphs: model, generators, file I/O.

Vertices are dense indices 0..n-1.  Edge lists are canonicalized on
construction (u < v within an edge, lexicographic order overall), so every
consumer sees the same deterministic edge order.

Graph file format (UTF-8 text, in the grammar of `labels`): an optional
header line ``vertices N``, then one edge per line as two vertex indices.
The vertex count is max(N, 1 + largest index used), so isolated vertices
require the header.
"""

from __future__ import annotations

from typing import IO, Iterable

from setgraceful.labels import ParseError, content_lines, parse_natural
from setgraceful.record import Record, set_field

Edge = tuple[int, int]


class Graph(Record):
    """A finite simple graph (no loops, no duplicate edges)."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[Edge]) -> None:
        # One type test: it also refuses bool, an int subclass whose True is no vertex count.
        if type(n) is not int:
            raise ValueError(f"vertex count must be an int, got {n!r}")
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        canonical = []
        seen = set()
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r},{v!r}) has an endpoint that is not an int")
            if u == v:
                raise ValueError(f"loop at vertex {u} (graph must be simple)")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge ({e[0]},{e[1]}) (graph must be simple)")
            seen.add(e)
            canonical.append(e)
        canonical.sort()
        set_field(self, "n", n)
        set_field(self, "edges", tuple(canonical))

    def adjacency(self) -> list[list[int]]:
        """Neighbor lists, rebuilt per call; sorted, since the canonical edge
        order appends each vertex's smaller neighbors, then its larger ones."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def make_complete_bipartite(p: int, q: int) -> Graph:
    """K_{p,q}: vertices 0..p-1 on one side, p..p+q-1 on the other, all cross edges."""
    if p < 1 or q < 1:
        raise ValueError(f"complete bipartite sides must be positive, got p={p}, q={q}")
    edges = tuple((u, v) for u in range(p) for v in range(p, p + q))
    return Graph(n=p + q, edges=edges)


def make_path(n: int) -> Graph:
    """Path on n vertices (n >= 1)."""
    if n < 1:
        raise ValueError(f"path needs at least one vertex, got {n}")
    return Graph(n=n, edges=tuple((i, i + 1) for i in range(n - 1)))


def make_cycle(n: int) -> Graph:
    """Cycle on n vertices; n < 3 would create a loop or duplicate edge."""
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    edges = tuple((i, i + 1) for i in range(n - 1)) + ((n - 1, 0),)
    return Graph(n=n, edges=edges)


def read_graph(stream: IO[str] | Iterable[str]) -> Graph:
    """Parse the graph file format; raises ParseError with a line number."""
    header_n: int | None = None
    edges: list[Edge] = []
    seen: set[Edge] = set()
    max_index = -1
    for lineno, fields in content_lines(stream):
        try:
            if fields[0] == "vertices":
                if header_n is not None:
                    raise ValueError("duplicate 'vertices' header")
                if edges:
                    raise ValueError("'vertices' header must precede all edges")
                if len(fields) != 2:
                    raise ValueError(f"expected 'vertices N', got {' '.join(fields)!r}")
                header_n = parse_natural(fields[1])
                continue
            if len(fields) != 2:
                raise ValueError(f"expected 'u v', got {' '.join(fields)!r}")
            u, v = parse_natural(fields[0]), parse_natural(fields[1])
            if u == v:
                raise ValueError(f"loop at vertex {u} (graph must be simple)")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge ({e[0]},{e[1]})")
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        seen.add(e)
        edges.append(e)
        max_index = max(max_index, v, u)
    n = max(header_n or 0, max_index + 1)
    return Graph(n=n, edges=tuple(edges))


def write_graph(g: Graph, stream: IO[str]) -> None:
    """Write the graph file format; round-trips n and the canonical edge list."""
    stream.write(f"vertices {g.n}\n")
    for u, v in g.edges:
        stream.write(f"{u} {v}\n")
