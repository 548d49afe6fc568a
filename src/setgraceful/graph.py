"""Finite simple graphs: model, generators, file I/O.

Vertices are dense indices 0..n-1.  Edge lists are canonicalized on
construction (u < v within an edge, lexicographic order overall), so every
consumer sees the same deterministic edge order.

Graph file format (UTF-8 text): an optional header line ``vertices N``,
then one edge per line as two whitespace-separated decimal indices.  ``#``
starts a comment.  The vertex count is max(N, 1 + largest index used), so
isolated vertices require the header.
"""

from __future__ import annotations

from typing import IO, Iterable

from setgraceful.record import Record, set_field

Edge = tuple[int, int]


class GraphParseError(ValueError):
    """Malformed graph file; carries the offending 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class Graph(Record):
    """A finite simple graph (no loops, no duplicate edges).

    Equality and hashing read n and the canonical edges, not the name.
    """

    __slots__ = ("n", "edges", "name")

    def __init__(self, n: int, edges: Iterable[Edge], name: str | None = None) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        canonical = []
        seen = set()
        for u, v in edges:
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
        set_field(self, "name", name)

    def _key(self) -> tuple:
        return self.n, self.edges

    def adjacency(self) -> list[list[int]]:
        """Sorted neighbor lists, rebuilt per call."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj:
            nbrs.sort()
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
    return Graph(n=p + q, edges=edges, name=f"K_{{{p},{q}}}")


def make_path(n: int) -> Graph:
    """Path on n vertices (n >= 1)."""
    if n < 1:
        raise ValueError(f"path needs at least one vertex, got {n}")
    return Graph(n=n, edges=tuple((i, i + 1) for i in range(n - 1)), name=f"P_{n}")


def make_cycle(n: int) -> Graph:
    """Cycle on n vertices; n < 3 would create a loop or duplicate edge."""
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    edges = tuple((i, i + 1) for i in range(n - 1)) + ((n - 1, 0),)
    return Graph(n=n, edges=edges, name=f"C_{n}")


def read_graph(stream: IO[str] | Iterable[str]) -> Graph:
    """Parse the graph file format; raises GraphParseError with a line number."""
    header_n: int | None = None
    edges: list[Edge] = []
    seen: set[Edge] = set()
    max_index = -1
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if header_n is not None:
                raise GraphParseError(lineno, "duplicate 'vertices' header")
            if edges:
                raise GraphParseError(lineno, "'vertices' header must precede all edges")
            if len(parts) != 2:
                raise GraphParseError(lineno, f"expected 'vertices N', got {line!r}")
            try:
                header_n = int(parts[1])
            except ValueError:
                raise GraphParseError(lineno, f"vertex count is not an integer: {parts[1]!r}") from None
            if header_n < 0:
                raise GraphParseError(lineno, f"vertex count must be non-negative, got {header_n}")
            continue
        if len(parts) != 2:
            raise GraphParseError(lineno, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(lineno, f"edge endpoints are not integers: {line!r}") from None
        if u < 0 or v < 0:
            raise GraphParseError(lineno, f"negative vertex index in edge {line!r}")
        if u == v:
            raise GraphParseError(lineno, f"loop at vertex {u} (graph must be simple)")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise GraphParseError(lineno, f"duplicate edge ({e[0]},{e[1]})")
        seen.add(e)
        edges.append(e)
        max_index = max(max_index, v, u)
    n = max(header_n or 0, max_index + 1)
    return Graph(n=n, edges=tuple(edges))


def write_graph(g: Graph, stream: IO[str]) -> None:
    """Write the graph file format; round-trips n and the canonical edge list."""
    if g.name:
        stream.write(f"# {g.name}\n")
    stream.write(f"vertices {g.n}\n")
    for u, v in g.edges:
        stream.write(f"{u} {v}\n")
