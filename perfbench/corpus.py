"""Seeded benchmark corpus: the workloads, their graph files and their jobs.

A set-graceful labeling over ground size m needs exactly 2^m - 1 edges, so
every graph here has that many.  Each workload mixes fixed named graphs
with connected random graphs drawn from ``random.Random("<workload>/<seed>")``,
an equal number per vertex count so that seeds differ in which graphs they
draw, not in how many of each size.  The same workload and seed always give
byte-identical files.  The program under test sees only these files.

Why each workload exists is recorded in ``Workload.why`` and repeated in
BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

Edge = tuple[int, int]


@dataclass(frozen=True)
class Workload:
    """One workload.  ``node_limit`` budgets its first-mode searches; node
    counts, limit hits and decided_ratio are read against it, so it is
    reported as search.node_limit.  A pass takes about a quarter of a
    40-second run, so that every job is timed four times or more."""

    why: str
    m: int
    theorem: bool
    named: tuple[str, ...]
    vertex_counts: tuple[int, ...]
    per_size: int
    mode: str
    node_limit: int | None
    emit: bool


WORKLOADS: dict[str, Workload] = {
    # Mostly "no" answers: the engine must exhaust its tree, so nearly all
    # time is in search's explore loop.  Node-count cuts (symmetry, parity)
    # and cheaper nodes show here first.  The random graphs have 7 vertices:
    # almost all of them exhaust at 456,556 nodes.  On 8 or 9 vertices the
    # exhaustion cost ranges from 0.5M to over 6M nodes per graph, which made
    # both pass_s and decided_ratio differ by 15-40% from seed to seed.
    # K_{3,5} has no job of its own: the theorem job exhausts it and K_{5,3}
    # in count mode, and a third exhaustion of it would halve the passes that
    # fit in a run.
    "decide_m4": Workload(
        why="m=4 questions mostly answered no, so search must exhaust its tree; "
            "nearly all time is in the explore loop",
        m=4,
        theorem=True,
        named=("P_16",),
        vertex_counts=(7,),
        per_size=6,
        mode="first",
        node_limit=2_000_000,
        emit=False,
    ),
    # Mostly "yes", found early: per-search setup, candidate order, start-up,
    # parsing, labeling I/O and validate are a large share of each job.
    # Within 100,000 nodes, about one graph in five on 11 or 16 vertices has
    # no labeling found, 4-6% on 12, 13 or 15 vertices, 2% on 14 vertices
    # (1.3% within 300,000).  A job without a witness skips its check step
    # and lowers decided_ratio, so more of them made both depend on the seed.
    "find_m4": Workload(
        why="m=4 graphs that mostly have a labeling found early, then checked; "
            "start-up, parsing, labeling I/O and validate weigh",
        m=4,
        theorem=False,
        named=("C_15", "K_1_15"),
        vertex_counts=(14,),
        per_size=28,
        mode="first",
        node_limit=300_000,
        emit=True,
    ),
    # All-mode enumeration with every witness validated and the set compared
    # with the brute-force oracle: orbit expansion, output and checking
    # dominate, explore is a few percent.
    "enumerate_m3": Workload(
        why="m=3 all-mode enumeration, every witness validated and checked "
            "against the oracle; output, validate and oracle dominate",
        m=3,
        theorem=False,
        named=("C_7", "K_1_7", "P_8"),
        vertex_counts=(6, 7, 8),
        per_size=3,
        mode="all",
        node_limit=None,
        emit=False,
    ),
}


@dataclass(frozen=True)
class Job:
    """One CLI question.  ``graph`` is None for the theorem job."""

    name: str
    m: int
    mode: str
    node_limit: int | None
    emit: bool
    graph: Path | None = None
    n: int = 0
    edges: tuple[Edge, ...] = ()

    def argv(self) -> list[str]:
        if self.graph is None:
            return ["theorem", "--m", str(self.m), "--json"]
        args = ["search", str(self.graph), "--mode", self.mode, "--json"]
        if self.node_limit is not None:
            args += ["--node-limit", str(self.node_limit)]
        if self.emit:
            args += ["--emit", str(self.emit_path())]
        return args

    def emit_path(self) -> Path:
        assert self.graph is not None
        return self.graph.with_suffix(".lab")


def named_graph(name: str) -> tuple[int, list[Edge]]:
    """Vertex count and edges of a fixed graph: K_p_q, P_n or C_n."""
    kind, *sizes = name.split("_")
    if kind == "K":
        p, q = map(int, sizes)
        return p + q, [(u, v) for u in range(p) for v in range(p, p + q)]
    (n,) = map(int, sizes)
    path = [(i, i + 1) for i in range(n - 1)]
    if kind == "P":
        return n, path
    if kind == "C":
        return n, path + [(0, n - 1)]
    raise ValueError(f"unknown named graph {name!r}")


def random_connected_graph(rng: random.Random, n: int, e: int) -> list[Edge]:
    """A connected simple graph on n vertices with exactly e edges.

    A random spanning tree (each vertex, in shuffled order, attaches to an
    earlier one) plus e - (n - 1) further edges drawn uniformly from the rest.
    """
    if not n - 1 <= e <= n * (n - 1) // 2:
        raise ValueError(f"no connected simple graph has {n} vertices and {e} edges")
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges.update(rng.sample(rest, e - len(edges)))
    return sorted(edges)


def graph_text(name: str, n: int, edges: list[Edge]) -> str:
    """The repository's graph-file format: comment, ``vertices N``, ``u v`` lines."""
    lines = [f"# {name}", f"vertices {n}"] + [f"{u} {v}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def write_corpus(workload: str, seed: int, directory: Path) -> list[Job]:
    """Write the workload's graph files for this seed and return its job list."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    graphs = [(name, *named_graph(name)) for name in spec.named]
    for n in spec.vertex_counts:
        for k in range(spec.per_size):
            edges = random_connected_graph(rng, n, (1 << spec.m) - 1)
            graphs.append((f"rand_{n:02d}_{k}", n, edges))

    directory.mkdir(parents=True, exist_ok=True)
    jobs = []
    if spec.theorem:
        jobs.append(Job("theorem", spec.m, "count", None, False))
    for name, n, edges in graphs:
        path = directory / f"{name}.graph"
        path.write_text(graph_text(name, n, edges), encoding="utf-8")
        jobs.append(Job(name, spec.m, spec.mode, spec.node_limit, spec.emit, path, n,
                        tuple(sorted(edges))))
    return jobs
