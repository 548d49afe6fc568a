"""Shared test fixtures: the small cross-validation corpus."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import strategies as st

from setgraceful.graph import Graph, make_complete_bipartite, make_cycle, make_path


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)), name=f"K_{n}")


# (name, graph, ground size) for the feasible members; the searcher derives
# m itself, the oracle needs it spelled out.
FEASIBLE_CORPUS = [
    ("K_2", make_complete_bipartite(1, 1), 1),
    ("K_{1,3}", make_complete_bipartite(1, 3), 2),
    ("C_3", make_cycle(3), 2),
    ("P_4", make_path(4), 2),
    ("P_8", make_path(8), 3),
    ("C_7", make_cycle(7), 3),
    ("K_{1,7}", make_complete_bipartite(1, 7), 3),
]

INFEASIBLE_CORPUS = [
    ("K_7", complete_graph(7)),  # 21 edges
    ("C_4", make_cycle(4)),      # 4 edges
]


@pytest.fixture
def feasible_corpus():
    return FEASIBLE_CORPUS


@pytest.fixture
def infeasible_corpus():
    return INFEASIBLE_CORPUS


def set_graceful_by_definition(g: Graph, m: int, values) -> bool:
    """The set-graceful predicate read off its definition, sharing no code
    with `setgraceful.labeling`: the labels lie in range(2**m), are pairwise
    distinct, and their sorted edge labels are exactly 1..2**m - 1."""
    labels = range(2**m)
    return (all(value in labels for value in values)
            and all(a != b for a, b in itertools.combinations(values, 2))
            and sorted(values[u] ^ values[v] for u, v in g.edges) == list(range(1, 2**m)))


@st.composite
def predicate_cases(draw):
    """(graph, m, labels) with m <= 3 and n <= 7, half of them near-valid.

    Arbitrary cases repeat labels and pick any edge set.  Near-valid cases
    take distinct labels and one edge per nonzero label wherever some vertex
    pair induces it, then may add or drop an edge, so valid labelings and
    the edge counts around 2**m - 1 both come up often.
    """
    m = draw(st.integers(0, 3))
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=n, max_size=n))
        edges = [e for e in pairs if draw(st.booleans())]
    else:
        values = draw(st.permutations(range(1 << m)))[:n]
        pairs = list(itertools.combinations(range(len(values)), 2))
        edges = []
        for s in range(1, 1 << m):
            inducing = [(u, v) for u, v in pairs if values[u] ^ values[v] == s]
            if inducing:
                edges.append(draw(st.sampled_from(inducing)))
        spare = [e for e in pairs if e not in edges]
        change = draw(st.sampled_from(("keep", "keep", "add", "drop")))
        if change == "add" and spare:
            edges.append(draw(st.sampled_from(spare)))
        elif change == "drop" and edges:
            edges.remove(draw(st.sampled_from(edges)))
    return Graph(len(values), tuple(edges)), m, tuple(values)
