"""Shared test fixtures: the small cross-validation corpus."""

from __future__ import annotations

import pytest

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
