"""Differential test of affine symmetry breaking against the whole tree.

First and count mode visit the lexicographically smallest labeling of each
AGL(m,2) orbit; all mode walks every labeling with no symmetry breaking, in
the same ascending order.  So the first labeling all mode meets is the
first-mode witness, an exhausted all-mode list has the count-mode count, and
affine never explores more nodes.  For m <= 3 both are also checked against
the oracle.
"""

import random

import pytest

from setgraceful.graph import Graph
from setgraceful.oracle import brute_force_enumerate
from setgraceful.search import SearchConfig, search


def random_connected(rng: random.Random, n: int, edges: int) -> Graph:
    """A connected graph on n vertices: a random tree plus random extra edges."""
    chosen = {(rng.randrange(v), v) for v in range(1, n)}
    rest = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in chosen]
    chosen.update(rng.sample(rest, edges - (n - 1)))
    return Graph(n, tuple(sorted(chosen)))


def small_cases():
    rng = random.Random(7)
    sizes = [(1, 2)] + [(2, 3), (2, 4)] * 4 + [(3, 5)] * 5 + [(3, 6)] * 2
    return [(m, random_connected(rng, n, (1 << m) - 1)) for m, n in sizes]


@pytest.mark.parametrize("m,g", small_cases())
def test_symmetries_agree_with_oracle(m, g):
    oracle = {f.values for f in brute_force_enumerate(g, m)}
    count = search(g, SearchConfig(mode="count"))
    first = search(g, SearchConfig(mode="first"))
    every = search(g, SearchConfig(mode="all"))
    assert count.count_raw == every.count_raw == len(oracle)
    assert {w.values for w in every.witnesses} == oracle
    assert first.witnesses == every.witnesses[:1]


def m4_cases():
    """(graph, mode, node budget): K_6 and a 7-vertex graph, whose whole
    trees all mode exhausts (4,079,296 and 7,304,896 nodes), then random
    graphs of every size in both modes under a tighter budget."""
    rng = random.Random(11)
    complete6 = Graph(6, tuple((i, j) for i in range(6) for j in range(i + 1, 6)))
    cases = [(complete6, "count", None), (random_connected(rng, 7, 15), "count", None)]
    for _ in range(30):
        g = random_connected(rng, rng.randint(7, 16), 15)
        cases += [(g, "count", 20_000), (g, "first", 20_000)]
    return cases


def test_affine_agrees_with_all_mode_m4():
    compared = {"count": 0, "first": 0}
    whole = []
    for g, mode, budget in m4_cases():
        every = search(g, SearchConfig(mode="all", node_limit=budget))
        affine = search(g, SearchConfig(mode=mode, node_limit=budget))
        assert affine.nodes_explored <= every.nodes_explored
        if budget is None:
            whole.append((every.count_raw, every.nodes_explored))
        if mode == "count":
            if not every.exhausted:
                continue
            assert affine.exhausted
            assert affine.count_raw == every.count_raw
        else:
            # Without a witness, an all-mode walk cut short settles nothing.
            if not (every.witnesses or every.exhausted):
                continue
            assert affine.exhausted
            assert affine.witnesses == every.witnesses[:1]
            # A first-mode count is the witness's orbit, 2**4 * |GL(4,2)|.
            assert affine.count_raw == (322_560 if affine.witnesses else 0)
        compared[mode] += 1
    assert compared["count"] >= 2 and compared["first"] >= 10
    # The two whole trees, pinned so that a cut in the walk shows.
    assert whole == [(322_560, 4_079_296), (0, 7_304_896)]

