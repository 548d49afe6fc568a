"""Differential test of the three symmetry settings on random graphs.

Affine symmetry visits the lexicographically smallest labeling of each
AGL(m,2) orbit, a subsequence of what translation symmetry visits, so the
two must agree on counts and witnesses and affine must never explore more
nodes.  For m <= 3 all three settings are also checked against the oracle.
"""

import random

import pytest

from setgraceful import Graph, SearchConfig, brute_force_enumerate, search
from setgraceful.search import SYMMETRIES


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
    counts, firsts, alls = set(), set(), set()
    for sym in SYMMETRIES:
        counts.add(search(g, SearchConfig(mode="count", symmetry=sym)).count_raw)
        first = search(g, SearchConfig(mode="first", symmetry=sym))
        firsts.add(tuple(w.values for w in first.witnesses))
        every = search(g, SearchConfig(mode="all", symmetry=sym))
        alls.add(tuple(w.values for w in every.witnesses))
    assert counts == {len(oracle)}
    assert len(firsts) == 1
    assert len(alls) == 1
    (witnesses,) = alls
    assert set(witnesses) == oracle


def m4_cases():
    """(graph, mode, node budget): K_6 and a 7-vertex graph, whose translation
    trees are small enough to exhaust in count mode, then random graphs of
    every size in both modes under a tighter budget."""
    rng = random.Random(11)
    complete6 = Graph(6, tuple((i, j) for i in range(6) for j in range(i + 1, 6)))
    cases = [(complete6, "count", 500_000), (random_connected(rng, 7, 15), "count", 500_000)]
    for _ in range(30):
        g = random_connected(rng, rng.randint(7, 16), 15)
        cases += [(g, "count", 20_000), (g, "first", 20_000)]
    return cases


def test_affine_agrees_with_translation_m4():
    compared = {"count": 0, "first": 0}
    for g, mode, budget in m4_cases():
        trans = search(g, SearchConfig(mode=mode, symmetry="translation", node_limit=budget))
        affine = search(g, SearchConfig(mode=mode, node_limit=budget))
        assert affine.nodes_explored <= trans.nodes_explored
        if not trans.exhausted:
            continue
        compared[mode] += 1
        assert affine.exhausted
        assert affine.witnesses == trans.witnesses
        if mode == "count":
            assert affine.count_raw == trans.count_raw
        else:
            # A first-mode count is the witness's orbit: |GL(4,2)| = 20,160 times larger.
            assert affine.count_raw == trans.count_raw * 20_160
    assert compared["count"] >= 2 and compared["first"] >= 10
