"""Differential test of affine symmetry breaking against the whole tree.

First and count mode visit the lexicographically smallest labeling of each
AGL(m,2) orbit; all mode walks every labeling with no symmetry breaking, in
the same ascending order.  So the first labeling all mode meets is the
first-mode witness, an exhausted all-mode list has the count-mode count, and
affine never explores more nodes.  For m <= 3 both are also checked against
the oracle.  At m = 5, where neither the oracle nor all mode finishes, a
partial-cap walk that breaks only part of the symmetry gives the check.
"""

import random

import pytest

from setgraceful.graph import Graph
from setgraceful.oracle import brute_force_enumerate
from setgraceful.search import SearchConfig, _explore, search, vertex_order


K6 = Graph(6, tuple((i, j) for i in range(6) for j in range(i + 1, 6)))


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
    cases = [(K6, "count", None), (random_connected(rng, 7, 15), "count", None)]
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


def partial_cap_count(g: Graph, m: int, k: int) -> int:
    """count_raw by a walk that keeps the canonical cap for the first k
    dimensions only and the full mask from dimension k on, anchor labeled 0.

    Each labeling it meets stands for 2**m * prod_{i<k} (2**m - 2**i) of its
    affine orbit: k = m is the engine's rule, k = 0 fixes only the anchor."""
    order = vertex_order(g)
    pos = {v: i for i, v in enumerate(order)}
    back = [[] for _ in order]
    for u, v in g.edges:
        i, j = sorted((pos[u], pos[v]))
        back[j].append(i)
    full = (1 << (1 << m)) - 1
    caps = [(2 << (1 << d)) - 1 if d < k else full for d in range(m + 1)]
    stats = {}
    count = sum(1 for _ in _explore(back, caps, 1, None, stats))
    assert not stats["limit_hit"]
    weight = 1 << m
    for i in range(k):
        weight *= (1 << m) - (1 << i)
    return count * weight


def graph_from(text: str) -> Graph:
    """A graph from "u-v" edges; every vertex is on some edge."""
    edges = [tuple(map(int, e.split("-"))) for e in text.split()]
    return Graph(1 + max(map(max, edges)), edges)


# Random connected m = 5 graphs on 14 and 15 vertices, with their counts;
# count mode exhausts each in under 150k nodes.
M5_CASES = [
    ("0-1 0-2 0-3 0-4 0-8 0-13 1-2 1-5 1-6 1-9 1-10 1-11 1-14 2-3 2-6 2-9 2-11 3-4 3-5 3-9 "
     "3-13 4-14 5-7 5-9 5-11 5-14 6-14 7-12 7-14 8-12 9-13", 13_439_139_840),
    ("0-1 0-3 0-4 0-7 0-9 0-11 1-2 1-3 1-5 1-10 2-4 2-7 2-8 2-9 2-11 3-6 3-7 3-9 3-10 4-10 "
     "5-6 5-8 5-10 5-13 6-7 6-9 6-13 7-9 9-11 10-13 11-12", 2_879_815_680),
    ("0-1 0-2 0-3 0-4 0-5 0-11 1-4 1-7 1-10 1-13 2-4 2-5 2-6 2-8 2-9 2-13 3-6 4-7 4-9 4-11 "
     "5-13 6-8 6-9 6-10 6-11 6-12 6-13 7-9 7-10 7-11 7-13", 639_959_040),
    ("0-1 0-2 0-4 0-5 0-7 1-2 1-3 1-7 1-9 1-10 2-8 2-12 2-13 3-4 3-5 3-6 3-9 3-11 3-12 4-5 "
     "4-6 4-9 4-10 4-12 5-11 6-7 6-11 6-13 7-11 7-12 7-13", 0),
]


@pytest.mark.parametrize("text, count", M5_CASES,
                         ids=["15-vertex", "14-vertex-a", "14-vertex-b", "14-vertex-none"])
def test_partial_cap_walk_agrees_with_count_mode_m5(text, count):
    # The engine's cap at dimension 4 is checked against a walk that lets
    # every free label in from there on.
    g = graph_from(text)
    affine = search(g, SearchConfig(mode="count"))
    assert affine.exhausted and affine.reason is None
    assert affine.nodes_explored < 150_000
    assert affine.count_raw == partial_cap_count(g, 5, 4) == count


@pytest.mark.parametrize("g", [
    K6,
    graph_from("0-1 0-3 0-4 0-5 0-6 1-2 1-4 1-6 1-7 1-8 3-6 3-8 4-5 5-8 6-8"),
], ids=["K_6", "9-vertex"])
def test_partial_cap_walk_agrees_for_every_k_m4(g):
    affine = search(g, SearchConfig(mode="count"))
    assert affine.count_raw > 0
    assert [partial_cap_count(g, 4, k) for k in range(5)] == [affine.count_raw] * 5


def relabeled(g: Graph, perm: list[int]) -> Graph:
    """g with vertex v renamed perm[v]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@pytest.mark.parametrize("text", [text for text, _ in M5_CASES],
                         ids=["15-vertex", "14-vertex-a", "14-vertex-b", "14-vertex-none"])
def test_count_is_relabeling_invariant_m5(text):
    """Renaming the vertices leaves the count-mode count unchanged.

    This catches a count that depends on the vertex order, as a change to
    the order's tie-break could make it.  It misses an overcount that every
    order shares, such as letting label 17 also open dimension 5 at m = 5;
    the partial-cap walk above catches that one."""
    g = graph_from(text)
    count = search(g, SearchConfig(mode="count")).count_raw
    rng = random.Random(5)
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        outcome = search(relabeled(g, perm), SearchConfig(mode="count"))
        assert outcome.exhausted and outcome.reason is None and outcome.count_raw == count
