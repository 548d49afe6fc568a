"""The parity condition: for m >= 2 a graph whose only odd-degree vertices
are u and v has no set-graceful labeling, since the XOR of all edge labels is
0 and also equals f(u) xor f(v).  search() answers such graphs without a
node; here its answers are checked against the oracle, and the tree walk
below the check must agree wherever the check fires."""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from setgraceful.conditions import feasible_ground_size, parity_obstruction
from setgraceful.graph import Graph, make_complete_bipartite, make_cycle, make_path
from setgraceful.oracle import brute_force_enumerate
from setgraceful.search import SearchConfig, _tree_search, search


@st.composite
def feasible_graphs(draw):
    """(m, graph, trail ends or None): a graph with 2**m - 1 edges, m <= 3.

    Part of them are one open trail of distinct edges.  Each pass through a
    vertex adds 2 to its degree, so exactly the trail's two different ends
    have odd degree.  The rest pick their edges at random, on up to 2**m + 1
    vertices.
    """
    m = draw(st.integers(1, 3))
    e = (1 << m) - 1
    if draw(st.booleans()):
        n = draw(st.integers({1: 2, 2: 4, 3: 5}[m], 1 << m))
        trail = [draw(st.integers(0, n - 1))]
        edges = set()
        for k in range(e):
            here = trail[-1]
            options = [
                w for w in range(n)
                if w != here and (min(here, w), max(here, w)) not in edges
                and (k < e - 1 or w != trail[0])
            ]
            assume(options)
            w = draw(st.sampled_from(options))
            edges.add((min(here, w), max(here, w)))
            trail.append(w)
        return m, Graph(n, tuple(edges)), (trail[0], trail[-1])
    n = draw(st.integers({1: 2, 2: 3, 3: 5}[m], (1 << m) + 1))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=e, max_size=e, unique=True))
    return m, Graph(n, tuple(edges)), None


@settings(max_examples=60, deadline=None)
@given(feasible_graphs())
def test_search_matches_oracle_with_parity_check(case):
    m, g, ends = case
    oracle = {f.values for f in brute_force_enumerate(g, m)}
    pair = parity_obstruction(g, m)
    if ends is not None:
        assert pair == (tuple(sorted(ends)) if m >= 2 else None)
    if pair is not None:
        assert oracle == set()
    count = search(g, SearchConfig(mode="count"))
    assert count.exhausted
    assert count.count_raw == len(oracle)
    every = search(g, SearchConfig(mode="all"))
    assert {w.values for w in every.witnesses} == oracle
    first = search(g, SearchConfig(mode="first"))
    assert len(first.witnesses) == (1 if oracle else 0)
    assert first.witnesses == every.witnesses[:1]
    if pair is not None and g.n <= 1 << m:
        for outcome in (count, every, first):
            assert outcome.m == m
            assert outcome.nodes_explored == 0
            assert f"vertices {pair[0]} and {pair[1]} " in outcome.reason
        # Below the check, the affine walk and the whole tree both find nothing.
        for mode in ("count", "all"):
            walked = _tree_search(g, m, SearchConfig(mode=mode))
            assert walked.exhausted
            assert walked.count_raw == 0
    elif pair is None:
        # Without the parity pair, only too many vertices decide g in closed form.
        assert (count.reason is None) == (g.n <= 1 << m)


def test_parity_obstruction_on_named_graphs():
    assert parity_obstruction(make_path(4), 2) == (0, 3)
    assert parity_obstruction(make_path(16), 4) == (0, 15)
    # No odd-degree vertex, and four of them.
    assert parity_obstruction(make_cycle(7), 3) is None
    assert parity_obstruction(make_complete_bipartite(1, 3), 2) is None
    # At m = 1 the one nonzero label XORs to 1, not 0, so K_2's two
    # odd-degree vertices are no obstruction.
    assert parity_obstruction(make_path(2), 1) is None


def test_edge_cases_match_oracle():
    # K_2 (m = 1, two odd-degree vertices, 2 labelings), K_2 plus an isolated
    # vertex (three vertices, two labels), P_4 plus an isolated vertex (the
    # vertex count is the reason given, ahead of parity), and the m = 0 graphs.
    cases = [
        (make_path(2), 2, None),
        (Graph(3, ((0, 1),)), 0, "more vertices (3) than labels (2)"),
        (Graph(5, make_path(4).edges), 0, "more vertices (5) than labels (4)"),
        (Graph(0, ()), 1, None),
        (Graph(1, ()), 1, None),
        (Graph(2, ()), 0, "more vertices (2) than labels (1)"),
    ]
    for g, expected, reason in cases:
        m = feasible_ground_size(g)
        assert len(list(brute_force_enumerate(g, m))) == expected
        for mode in ("count", "all"):
            outcome = search(g, SearchConfig(mode=mode))
            assert (outcome.m, outcome.count_raw, outcome.reason) == (m, expected, reason)
            assert outcome.exhausted
