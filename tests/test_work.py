"""A deterministic work gauge: exact counts and node counts on a fixed corpus.

Node counts depend only on the graph and the engine, never on the host, so
a change that cuts nodes shows here as moved pins, without timing noise.
Such a change records every moved node pin as old -> new, with the corpus
total.  A count pin must not move: a count that changes is a bug.

The trees are the first ten with a labeling and the first ten without one
among ``networkx.random_labeled_tree(16, seed=s)`` for s = 0, 1, 2, ...;
parity rules out none of seeds 0..238.  They are written out as edge lists,
so the corpus does not depend on the sampler.
"""

import pytest

from setgraceful.graph import make_complete_bipartite, make_cycle
from setgraceful.labeling import validate
from setgraceful.search import SearchConfig, search

from test_symmetry import K6, M5_CASES, graph_from

# 2**4 * |GL(4,2)|: the affine orbit of one labeling at m = 4.
ORBIT_M4 = 322_560

# Seed, edges, count_raw and count-mode nodes_explored.
TREES_WITH_LABELING = [
    (0, "0-12 1-5 1-8 2-13 3-4 3-15 4-6 4-9 6-11 7-15 8-12 9-10 9-14 11-13 12-15",
     123_217_920, 348_058),
    (1, "0-12 0-14 1-4 2-4 2-8 3-5 3-6 3-15 6-11 7-15 8-14 9-15 10-12 12-13 13-15",
     72_898_560, 413_845),
    (2, "0-1 1-5 1-6 2-3 2-4 2-11 5-7 5-13 6-8 8-9 9-10 11-12 11-14 12-13 14-15",
     69_672_960, 335_299),
    (3, "0-2 0-15 1-7 2-10 3-4 4-12 4-15 5-11 6-7 6-15 7-8 8-11 9-15 12-14 13-15",
     67_092_480, 381_387),
    (4, "0-2 0-12 1-7 1-9 2-4 2-14 3-8 3-12 4-13 5-7 6-9 7-11 9-12 10-15 11-15",
     87_736_320, 345_727),
    (5, "0-6 0-14 1-5 1-9 2-8 3-5 3-7 3-12 4-11 7-8 7-13 7-15 10-11 11-15 12-14",
     86_446_080, 345_587),
    (6, "0-1 0-8 0-10 1-7 2-3 2-15 4-9 4-15 5-8 6-13 6-14 8-15 10-11 11-12 13-15",
     119_992_320, 366_134),
    (7, "0-10 1-2 1-6 1-7 1-10 2-8 2-13 2-15 3-9 3-11 4-5 4-12 6-11 12-13 13-14",
     70_963_200, 384_689),
    (8, "0-12 0-14 1-2 1-11 2-4 3-7 4-7 4-9 5-11 6-7 6-10 6-12 8-12 13-15 14-15",
     119_992_320, 368_268),
    (9, "0-9 0-10 1-10 1-12 2-10 2-13 3-14 4-5 4-8 5-12 5-14 6-11 7-8 11-14 14-15",
     95_477_760, 338_049),
]

# Seed, edges and count-mode nodes_explored; count_raw is 0.
TREES_WITHOUT_LABELING = [
    (12, "0-4 0-7 0-9 1-15 2-8 3-11 4-5 4-14 6-12 7-13 8-12 8-14 10-11 11-15 14-15", 376_264),
    (14, "0-3 1-7 2-10 2-14 3-8 3-12 4-8 5-8 6-9 7-8 7-15 9-11 9-14 12-13 12-14", 444_034),
    (44, "0-3 0-11 0-14 1-13 2-3 3-5 3-7 4-5 5-9 6-12 7-8 7-13 9-10 9-12 12-15", 430_491),
    (45, "0-3 0-10 0-13 1-8 2-7 2-12 2-15 3-9 3-15 4-13 5-15 6-8 8-9 9-14 10-11", 361_156),
    (46, "0-1 0-4 0-12 1-6 1-11 1-14 2-3 2-10 2-13 4-7 4-9 5-12 7-8 9-10 10-15", 353_459),
    (115, "0-9 1-4 1-9 1-12 2-6 3-5 3-6 3-10 4-13 4-14 7-9 8-9 9-15 10-11 10-15", 528_886),
    (136, "0-13 1-2 1-5 1-6 1-12 1-14 3-13 4-5 4-10 5-13 6-8 6-15 7-15 9-13 11-15", 453_587),
    (202, "0-12 1-9 1-10 1-14 2-15 3-13 4-6 5-6 6-7 6-10 7-15 8-12 11-13 12-14 13-14", 435_387),
    (225, "0-4 0-5 0-8 1-7 2-5 3-4 4-11 5-13 6-7 6-9 6-10 7-8 9-14 9-15 11-12", 369_775),
    (238, "0-11 1-2 1-3 2-5 2-6 2-8 2-10 3-12 4-5 4-11 5-9 7-13 9-13 9-14 13-15", 487_741),
]

# Name, graph, count_raw and count-mode nodes_explored.
FIXED = [
    *((name, graph_from(text), count, nodes) for (text, count), name, nodes in zip(
        M5_CASES, ("15-vertex", "14-vertex-a", "14-vertex-b", "14-vertex-none"),
        (39_477, 40_336, 30_459, 23_477))),
    ("K_{3,5}", make_complete_bipartite(3, 5), 0, 243),
    ("C_15", make_cycle(15), 1_117_347_840, 278_627),
    ("K_6", K6, 322_560, 21),
]


# The gauge's graphs that have a labeling, with C_7 and K_{1,7}.
LABELED = [
    *((f"seed-{seed}", graph_from(edges)) for seed, edges, _, _ in TREES_WITH_LABELING),
    *((name, g) for name, g, count, _ in FIXED if count),
    ("C_7", make_cycle(7)),
    ("K_{1,7}", make_complete_bipartite(1, 7)),
]


def count_mode(g):
    outcome = search(g, SearchConfig(mode="count"))
    assert outcome.exhausted and outcome.reason is None
    return outcome.count_raw, outcome.nodes_explored


@pytest.mark.parametrize("seed, edges, count, nodes", TREES_WITH_LABELING,
                         ids=[f"seed-{case[0]}" for case in TREES_WITH_LABELING])
def test_tree_with_labeling(seed, edges, count, nodes):
    g = graph_from(edges)
    assert count_mode(g) == (count, nodes)
    assert count > 0 and count % ORBIT_M4 == 0
    first = search(g, SearchConfig(mode="first"))
    assert validate(g, first.witnesses[0]).valid


@pytest.mark.parametrize("seed, edges, nodes", TREES_WITHOUT_LABELING,
                         ids=[f"seed-{case[0]}" for case in TREES_WITHOUT_LABELING])
def test_tree_without_labeling(seed, edges, nodes):
    g = graph_from(edges)
    assert count_mode(g) == (0, nodes)
    # First mode walks the count-mode tree until a witness, so with none it
    # exhausts the same tree.
    first = search(g, SearchConfig(mode="first"))
    assert first.exhausted and first.count_raw == 0 and first.witnesses == ()
    assert first.nodes_explored == nodes


@pytest.mark.parametrize("name, g, count, nodes", FIXED, ids=[case[0] for case in FIXED])
def test_fixed_graph(name, g, count, nodes):
    assert count_mode(g) == (count, nodes)


@pytest.mark.parametrize("name, g", LABELED, ids=[case[0] for case in LABELED])
def test_first_mode_is_count_mode_stopped_at_its_first_solution(name, g):
    # Both modes read one walk of the canonical tree.  First mode closes it
    # at its first solution and still reports the nodes it spent, so a count
    # limited to that many nodes finds exactly that solution, and one fewer
    # finds none.
    first = search(g, SearchConfig(mode="first"))
    nodes = first.nodes_explored
    assert first.count_raw > 0
    assert search(g, SearchConfig("count", node_limit=nodes)).count_raw == first.count_raw
    assert search(g, SearchConfig("count", node_limit=nodes - 1)).count_raw == 0
