"""The backtracking engine against the oracle, plus its symmetry and limit contracts."""

import time

import pytest

from setgraceful.graph import Graph, make_complete_bipartite, make_cycle, make_path
from setgraceful.labeling import validate
from setgraceful.oracle import brute_force_enumerate
from setgraceful.search import SearchConfig, _tree_search, search, vertex_order

from conftest import FEASIBLE_CORPUS, INFEASIBLE_CORPUS


def test_vertex_order_star_center_first():
    assert vertex_order(make_complete_bipartite(1, 3))[0] == 0


def test_vertex_order_path4_starts_inner():
    # Max degree is 2, shared by vertices 1 and 2; index tie-break picks 1.
    order = vertex_order(make_path(4))
    assert order[0] == 1


def test_vertex_order_edgeless_ascending():
    assert vertex_order(Graph(3, ())) == [0, 1, 2]


def test_vertex_order_isolated_vertices_last():
    g = Graph(5, ((3, 4),))
    order = vertex_order(g)
    assert set(order[:2]) == {3, 4}
    assert order[2:] == [0, 1, 2]


def test_vertex_order_is_permutation():
    for _, g, _ in FEASIBLE_CORPUS:
        assert sorted(vertex_order(g)) == list(range(g.n))


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(mode="every")
    with pytest.raises(ValueError):
        SearchConfig(node_limit=0)


@pytest.mark.parametrize("name,g,m", FEASIBLE_CORPUS, ids=[c[0] for c in FEASIBLE_CORPUS])
def test_oracle_equivalence(name, g, m):
    expected = len(brute_force_enumerate(g, m))
    outcome = search(g, SearchConfig(mode="count"))
    assert outcome.m == m
    assert outcome.exhausted
    assert outcome.count_raw == expected


@pytest.mark.parametrize("name,g,m", FEASIBLE_CORPUS, ids=[c[0] for c in FEASIBLE_CORPUS])
def test_symmetry_off_matches_on(name, g, m):
    on = search(g, SearchConfig(mode="count"))
    off = search(g, SearchConfig(mode="count", symmetry="none"))
    assert on.count_raw == off.count_raw
    assert on.count_anchored == off.count_anchored
    # Anchoring prunes the root fan-out, never adds work.
    assert on.nodes_explored <= off.nodes_explored


@pytest.mark.parametrize("name,g,m", FEASIBLE_CORPUS, ids=[c[0] for c in FEASIBLE_CORPUS])
def test_count_divisible_by_universe(name, g, m):
    outcome = search(g, SearchConfig(mode="count", symmetry="none"))
    assert outcome.count_raw % (1 << m) == 0
    assert outcome.count_raw == outcome.count_anchored * (1 << m)


def test_pinned_counts():
    # Frozen from the oracle runs: all injective maps work on these graphs.
    assert search(make_complete_bipartite(1, 1)).count_raw == 2
    assert search(make_complete_bipartite(1, 3)).count_raw == 24
    assert search(make_cycle(3)).count_raw == 24
    assert search(make_path(4)).count_raw == 0
    assert search(make_cycle(7)).count_raw == 2688


def test_star_m3_anchored_identity():
    outcome = search(make_complete_bipartite(1, 7))
    assert outcome.count_anchored == 5040
    assert outcome.count_raw == 5040 * 8 == 40320


@pytest.mark.parametrize("name,g", INFEASIBLE_CORPUS, ids=[c[0] for c in INFEASIBLE_CORPUS])
def test_infeasible_zero_with_reason(name, g):
    outcome = search(g)
    assert outcome.count_raw == 0
    assert outcome.exhausted
    assert outcome.m is None
    assert "2^m - 1" in outcome.reason


def test_witnesses_all_mode_match_oracle():
    g = make_cycle(3)
    expected = [f.values for f in brute_force_enumerate(g, 2)]
    outcome = search(g, SearchConfig(mode="all"))
    got = [w.values for w in outcome.witnesses]
    assert sorted(got) == sorted(expected)
    assert all(validate(g, w).valid for w in outcome.witnesses)


def test_witnesses_all_mode_sorted_by_order_sequence():
    g = make_cycle(3)
    order = vertex_order(g)
    outcome = search(g, SearchConfig(mode="all"))
    keys = [tuple(w.values[v] for v in order) for w in outcome.witnesses]
    assert keys == sorted(keys)


def test_first_mode_returns_single_valid_witness():
    g = make_complete_bipartite(1, 7)
    outcome = search(g, SearchConfig(mode="first"))
    assert len(outcome.witnesses) == 1
    assert validate(g, outcome.witnesses[0]).valid
    assert outcome.exhausted


def test_first_mode_exhausts_on_unsat():
    outcome = search(make_path(4), SearchConfig(mode="first"))
    assert outcome.witnesses == ()
    assert outcome.exhausted
    assert outcome.count_raw == 0


def test_node_limit_stops_early():
    g = make_complete_bipartite(1, 7)
    full = search(g, SearchConfig(mode="count", symmetry="translation"))
    limited = search(g, SearchConfig(mode="count", symmetry="translation", node_limit=100))
    assert not limited.exhausted
    assert limited.nodes_explored == 100
    assert limited.count_raw <= full.count_raw


def test_node_limit_one_stops_after_first_attempt():
    outcome = search(make_cycle(7), SearchConfig(mode="count", node_limit=1))
    assert outcome.nodes_explored == 1
    assert not outcome.exhausted


def test_pinned_node_counts():
    # Every assignment attempt counts, pruned ones included.
    first = search(make_cycle(15), SearchConfig(mode="first", symmetry="translation"))
    assert first.nodes_explored == 31_515
    assert len(first.witnesses) == 1
    assert search(make_cycle(7), SearchConfig(symmetry="translation")).nodes_explored == 2_948
    off = SearchConfig(mode="count", symmetry="none")
    assert search(make_cycle(7), off).nodes_explored == 23_584
    # The parity check answers P_8 first; the tree walk below it is pinned alone.
    translation = SearchConfig(symmetry="translation")
    assert _tree_search(make_path(8), 3, translation).nodes_explored == 3_284
    assert search(make_path(8), translation).nodes_explored == 0
    star = search(make_complete_bipartite(1, 7), SearchConfig(mode="all", symmetry="translation"))
    assert star.nodes_explored == 13_700


def test_node_limit_larger_than_tree_is_harmless():
    g = make_cycle(3)
    full = search(g, SearchConfig(mode="count"))
    limited = search(g, SearchConfig(mode="count", node_limit=10**9))
    assert limited.exhausted
    assert limited.count_raw == full.count_raw


def test_k35_exhausts_with_zero():
    outcome = search(make_complete_bipartite(3, 5), SearchConfig(mode="count", symmetry="translation"))
    assert outcome.m == 4
    assert outcome.exhausted
    assert outcome.count_raw == 0
    assert outcome.nodes_explored == 4_624_636


def test_single_vertex_graph():
    for sym in ("affine", "translation", "none"):
        outcome = search(Graph(1, ()), SearchConfig(symmetry=sym))
        assert outcome.m == 0
        assert outcome.count_raw == 1
        assert outcome.count_anchored == 1
        assert outcome.nodes_explored == 1


def test_empty_graph():
    outcome = search(Graph(0, ()))
    assert outcome.count_raw == 1
    assert outcome.exhausted


def test_too_many_vertices_for_universe():
    # One edge forces m = 1, but four vertices cannot take distinct labels.
    g = Graph(4, ((0, 1),))
    outcome = search(g)
    assert outcome.m == 1
    assert outcome.count_raw == 0
    assert outcome.exhausted


def test_more_vertices_than_labels_answers_without_search():
    # The answer needs no per-vertex state, so ten million vertices cost nothing.
    t0 = time.perf_counter()
    outcome = search(Graph(10**7, ((0, 1),)))
    assert time.perf_counter() - t0 < 1
    assert outcome.m == 1
    assert outcome.count_raw == 0
    assert outcome.exhausted
    assert outcome.nodes_explored == 0
    assert outcome.reason is None


def test_config_rejects_unknown_symmetry():
    with pytest.raises(ValueError):
        SearchConfig(symmetry="rotation")


# Affine symmetry: one canonical labeling per AGL(m,2) orbit, orbit size
# 2**m * |GL(m,2)| (1,344 at m=3, 322,560 at m=4).


def test_affine_k35_k53_exhaust_with_zero():
    for p, q in ((3, 5), (5, 3)):
        outcome = search(make_complete_bipartite(p, q), SearchConfig(mode="count"))
        assert outcome.m == 4
        assert outcome.exhausted
        assert outcome.count_raw == 0
        assert outcome.nodes_explored == 243


def test_affine_p16_has_no_labeling():
    # The ends 0 and 15 are the only odd-degree vertices: search() answers by
    # parity without a node, and the tree walk agrees after 282,091 nodes.
    cfg = SearchConfig(mode="first")
    outcome = search(make_path(16), cfg)
    assert outcome.m == 4
    assert outcome.exhausted
    assert outcome.count_raw == outcome.count_anchored == 0
    assert outcome.witnesses == ()
    assert outcome.nodes_explored == 0
    assert "vertices 0 and 15" in outcome.reason
    walked = _tree_search(make_path(16), 4, cfg)
    assert walked.exhausted
    assert walked.count_raw == 0
    assert walked.witnesses == ()
    assert walked.nodes_explored == 282_091
    assert walked.reason is None


def test_affine_c15_count():
    outcome = search(make_cycle(15), SearchConfig(mode="count"))
    assert outcome.exhausted
    assert outcome.count_raw == 1_117_347_840 == 3_464 * 322_560
    assert outcome.count_anchored == 3_464 * 20_160
    assert outcome.nodes_explored == 278_627


def test_affine_c15_first_matches_translation_witness():
    witness = (0, 1, 2, 4, 3, 8, 5, 10, 6, 12, 9, 11, 15, 7, 14)
    affine = search(make_cycle(15), SearchConfig(mode="first"))
    translation = search(make_cycle(15), SearchConfig(mode="first", symmetry="translation"))
    assert affine.nodes_explored == 4_831
    assert affine.witnesses[0].values == translation.witnesses[0].values == witness
    # First-mode counts cover the witness's whole orbit.
    assert (affine.count_raw, affine.count_anchored) == (322_560, 20_160)
    assert (translation.count_raw, translation.count_anchored) == (16, 1)


def test_affine_pinned_node_counts():
    assert search(make_cycle(7)).nodes_explored == 21
    assert _tree_search(make_path(8), 3, SearchConfig()).nodes_explored == 23
    p8 = search(make_path(8))
    assert (p8.m, p8.nodes_explored, p8.count_raw, p8.exhausted) == (3, 0, 0, True)
    assert "vertices 0 and 7" in p8.reason


def test_all_mode_searches_with_translation_symmetry():
    # All mode lists every labeling, so it keeps the translation tree and
    # its node count even when affine symmetry is set.
    g = make_complete_bipartite(1, 7)
    star = search(g, SearchConfig(mode="all"))
    assert star == search(g, SearchConfig(mode="all", symmetry="translation"))
    assert star.nodes_explored == 13_700
    assert len(star.witnesses) == star.count_raw == 40_320


def test_all_mode_node_limit_bounds_witnesses():
    limited = search(make_complete_bipartite(1, 15), SearchConfig(mode="all", node_limit=1000))
    assert not limited.exhausted
    assert limited.nodes_explored == 1000
    assert 0 < len(limited.witnesses) == limited.count_raw < 20_000


def test_affine_node_limit_stops_early():
    g = make_complete_bipartite(1, 7)
    limited = search(g, SearchConfig(mode="count", node_limit=50))
    assert not limited.exhausted
    assert limited.nodes_explored == 50
    assert 0 < limited.count_raw < 40_320
    assert limited.count_raw % 1_344 == 0
