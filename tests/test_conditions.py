"""Feasibility, the star decision, the star labeling, and proof traces."""

from pathlib import Path

import pytest

from setgraceful.conditions import ProofStep, feasible_ground_size, proof_trace
from setgraceful.graph import Graph, make_complete_bipartite, make_cycle, make_path
from setgraceful.labeling import Labeling, edge_labels, validate
from setgraceful.search import SearchConfig, search

DATA = Path(__file__).parent / "data"


def graph_with_edge_count(k: int) -> Graph:
    return make_path(k + 1)


def test_feasible_seven_edges():
    assert feasible_ground_size(graph_with_edge_count(7)) == 3


def test_feasible_k35():
    assert feasible_ground_size(make_complete_bipartite(3, 5)) == 4


def test_infeasible_six_edges():
    assert feasible_ground_size(graph_with_edge_count(6)) is None


def test_feasible_zero_edges_m0():
    assert feasible_ground_size(make_path(1)) == 0


def star_labeling(m: int) -> tuple[Graph, Labeling]:
    """K_{1,2^m-1} with center 0 and leaf i labeled i; the one-vertex graph at m = 0."""
    g = make_complete_bipartite(1, (1 << m) - 1) if m else Graph(1, ())
    return g, Labeling(m, range(1 << m))


def test_feasibility_is_necessary_for_validity():
    # Whenever validate accepts, the forced ground size matches the labeling's m.
    for g in (make_path(2), make_cycle(3), make_complete_bipartite(1, 3)):
        outcome = search(g, SearchConfig("all"))
        assert outcome.witnesses
        for f in outcome.witnesses:
            assert validate(g, f).valid
            assert feasible_ground_size(g) == f.m


@pytest.mark.parametrize("m", range(11))
def test_star_construction_validates(m):
    # The star half of the theorem: every nonempty edge label occurs once.
    g, f = star_labeling(m)
    assert g.n == 1 << m
    assert validate(g, f).valid
    assert feasible_ground_size(g) == m
    assert sorted(edge_labels(g, f)) == list(range(1, 1 << m))


def test_star_construction_m1_is_k2():
    g, f = star_labeling(1)
    assert g.edges == ((0, 1),)
    assert f.values == (0, 1)


def test_star_construction_m3_edge_labels():
    g, f = star_labeling(3)
    assert sorted(edge_labels(g, f)) == list(range(1, 8))


def test_star_construction_rejects_above_cap():
    # The star's labeling at m = 31 is refused by the ground-size cap.
    with pytest.raises(ValueError, match="cap"):
        Labeling(31, ())


def test_decision_3_5_impossible():
    t = proof_trace(3, 5)
    assert t is not None and t.m == 4


def test_decision_1_7_star():
    # A star admits a labeling, so neither orientation has a contradiction to trace.
    assert proof_trace(1, 7) is None
    assert proof_trace(7, 1) is None


def test_decision_2_4_infeasible():
    # No ground size fits 8 edges: proof_trace refuses the pair, and search
    # answers with m None.
    with pytest.raises(ValueError, match="edge count 8 is not 2\\^m - 1"):
        proof_trace(2, 4)
    outcome = search(make_complete_bipartite(2, 4))
    assert outcome.m is None and outcome.count_raw == 0


def test_decision_rejects_zero_side():
    with pytest.raises(ValueError, match="side sizes must be positive"):
        proof_trace(0, 3)


def test_decision_agrees_with_search_up_to_m4():
    # Exhaustive cross-check at desk scale; m = 4 stars only need existence.
    for m in range(1, 5):
        target = (1 << m) - 1
        for p in range(1, target + 1):
            if target % p:
                continue
            q = target // p
            mode = "count" if (p != 1 and q != 1) or m <= 3 else "first"
            outcome = search(make_complete_bipartite(p, q), SearchConfig(mode=mode))
            assert outcome.exhausted
            assert (outcome.count_raw > 0) == (proof_trace(p, q) is None)


def test_trace_is_none_exactly_for_stars_through_m10():
    pairs = 0
    for m in range(1, 11):
        target = (1 << m) - 1
        for p in range(1, target + 1):
            if target % p == 0:
                q = target // p
                assert (proof_trace(p, q) is None) == (p == 1 or q == 1)
                pairs += 1
    # 1, 3, 7, 15, 31, 63, 127, 255, 511, 1023 have 1, 2, 2, 4, 2, 6, 2, 8, 4, 8 divisors.
    assert pairs == 39


def test_trace_rejects_infeasible_edge_count():
    with pytest.raises(ValueError, match="not 2\\^m - 1"):
        proof_trace(2, 4)


def test_trace_3_5_shape():
    t = proof_trace(3, 5)
    assert t.m == 4
    assert tuple(s.kind for s in t.steps) == (
        "EdgeCountIdentity",
        "NonStarProduct",
        "UniverseExceedsVertices",
        "TranslationWitnessExists",
        "EmptyExcluded",
        "UniqueDecomposition",
        "InvolutionPairing",
        "EvenSide",
        "OddUniverseContradiction",
    )


@pytest.mark.parametrize("pair", [(3, 5), (7, 9)])
def test_trace_golden_rendering(pair):
    p, q = pair
    expected = (DATA / f"trace_{p}_{q}.txt").read_text()
    assert proof_trace(p, q).render() + "\n" == expected


def test_trace_arithmetic_rechecks_through_m10():
    checked = 0
    for m in range(1, 11):
        target = (1 << m) - 1
        for p in range(2, target):
            if target % p or target // p < 2:
                continue
            t = proof_trace(p, target // p)
            assert all(step.recheck() for step in t.steps)
            checked += 1
    assert checked > 0  # 15, 63, 255, 511, 1023 all factor non-trivially


def test_trace_recheck_rejects_tampered_numbers():
    steps = {s.kind: s for s in proof_trace(3, 5).steps}

    def tampered(step, **numbers):
        return ProofStep(step.kind, {**step.numbers, **numbers}, step.conclusion)

    even = steps["EvenSide"]
    assert not tampered(even, p=4).recheck()
    # An even side whose product still matches the edge count fails on parity alone.
    assert not tampered(even, p=2, q=7, universe=15).recheck()
    pairing = steps["InvolutionPairing"]
    assert not tampered(pairing, p=1).recheck()


def test_no_recheck_is_vacuous():
    # Each step's recheck reads its numbers: some single recorded number,
    # moved by one either way or set to 0, makes it fail.
    for step in proof_trace(3, 5).steps:
        tampered = [ProofStep(step.kind, {**step.numbers, key: new}, step.conclusion)
                    for key, value in step.numbers.items()
                    for new in (value - 1, value + 1, 0) if new != value]
        assert not all(t.recheck() for t in tampered), step.kind
