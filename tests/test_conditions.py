"""Feasibility, the star decision, the constructive witness, and proof traces."""

from pathlib import Path

import pytest

from setgraceful.conditions import (
    EDGE_COUNT_INFEASIBLE,
    NON_STAR_IMPOSSIBLE,
    STAR_ADMITS,
    ProofStep,
    TraceNotApplicableError,
    construct_star_labeling,
    feasible_ground_size,
    proof_trace,
    star_theorem_decision,
)
from setgraceful.graph import Graph, make_complete_bipartite, make_cycle, make_path
from setgraceful.labeling import validate
from setgraceful.search import SearchConfig, search

DATA = Path(__file__).parent / "data"


def graph_with_edge_count(k: int) -> Graph:
    return make_path(k + 1)


def test_feasible_seven_edges():
    v = feasible_ground_size(graph_with_edge_count(7))
    assert v.feasible and v.m == 3


def test_feasible_k35():
    v = feasible_ground_size(make_complete_bipartite(3, 5))
    assert v.feasible and v.m == 4


def test_infeasible_six_edges():
    v = feasible_ground_size(graph_with_edge_count(6))
    assert not v.feasible and v.m is None


def test_feasible_zero_edges_m0():
    v = feasible_ground_size(make_path(1))
    assert v.feasible and v.m == 0


def test_feasibility_is_necessary_for_validity():
    # Whenever validate accepts, the forced ground size matches the labeling's m.
    for m in range(4):
        g, f = construct_star_labeling(m)
        assert validate(g, f).valid
        assert feasible_ground_size(g).m == f.m


def test_decision_3_5_impossible():
    d = star_theorem_decision(3, 5)
    assert d.kind == NON_STAR_IMPOSSIBLE and d.m == 4


def test_decision_1_7_star():
    d = star_theorem_decision(1, 7)
    assert d.kind == STAR_ADMITS and d.m == 3


def test_decision_2_4_infeasible():
    d = star_theorem_decision(2, 4)
    assert d.kind == EDGE_COUNT_INFEASIBLE and d.m is None


def test_decision_rejects_zero_side():
    with pytest.raises(ValueError):
        star_theorem_decision(0, 3)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_star_construction_validates(m):
    g, f = construct_star_labeling(m)
    assert g.n == 1 << m
    assert validate(g, f).valid


def test_star_construction_m1_is_k2():
    g, f = construct_star_labeling(1)
    assert g.edges == ((0, 1),)
    assert f.values == (0, 1)


def test_star_construction_m3_edge_labels():
    from setgraceful.labeling import edge_labels

    g, f = construct_star_labeling(3)
    assert sorted(edge_labels(g, f)) == list(range(1, 8))


def test_star_construction_rejects_above_cap():
    with pytest.raises(ValueError):
        construct_star_labeling(31)


def test_decision_agrees_with_search_up_to_m4():
    # Exhaustive cross-check at desk scale; m = 4 stars only need existence.
    for m in range(1, 5):
        target = (1 << m) - 1
        for p in range(1, target + 1):
            if target % p:
                continue
            q = target // p
            decision = star_theorem_decision(p, q)
            mode = "count" if (p != 1 and q != 1) or m <= 3 else "first"
            outcome = search(make_complete_bipartite(p, q), SearchConfig(mode=mode))
            assert outcome.exhausted
            assert (outcome.count_raw > 0) == (decision.kind == STAR_ADMITS)


def test_trace_rejects_star():
    with pytest.raises(TraceNotApplicableError):
        proof_trace(1, 7)


def test_trace_rejects_infeasible_edge_count():
    with pytest.raises(ValueError, match="not 2\\^m - 1"):
        proof_trace(2, 4)


def test_trace_3_5_shape():
    from setgraceful.conditions import STEP_KINDS

    t = proof_trace(3, 5)
    assert t.m == 4
    assert tuple(s.kind for s in t.steps) == STEP_KINDS == (
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
