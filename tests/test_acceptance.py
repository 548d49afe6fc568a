"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All counts are exact; the timed criteria assert their stated budgets.
"""

import math
import random
import time
from pathlib import Path

from setgraceful.conditions import feasible_ground_size, proof_trace
from setgraceful.graph import Graph, make_complete_bipartite
from setgraceful.labeling import Labeling, edge_labels, validate
from setgraceful.oracle import brute_force_enumerate
from setgraceful.search import SearchConfig, search

from conftest import FEASIBLE_CORPUS, INFEASIBLE_CORPUS

DATA = Path(__file__).parent / "data"


def _ok(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_theorem_confirmation_m4():
    t0 = time.time()
    outcome = search(make_complete_bipartite(3, 5), SearchConfig(mode="count"))
    elapsed = time.time() - t0
    trace = proof_trace(3, 5)
    assert trace is not None and trace.m == 4
    assert outcome.exhausted
    assert outcome.count_raw == 0
    assert outcome.m == 4
    assert elapsed < 60
    _ok("theorem-confirmation-m4",
        f"K_{{3,5}} exhausted with count_raw=0 in {elapsed:.1f}s, "
        f"nodes={outcome.nodes_explored}")


def test_theorem_confirmation_m_le_3():
    t0 = time.time()
    checked = []
    for m in (1, 2, 3):
        target = (1 << m) - 1
        for p in range(1, target + 1):
            if target % p:
                continue
            q = target // p
            outcome = search(make_complete_bipartite(p, q), SearchConfig(mode="count"))
            assert outcome.exhausted
            assert (outcome.count_raw > 0) == (proof_trace(p, q) is None)
            checked.append((p, q, outcome.count_raw))
    elapsed = time.time() - t0
    assert elapsed < 5
    # 1, 3, and 7 are prime, so every pair is a star with a positive count.
    assert all(count > 0 for _, _, count in checked)
    _ok("theorem-confirmation-m-le-3",
        f"{len(checked)} factor pairs agree in {elapsed:.2f}s")


def test_star_counts_factorial():
    t0 = time.time()
    for m in (1, 2):
        g = make_complete_bipartite(1, (1 << m) - 1)
        oracle_count = len(list(brute_force_enumerate(g, m)))
        outcome = search(g, SearchConfig(mode="count"))
        assert oracle_count == outcome.count_raw == math.factorial(1 << m)
    outcome = search(make_complete_bipartite(1, 7), SearchConfig(mode="count"))
    assert outcome.count_raw == 5040 * 2**3 == 40320 == math.factorial(8)
    elapsed = time.time() - t0
    assert elapsed < 10
    _ok("star-counts", f"2, 24, 40320 reproduced in {elapsed:.2f}s")


def test_oracle_equivalence_suite():
    for name, g, m in FEASIBLE_CORPUS:
        expected = len(list(brute_force_enumerate(g, m)))
        outcome = search(g, SearchConfig(mode="count"))
        assert outcome.exhausted
        assert outcome.count_raw == expected, name
    for name, g in INFEASIBLE_CORPUS:
        outcome = search(g)
        assert outcome.count_raw == 0
        assert outcome.reason is not None and "2^m - 1" in outcome.reason, name
    _ok("oracle-equivalence",
        f"{len(FEASIBLE_CORPUS)} feasible + {len(INFEASIBLE_CORPUS)} infeasible members agree")


def test_translation_property_suite():
    rng = random.Random(20240817)
    violations = 0
    for _ in range(1000):
        n = rng.randint(1, 7)
        m = rng.randint(0, 5)
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = tuple(e for e in possible if rng.random() < 0.5)
        g = Graph(n, edges)
        f = Labeling(m, tuple(rng.randrange(1 << m) for _ in range(n)))
        a = rng.randrange(1 << m)
        # Translation by a: XOR every vertex label with a.
        moved = Labeling(m, tuple(v ^ a for v in f.values))
        if edge_labels(g, moved) != edge_labels(g, f):
            violations += 1
        if tuple(v ^ a for v in moved.values) != f.values:
            violations += 1
        if validate(g, moved).valid != validate(g, f).valid:
            violations += 1
    assert violations == 0
    for name, g, m in FEASIBLE_CORPUS:
        outcome = search(g, SearchConfig(mode="count"))
        assert outcome.count_raw % (1 << m) == 0, name
    _ok("translation-properties",
        "1000 random triples plus corpus divisibility, zero violations")


def test_edge_count_identity_all_sides_up_to_32():
    rng = random.Random(5)
    infeasible_pairs = 0
    for p in range(1, 33):
        for q in range(1, 33):
            t = p * q + 1
            if t & (t - 1) == 0:
                continue  # feasible edge count; covered by the decision tests
            g = make_complete_bipartite(p, q)
            assert feasible_ground_size(g) is None
            infeasible_pairs += 1
            m = (p * q).bit_length()  # 2**m > pq >= p + q - 1, so labels suffice
            for _ in range(3):
                f = Labeling(m, tuple(rng.sample(range(1 << m), g.n)))
                assert not validate(g, f).valid
    assert infeasible_pairs > 900
    _ok("edge-count-identity",
        f"{infeasible_pairs} infeasible (p,q) pairs all reject, zero acceptances")


def test_proof_trace_golden():
    for p, q in ((3, 5), (7, 9)):
        expected = (DATA / f"trace_{p}_{q}.txt").read_text()
        trace = proof_trace(p, q)
        assert len(trace.steps) == 9
        assert trace.steps[-1].kind == "OddUniverseContradiction"
        assert trace.render() + "\n" == expected
    _ok("proof-trace-golden", "traces for (3,5) and (7,9) match the pinned text")

