"""The brute-force enumerator is the reference the searcher is judged against."""

import ast
import itertools
import math
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings

from setgraceful.graph import Graph, make_complete_bipartite, make_cycle, make_path
from setgraceful.labeling import Labeling, edges_cover_once, validate
from setgraceful.oracle import brute_force_enumerate

from conftest import predicate_cases, set_graceful_by_definition


def test_k2_both_bijections():
    found = brute_force_enumerate(make_complete_bipartite(1, 1), 1)
    assert iter(found) is found
    assert [f.values for f in found] == [(0, 1), (1, 0)]
    assert list(found) == []


def test_p4_has_none():
    assert list(brute_force_enumerate(make_path(4), 2)) == []


def test_k13_all_bijections_work():
    assert len(list(brute_force_enumerate(make_complete_bipartite(1, 3), 2))) == 24


def test_results_are_valid_and_lexicographic():
    found = list(brute_force_enumerate(make_cycle(3), 2))
    values = [f.values for f in found]
    assert values == sorted(values)
    g = make_cycle(3)
    assert all(validate(g, f).valid for f in found)


def test_inconsistent_m_yields_empty():
    # Wrong ground size for the edge count is allowed and finds nothing.
    assert list(brute_force_enumerate(make_path(4), 3)) == []


def test_cap_refusal_reports_size():
    g = make_complete_bipartite(3, 5)
    # 16!/8! injective maps, against the cap of 10**7.  Both refusals raise
    # at the call itself, before any next() on the iterator.
    with pytest.raises(RuntimeError,
                       match=re.escape("would enumerate 518918400 assignments (cap 10000000)")):
        brute_force_enumerate(g, 4)
    with pytest.raises(ValueError, match="ground size 31 exceeds the supported cap 30"):
        brute_force_enumerate(make_path(2), 31)


def test_oracle_streams_its_labelings():
    # K_{1,7} has 40,320 labelings at m = 3, about 6 MB as a list; consumed
    # one at a time they need no more than one Labeling.
    tracemalloc.start()
    try:
        count = sum(1 for _ in brute_force_enumerate(make_complete_bipartite(1, 7), 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 40_320
    assert peak < 1 << 19


def test_omitted_assignments_really_fail():
    # Spot-check: re-filtering all injective maps finds exactly the survivors.
    g = make_cycle(3)
    survivors = {f.values for f in brute_force_enumerate(g, 2)}
    for assignment in itertools.permutations(range(4), 3):
        ok = validate(g, Labeling(2, assignment)).valid
        assert ok == (assignment in survivors)


def validator_filtered(g, m):
    """The oracle as it was first written: every assignment through validate."""
    found = []
    for assignment in itertools.permutations(range(1 << m), g.n):
        candidate = Labeling(m, assignment)
        if validate(g, candidate).valid:
            found.append(candidate)
    return found


def every_small_graph():
    """(graph, m) for every simple graph on at most 2**m vertices, m <= 2."""
    for m in range(3):
        for n in range((1 << m) + 1):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                yield Graph(n, tuple(e for i, e in enumerate(pairs) if bits >> i & 1)), m


def test_oracle_matches_validator_filter_on_every_small_graph():
    cases = list(every_small_graph())
    # Graphs on 0..2**m vertices: 2 for m = 0, 4 for m = 1, 76 for m = 2.
    assert len(cases) == 2 + 4 + 76
    hits = 0
    for g, m in cases:
        found = list(brute_force_enumerate(g, m))
        assert found == validator_filtered(g, m), (g, m)
        hits += len(found)
    assert hits > 0


def test_oracle_matches_validator_filter_on_random_m3_graphs():
    rng = random.Random(5)
    hits = 0
    for n, edges in ((5, 7), (6, 7), (7, 7), (8, 7), (6, 6)):
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph(n, tuple(rng.sample(pairs, edges)))
        found = list(brute_force_enumerate(g, 3))
        assert found == validator_filtered(g, 3), g
        hits += len(found)
    assert hits > 0


def definition_filtered(g, m):
    """Every injective assignment, in lexicographic order, that the
    definition accepts; shares no code with the oracle or the predicate."""
    return [a for a in itertools.permutations(range(1 << m), g.n)
            if set_graceful_by_definition(g, m, a)]


def test_every_small_graph_matches_definition():
    # All assignments, not only injective ones, so the predicate's vertex
    # checks are judged too.
    for g, m in every_small_graph():
        for values in itertools.product(range(1 << m), repeat=g.n):
            expected = set_graceful_by_definition(g, m, values)
            assert validate(g, Labeling(m, values)).valid == expected, (g, m, values)
        found = [f.values for f in brute_force_enumerate(g, m)]
        assert found == definition_filtered(g, m), (g, m)


# A case may take 40,320 assignments through the definition, over the deadline.
@settings(deadline=None)
@given(predicate_cases())
def test_oracle_matches_definition(case):
    g, m, _ = case
    assert [f.values for f in brute_force_enumerate(g, m)] == definition_filtered(g, m)


def test_oracle_tests_every_injective_assignment(monkeypatch):
    # The edge test is the oracle's only test, so one call per assignment
    # means no assignment was skipped: no pruning, no edge-count shortcut.
    calls = []

    def counting(edges, full, values):
        calls.append(values)
        return edges_cover_once(edges, full, values)

    monkeypatch.setattr("setgraceful.oracle.edges_cover_once", counting)
    assert list(brute_force_enumerate(make_path(8), 3)) == []
    assert len(calls) == math.perm(8, 8) == 40_320
    rng = random.Random(15)
    g = Graph(6, tuple(rng.sample(list(itertools.combinations(range(6), 2)), 7)))
    calls.clear()
    list(brute_force_enumerate(g, 3))
    assert len(calls) == len(set(calls)) == math.perm(8, 6) == 20_160


def test_oracle_builds_labelings_only_for_hits(monkeypatch):
    # A deterministic stand-in for a time bound: P_8 has no labeling, so
    # none of its 40,320 assignments may cost a Labeling.  The tests are
    # counted too, so the empty list cannot come from an unconsumed iterator.
    built, tested = [], []

    def building(m, values):
        built.append(values)
        return Labeling(m, values)

    def testing(edges, full, values):
        tested.append(values)
        return edges_cover_once(edges, full, values)

    monkeypatch.setattr("setgraceful.oracle.Labeling", building)
    monkeypatch.setattr("setgraceful.oracle.edges_cover_once", testing)
    assert list(brute_force_enumerate(make_path(8), 3)) == []
    assert len(tested) == 40_320
    assert built == []
    assert len(list(brute_force_enumerate(make_complete_bipartite(1, 3), 2))) == len(built) == 24


def _package_imports(module: str) -> set[str]:
    """The setgraceful modules that one package module imports, by name."""
    path = Path(__file__).parent.parent / "src" / "setgraceful" / f"{module}.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
            if node.module == "setgraceful":
                found.update(f"setgraceful.{alias.name}" for alias in node.names)
    return {name for name in found if name.startswith("setgraceful.")}


def test_oracle_imports_nothing_from_search_or_conditions():
    # Followed through the modules the oracle imports, so nothing reaches the
    # searcher's code indirectly either.
    seen, todo = set(), ["setgraceful.oracle"]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(_package_imports(module.split(".", 1)[1]))
    assert "setgraceful.labeling" in seen
    assert not seen & {"setgraceful.search", "setgraceful.conditions"}
