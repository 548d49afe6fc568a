"""The labeling function, the validator, translation invariance, and labeling files."""

import io
import itertools
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setgraceful import labeling
from setgraceful.graph import Graph, make_complete_bipartite, make_cycle, make_path
from setgraceful.labeling import (
    Labeling,
    ValidationReport,
    edge_labels,
    read_labeling,
    validate,
    write_labeling,
)
from setgraceful.labels import ParseError, parse_label
from setgraceful.oracle import brute_force_enumerate

from conftest import predicate_cases, set_graceful_by_definition

K2 = make_complete_bipartite(1, 1)


def small_graph_and_labeling(max_n=7, max_m=5):
    """Random (graph, labeling) pairs over a shared vertex count."""

    def build(draw_tuple):
        n, m, edge_bits, values = draw_tuple
        possible = list(itertools.combinations(range(n), 2))
        edges = tuple(e for i, e in enumerate(possible) if edge_bits >> i & 1)
        return Graph(n, edges), Labeling(m, tuple(v % (1 << m) for v in values[:n]))

    return st.tuples(
        st.integers(1, max_n),
        st.integers(0, max_m),
        st.integers(0, 2 ** (max_n * (max_n - 1) // 2) - 1),
        st.lists(st.integers(0, 2**max_m - 1), min_size=max_n, max_size=max_n),
    ).map(build)


def test_labeling_rejects_out_of_range_entry():
    with pytest.raises(ValueError):
        Labeling(1, (0, 2))


@pytest.mark.parametrize("values, message", [
    ((0.5, 1, 2, 3), "label 0.5 at vertex 0 is not an int"),
    ((True, 0, 2, 3), "label True at vertex 0 is not an int"),
    # True == 1, so the vertex is found by identity, not by equality.
    ((0, 1, 2, True), "label True at vertex 3 is not an int"),
    ((0, 1, "2", 3), "label '2' at vertex 2 is not an int"),
])
def test_labeling_rejects_non_int_entry(values, message):
    with pytest.raises(ValueError) as excinfo:
        Labeling(2, values)
    assert str(excinfo.value) == message


def test_edge_labels_k2():
    assert edge_labels(K2, Labeling(1, (0, 1))) == [1]


def test_edge_labels_triangle():
    # Canonical edge order (0,1),(0,2),(1,2): XORs of (0,1,2) are 1,2,3.
    assert edge_labels(make_cycle(3), Labeling(2, (0, 1, 2))) == [1, 2, 3]


def test_edge_labels_constant_labeling_all_empty():
    g = make_path(4)
    assert edge_labels(g, Labeling(2, (3, 3, 3, 3))) == [0, 0, 0]


def test_edge_labels_length_mismatch():
    with pytest.raises(ValueError):
        edge_labels(K2, Labeling(1, (0,)))


def test_validate_k2_valid():
    assert validate(K2, Labeling(1, (0, 1))).valid


def test_validate_star_k13():
    report = validate(make_complete_bipartite(1, 3), Labeling(2, (0, 1, 2, 3)))
    # Every component holds, so no witness is set.
    assert report == ValidationReport(None, None, None, None, True)
    assert sorted(edge_labels(make_complete_bipartite(1, 3), Labeling(2, (0, 1, 2, 3)))) == [1, 2, 3]


def test_validate_rejects_every_p4_bijection():
    # Telescoping XOR forces f(v0) = f(v3) on a path with all of {0..3}.
    g = make_path(4)
    for perm in itertools.permutations(range(4)):
        assert not validate(g, Labeling(2, perm)).valid


def test_validate_duplicate_vertex_witness():
    report = validate(K2, Labeling(1, (1, 1)))
    assert not report.valid
    assert report.vertex_witness == (0, 1)


def test_validate_reports_all_components():
    # Duplicate labels on a path: duplicate vertex pair, empty edge, coverage gap.
    g = make_path(3)
    report = validate(g, Labeling(2, (2, 2, 2)))
    assert report.vertex_witness == (0, 1)
    assert report.edge_witness == ((0, 1), (1, 2))
    assert report.empty_edge == (0, 1)
    assert report.missing_label == 1
    assert not report.valid


@given(small_graph_and_labeling())
def test_validate_matches_definition(pair):
    # Each component recomputed straight from its definition.
    g, f = pair
    labels = [f.values[u] ^ f.values[v] for u, v in g.edges]
    vertex_pairs = [
        (i, j) for i, j in itertools.combinations(range(g.n), 2) if f.values[i] == f.values[j]
    ]
    edge_pairs = [
        (g.edges[i], g.edges[j])
        for i, j in itertools.combinations(range(len(labels)), 2)
        if labels[i] == labels[j]
    ]
    empty_edges = [e for e, lab in zip(g.edges, labels) if lab == 0]
    missing = set(range(1, 1 << f.m)) - set(labels)

    report = validate(g, f)
    assert report.vertex_witness == (vertex_pairs[0] if vertex_pairs else None)
    assert report.edge_witness == (edge_pairs[0] if edge_pairs else None)
    assert report.empty_edge == (empty_edges[0] if empty_edges else None)
    assert report.missing_label == min(missing, default=None)
    assert report.valid == (not vertex_pairs and not edge_pairs and not empty_edges and not missing)


STAR = make_complete_bipartite(1, 3)


@given(predicate_cases())
def test_validate_verdict_matches_definition(case):
    # validate decides the verdict itself, so the definition judges it.
    g, m, values = case
    assert validate(g, Labeling(m, values)).valid == set_graceful_by_definition(g, m, values)


def test_validate_verdict_edge_cases():
    assert validate(K2, Labeling(1, (0, 1))).valid
    assert validate(STAR, Labeling(2, (0, 1, 2, 3))).valid
    assert validate(Graph(0, ()), Labeling(0, ())).valid
    assert validate(Graph(1, ()), Labeling(0, (0,))).valid
    assert not validate(Graph(0, ()), Labeling(2, ())).valid
    # Repeated vertex labels, and the wrong edge count for m.
    assert not validate(K2, Labeling(1, (1, 1))).valid
    assert not validate(make_path(4), Labeling(3, (0, 1, 3, 7))).valid
    # Out of range: (4, 5) has the one edge label 1, so an XOR-only test
    # would accept it at m = 1, where the labels are 0 and 1.  Not an int,
    # though 1.0 == 1: a non-int label is outside the label set.  A
    # Labeling holds neither.
    for m, values in [(1, (4, 5)), (1, (-1, 0)), (2, (0, 1.0, 2, 3)), (2, (0, True, 2, 3))]:
        with pytest.raises(ValueError, match="at vertex"):
            Labeling(m, values)
    with pytest.raises(ValueError, match="labeling covers 3 vertices, graph has 2"):
        validate(K2, Labeling(1, (0, 1, 0)))


def test_valid_labelings_take_the_witness_free_path(monkeypatch):
    # A valid labeling is decided without a witness search and gets the one
    # shared all-valid report; the enumerate_m3 benchmark leans on this.
    found = [(g, list(brute_force_enumerate(g, 3)))
             for g in (make_complete_bipartite(1, 7), make_cycle(7))]
    assert [len(labelings) for _, labelings in found] == [40_320, 2_688]

    def refuse(*args):
        raise AssertionError("witness search on a valid labeling")

    monkeypatch.setattr(labeling, "_first_duplicate", refuse)
    monkeypatch.setattr(labeling, "edge_labels", refuse)
    for g, labelings in found:
        assert all(validate(g, f) is labeling._VALID for f in labelings)


@pytest.mark.parametrize("call", [
    lambda s: parse_label(str(s), 2),
], ids=["parse_label"])
def test_label_range_boundaries(call):
    # m = 2: labels run from 0 to 3; -1 and 4 fall outside on either side.
    # A sign makes no label literal, as in graph files.
    with pytest.raises(ValueError, match="not a label literal: '-1'"):
        call(-1)
    with pytest.raises(ValueError, match="label 4 out of range for ground size m=2"):
        call(4)
    assert call(0) == 0
    assert call(3) == 3


def test_validate_wrong_size_fails_by_counting():
    # 3 edges but m=3 wants 7 nonzero labels covered.
    g = make_path(4)
    report = validate(g, Labeling(3, (0, 1, 3, 7)))
    # Edge labels 1, 2 and 4: the smallest missing label is 3.
    assert report.missing_label == 3
    assert not report.valid


def test_validate_single_vertex_m0():
    assert validate(Graph(1, ()), Labeling(0, (0,))).valid


def test_translate_k2_example():
    f = Labeling(1, (0, 1))
    g = Labeling(1, tuple(v ^ 1 for v in f.values))
    assert g.values == (1, 0)
    assert edge_labels(K2, g) == edge_labels(K2, f)


@given(small_graph_and_labeling())
def test_translation_properties(pair):
    g, f = pair
    universe = 1 << f.m
    if validate(g, f).valid:
        # A valid labeling pins the edge count to the universe size.
        assert len(g.edges) == universe - 1
    for a in range(universe):
        # Translation by a: XOR every vertex label with a.
        moved = Labeling(f.m, tuple(v ^ a for v in f.values))
        assert edge_labels(g, moved) == edge_labels(g, f)
        assert tuple(v ^ a for v in moved.values) == f.values
        assert validate(g, moved).valid == validate(g, f).valid


def test_normalize_anchor_preserves_validity():
    # Any vertex can be moved to the empty label, as the search's anchor is.
    g = make_complete_bipartite(1, 3)
    f = Labeling(2, (2, 3, 0, 1))
    assert validate(g, f).valid
    for v0 in range(4):
        anchored = Labeling(2, tuple(v ^ f.values[v0] for v in f.values))
        assert anchored.values[v0] == 0
        assert validate(g, anchored).valid


def test_counting_invariant_valid_means_edge_count_matches():
    g = make_complete_bipartite(1, 3)
    f = Labeling(2, (0, 1, 2, 3))
    assert validate(g, f).valid
    assert len(g.edges) == 2**f.m - 1


def test_edge_preimage_totality():
    # A valid labeling puts every nonempty label on exactly one edge.
    g = make_cycle(3)
    f = Labeling(2, (0, 1, 2))
    assert validate(g, f).valid
    assert sorted(edge_labels(g, f)) == [1, 2, 3]


def test_read_labeling_roundtrip_styles():
    f = Labeling(3, (0, 5, 7, 2))
    buf = io.StringIO()
    write_labeling(f, buf)
    assert read_labeling(io.StringIO(buf.getvalue())) == f


def test_read_labeling_mixed_formats():
    # Labels are decimal only, so a binary one is an error on its line.
    with pytest.raises(ParseError, match="line 2: not a label literal: '0b101'"):
        read_labeling(io.StringIO("m 3\n0 0b101\n1 3\n"))


def test_read_labeling_missing_vertex():
    with pytest.raises(ParseError, match="vertex 1"):
        read_labeling(io.StringIO("m 2\n0 1\n2 2\n"))


def test_read_labeling_duplicate_vertex():
    with pytest.raises(ParseError, match="twice"):
        read_labeling(io.StringIO("m 2\n0 1\n0 2\n"))


def test_read_labeling_out_of_range_label():
    with pytest.raises(ParseError, match="m=2"):
        read_labeling(io.StringIO("m 2\n0 4\n"))


def test_read_labeling_missing_header():
    with pytest.raises(ParseError, match="header"):
        read_labeling(io.StringIO("0 1\n"))


@pytest.mark.parametrize("text,lineno", [
    ("m +1\n", 1),
    ("m 4\n0 1_0\n", 2),
    ("m 4\n0 0b1_1\n", 2),
    ("m 1\n0 0\n+1 1\n", 3),
    ("m 2\n-1 0\n", 2),
    ("m 2\n0 -0\n1 1\n", 2),
])
def test_read_labeling_takes_ascii_digits_only(text, lineno):
    # int() takes each of these numbers; a labeling file does not.
    with pytest.raises(ParseError, match=f"line {lineno}: ") as info:
        read_labeling(io.StringIO(text))
    assert info.value.lineno == lineno


def test_read_labeling_end_of_file_errors_name_last_content_line():
    with pytest.raises(ParseError, match="line 3: vertex 1 has no label"):
        read_labeling(io.StringIO("m 2\n0 1\n2 2\n\n# done\n"))
    with pytest.raises(ParseError, match="line 1: missing header"):
        read_labeling(io.StringIO("# empty\n\n"))


def test_check_of_an_outside_m30_labeling_builds_no_label_mask():
    # A path has far fewer edges than the 2**30 - 1 labels to cover, so the
    # verdict needs no 2**30-bit mask of them (128 MB).
    g = make_path(300)
    f = Labeling(30, tuple(i if i % 2 == 0 else 2**30 - 1 - i for i in range(300)))
    tracemalloc.start()
    try:
        report = validate(g, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not report.valid and report.missing_label is not None
    assert peak < 1 << 20
