"""The labeling function, the validator, translation, and edge preimages."""

import io
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setgraceful.graph import Graph, make_complete_bipartite, make_cycle, make_path
from setgraceful.labeling import (
    Labeling,
    LabelingParseError,
    edge_labels,
    edge_preimage,
    is_set_graceful,
    normalize_anchor,
    read_labeling,
    translate,
    validate,
    write_labeling,
)
from setgraceful.labels import format_label, parse_label

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
    assert report.valid
    assert sorted(edge_labels(make_complete_bipartite(1, 3), Labeling(2, (0, 1, 2, 3)))) == [1, 2, 3]


def test_validate_rejects_every_p4_bijection():
    # Telescoping XOR forces f(v0) = f(v3) on a path with all of {0..3}.
    g = make_path(4)
    for perm in itertools.permutations(range(4)):
        assert not validate(g, Labeling(2, perm)).valid


def test_validate_duplicate_vertex_witness():
    report = validate(K2, Labeling(1, (1, 1)))
    assert not report.valid
    assert not report.vertex_injective
    assert report.vertex_witness == (0, 1)


def test_validate_reports_all_components():
    # Duplicate labels on a path: duplicate vertex pair, empty edge, coverage gap.
    g = make_path(3)
    report = validate(g, Labeling(2, (2, 2, 2)))
    assert not report.vertex_injective
    assert report.vertex_witness == (0, 1)
    assert not report.edge_injective
    assert report.empty_edge == (0, 1)
    assert not report.covers_all_nonempty
    assert report.missing_label == 1


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
    assert report.vertex_injective == (not vertex_pairs)
    assert report.edge_witness == (edge_pairs[0] if edge_pairs else None)
    assert report.edge_injective == (not edge_pairs)
    assert report.empty_edge == (empty_edges[0] if empty_edges else None)
    assert report.missing_label == min(missing, default=None)
    assert report.covers_all_nonempty == (not missing)
    assert report.valid == (not vertex_pairs and not edge_pairs and not empty_edges and not missing)


STAR = make_complete_bipartite(1, 3)
STAR_LABELING = Labeling(2, (0, 1, 2, 3))


@st.composite
def predicate_cases(draw):
    """(graph, m, labels) with m <= 3 and n <= 7, half of them near-valid.

    Arbitrary cases repeat labels and pick any edge set.  Near-valid cases
    take distinct labels and one edge per nonzero label wherever some vertex
    pair induces it, then may add or drop an edge, so valid labelings and
    the edge counts around 2**m - 1 both come up often.
    """
    m = draw(st.integers(0, 3))
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=n, max_size=n))
        edges = [e for e in pairs if draw(st.booleans())]
    else:
        values = draw(st.permutations(range(1 << m)))[:n]
        pairs = list(itertools.combinations(range(len(values)), 2))
        edges = []
        for s in range(1, 1 << m):
            inducing = [(u, v) for u, v in pairs if values[u] ^ values[v] == s]
            if inducing:
                edges.append(draw(st.sampled_from(inducing)))
        spare = [e for e in pairs if e not in edges]
        change = draw(st.sampled_from(("keep", "keep", "add", "drop")))
        if change == "add" and spare:
            edges.append(draw(st.sampled_from(spare)))
        elif change == "drop" and edges:
            edges.remove(draw(st.sampled_from(edges)))
    return Graph(len(values), tuple(edges)), m, tuple(values)


@given(predicate_cases())
def test_is_set_graceful_matches_validate(case):
    g, m, values = case
    expected = validate(g, Labeling(m, values)).valid
    assert is_set_graceful(g, m, values) == expected
    assert is_set_graceful(g, m, list(values)) == expected


def test_is_set_graceful_edge_cases():
    assert is_set_graceful(K2, 1, (0, 1))
    assert is_set_graceful(STAR, 2, (0, 1, 2, 3))
    assert is_set_graceful(Graph(0, ()), 0, ())
    assert is_set_graceful(Graph(1, ()), 0, (0,))
    assert not is_set_graceful(Graph(0, ()), 2, ())
    # Repeated vertex labels, and the wrong edge count for m.
    assert not is_set_graceful(K2, 1, (1, 1))
    assert not is_set_graceful(make_path(4), 3, (0, 1, 3, 7))
    # Out of range: (4, 5) has the one edge label 1, so an XOR-only test
    # would accept it at m = 1, where the labels are 0 and 1.
    assert not is_set_graceful(K2, 1, (4, 5))
    assert not is_set_graceful(K2, 1, (-1, 0))
    with pytest.raises(ValueError, match="labeling covers 3 vertices, graph has 2"):
        is_set_graceful(K2, 1, (0, 1, 0))


@pytest.mark.parametrize("call", [
    lambda s: parse_label(str(s), 2),
    lambda s: format_label(s, 2),
    lambda s: translate(STAR_LABELING, s),
    lambda s: edge_preimage(STAR, STAR_LABELING, s),
], ids=["parse_label", "format_label", "translate", "edge_preimage"])
def test_label_range_boundaries(call):
    # m = 2: labels run from 0 to 3; -1 and 4 fall outside on either side.
    for s in (-1, 4):
        with pytest.raises(ValueError, match=f"label {s} out of range for ground size m=2"):
            call(s)
    call(3)
    try:
        call(0)
    except ValueError as exc:
        # 0 is in range; only edge_preimage refuses it, as the empty label.
        assert str(exc) == "empty label has no edge"


def test_validate_wrong_size_fails_by_counting():
    # 3 edges but m=3 wants 7 nonzero labels covered.
    g = make_path(4)
    report = validate(g, Labeling(3, (0, 1, 3, 7)))
    assert not report.covers_all_nonempty
    assert not report.valid


def test_validate_single_vertex_m0():
    assert validate(Graph(1, ()), Labeling(0, (0,))).valid


def test_translate_k2_example():
    f = Labeling(1, (0, 1))
    g = translate(f, 1)
    assert g.values == (1, 0)
    assert edge_labels(K2, g) == edge_labels(K2, f)


def test_translate_by_zero_is_identity():
    f = Labeling(3, (1, 2, 4))
    assert translate(f, 0) == f


def test_translate_rejects_out_of_range():
    with pytest.raises(ValueError):
        translate(Labeling(1, (0, 1)), 2)


@given(small_graph_and_labeling())
def test_translation_properties(pair):
    g, f = pair
    universe = 1 << f.m
    if validate(g, f).valid:
        # A valid labeling pins the edge count to the universe size.
        assert len(g.edges) == universe - 1
    for a in range(universe):
        moved = translate(f, a)
        assert edge_labels(g, moved) == edge_labels(g, f)
        assert translate(moved, a) == f
        assert validate(g, moved).valid == validate(g, f).valid


def test_normalize_anchor_xor_arithmetic():
    f = Labeling(2, (1, 2))
    g = normalize_anchor(f, 0)
    assert g.values == (0, 3)


def test_normalize_anchor_noop_when_already_empty():
    f = Labeling(2, (0, 3))
    assert normalize_anchor(f, 0) == f


def test_normalize_anchor_bad_vertex():
    with pytest.raises(ValueError):
        normalize_anchor(Labeling(1, (0, 1)), 2)


def test_normalize_anchor_preserves_validity():
    g = make_complete_bipartite(1, 3)
    f = Labeling(2, (2, 3, 0, 1))
    assert validate(g, f).valid
    for v0 in range(4):
        anchored = normalize_anchor(f, v0)
        assert anchored.values[v0] == 0
        assert validate(g, anchored).valid


def test_counting_invariant_valid_means_edge_count_matches():
    g = make_complete_bipartite(1, 3)
    f = Labeling(2, (0, 1, 2, 3))
    assert validate(g, f).valid
    assert len(g.edges) == 2**f.m - 1


def test_edge_preimage_star():
    g = make_complete_bipartite(1, 3)
    f = Labeling(2, (0, 1, 2, 3))
    assert edge_preimage(g, f, 3) == (0, 3)


def test_edge_preimage_triangle():
    g = make_cycle(3)
    f = Labeling(2, (0, 1, 2))
    assert edge_preimage(g, f, 3) == (1, 2)


def test_edge_preimage_rejects_empty_label():
    g = make_complete_bipartite(1, 3)
    with pytest.raises(ValueError, match="empty label"):
        edge_preimage(g, Labeling(2, (0, 1, 2, 3)), 0)


def test_edge_preimage_rejects_invalid_labeling():
    with pytest.raises(ValueError, match="not set-graceful"):
        edge_preimage(K2, Labeling(1, (1, 1)), 1)


def test_edge_preimage_totality():
    g = make_cycle(3)
    f = Labeling(2, (0, 1, 2))
    hit = [edge_preimage(g, f, s) for s in range(1, 4)]
    assert sorted(hit) == list(g.edges)


def test_read_labeling_roundtrip_styles():
    f = Labeling(3, (0, 5, 7, 2))
    for style in ("int", "binary"):
        buf = io.StringIO()
        write_labeling(f, buf, style=style)
        assert read_labeling(io.StringIO(buf.getvalue())) == f


def test_read_labeling_mixed_formats():
    f = read_labeling(io.StringIO("m 3\n0 0b101\n1 3\n"))
    assert f == Labeling(3, (5, 3))


def test_read_labeling_missing_vertex():
    with pytest.raises(LabelingParseError, match="vertex 1"):
        read_labeling(io.StringIO("m 2\n0 1\n2 2\n"))


def test_read_labeling_duplicate_vertex():
    with pytest.raises(LabelingParseError, match="twice"):
        read_labeling(io.StringIO("m 2\n0 1\n0 2\n"))


def test_read_labeling_out_of_range_label():
    with pytest.raises(LabelingParseError, match="m=2"):
        read_labeling(io.StringIO("m 2\n0 4\n"))


def test_read_labeling_missing_header():
    with pytest.raises(LabelingParseError, match="header"):
        read_labeling(io.StringIO("0 1\n"))
