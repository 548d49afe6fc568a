"""Graph model, generators, and file round-trips."""

import collections
import io
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from setgraceful.graph import (
    Graph,
    make_complete_bipartite,
    make_cycle,
    make_path,
    read_graph,
    write_graph,
)
from setgraceful.labels import ParseError


def test_rejects_loop():
    with pytest.raises(ValueError, match="loop"):
        Graph(2, ((0, 0),))


def test_rejects_duplicate_edge_either_orientation():
    with pytest.raises(ValueError, match="duplicate"):
        Graph(2, ((0, 1), (1, 0)))


def test_rejects_endpoint_out_of_range():
    with pytest.raises(ValueError):
        Graph(2, ((0, 2),))


@pytest.mark.parametrize("n, edges, message", [
    (2.0, ((0, 1),), "vertex count must be an int, got 2.0"),
    (True, (), "vertex count must be an int, got True"),
    (2, ((0.0, 1),), "edge (0.0,1) has an endpoint that is not an int"),
    (2, ((0, False),), "edge (0,False) has an endpoint that is not an int"),
])
def test_rejects_non_int_vertex_count_or_endpoint(n, edges, message):
    with pytest.raises(ValueError) as excinfo:
        Graph(n, edges)
    assert str(excinfo.value) == message


def test_edges_canonicalized():
    g = Graph(4, ((3, 1), (2, 0), (1, 0)))
    assert g.edges == ((0, 1), (0, 2), (1, 3))


@st.composite
def shuffled_edge_lists(draw):
    """(n, edges): a simple graph on n <= 9 vertices, its edges in any order
    and each in either orientation."""
    n = draw(st.integers(0, 9))
    pairs = [e for e in itertools.combinations(range(n), 2) if draw(st.booleans())]
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in draw(st.permutations(pairs))]
    return n, edges


@given(shuffled_edge_lists())
def test_adjacency_and_degrees_match_definition(case):
    n, edges = case
    g = Graph(n, edges)
    neighbors = [sorted(b if a == v else a for a, b in edges if v in (a, b)) for v in range(n)]
    assert g.adjacency() == neighbors
    assert g.degrees() == [len(nbrs) for nbrs in neighbors]


def test_complete_bipartite_star():
    g = make_complete_bipartite(1, 3)
    assert g.n == 4
    assert g.edges == ((0, 1), (0, 2), (0, 3))


def test_complete_bipartite_3_5():
    g = make_complete_bipartite(3, 5)
    assert g.n == 8
    assert len(g.edges) == 15


def test_complete_bipartite_2_2_is_four_cycle_sized():
    g = make_complete_bipartite(2, 2)
    assert g.n == 4
    assert len(g.edges) == 4


def test_complete_bipartite_rejects_zero_side():
    with pytest.raises(ValueError):
        make_complete_bipartite(0, 3)
    with pytest.raises(ValueError):
        make_complete_bipartite(3, 0)


def test_path_and_cycle_edges():
    assert make_path(4).edges == ((0, 1), (1, 2), (2, 3))
    assert make_cycle(3).edges == ((0, 1), (0, 2), (1, 2))


def test_path_single_vertex():
    assert make_path(1).edges == ()


def test_cycle_too_small_rejected():
    with pytest.raises(ValueError):
        make_cycle(2)


def cross_splits(g: Graph) -> list[tuple[int, ...]]:
    """Every side S whose cross pairs S x (V - S) are exactly g's edges, by definition."""
    edges = set(g.edges)
    return [side for r in range(1, g.n) for side in itertools.combinations(range(g.n), r)
            if edges == {(min(u, v), max(u, v))
                         for u in side for v in range(g.n) if v not in side}]


def test_bipartition_of_k35():
    assert cross_splits(make_complete_bipartite(3, 5)) == [(0, 1, 2), (3, 4, 5, 6, 7)]


def test_bipartition_of_c4_matches_k22():
    # C_4 is K_{2,2}: the 4 edges are exactly the 2x2 cross pairs.
    assert cross_splits(make_cycle(4)) == [(0, 2), (1, 3)]


def test_bipartition_absent_for_path4():
    # The bipartition {0,2},{1,3} would need 4 cross edges; P_4 has 3.
    assert cross_splits(make_path(4)) == []


def test_bipartition_absent_for_odd_cycle():
    assert cross_splits(make_cycle(3)) == []


def test_bipartition_absent_for_disconnected():
    assert cross_splits(Graph(4, ((0, 1), (2, 3)))) == []


def test_bipartition_absent_for_single_vertex():
    assert cross_splits(Graph(1, ())) == []


@pytest.mark.parametrize("p", range(1, 9))
@pytest.mark.parametrize("q", range(1, 9))
def test_bipartition_roundtrip_on_generators(p, q):
    # The first p vertices form one side and the last q the other.
    g = make_complete_bipartite(p, q)
    assert g.n == p + q
    assert set(g.edges) == {(u, v) for u in range(p) for v in range(p, p + q)}


@pytest.mark.parametrize("p,q,is_star", [(1, 5, True), (5, 1, True), (1, 1, True),
                                         (2, 3, False), (4, 4, False)])
def test_star_iff_side_of_size_one(p, q, is_star):
    # A star has a center adjacent to every other vertex.
    g = make_complete_bipartite(p, q)
    degrees = collections.Counter(v for e in g.edges for v in e)
    assert (max(degrees.values()) == g.n - 1) == is_star


def test_read_simple_graph():
    g = read_graph(io.StringIO("vertices 2\n0 1\n"))
    assert g.n == 2
    assert g.edges == ((0, 1),)


def test_read_loop_reports_line():
    with pytest.raises(ParseError, match="line 1"):
        read_graph(io.StringIO("0 0\n"))


def test_read_duplicate_edge_reports_line():
    with pytest.raises(ParseError, match="line 2"):
        read_graph(io.StringIO("0 1\n1 0\n"))


def test_read_bad_token_reports_line():
    with pytest.raises(ParseError, match="line 2"):
        read_graph(io.StringIO("0 1\n1 x\n"))


@pytest.mark.parametrize("line", ["0 1_0", "0 +1", "0 \u0663", "vertices 1_2", "0 -1"])
def test_read_takes_ascii_decimal_naturals_only(line):
    # int() takes each of these fields ("\u0663" is an Arabic-Indic three);
    # a graph file does not.
    with pytest.raises(ParseError, match="line 2: expected a natural number") as info:
        read_graph(io.StringIO(f"# header\n{line}\n"))
    assert info.value.lineno == 2


def test_read_header_grows_vertex_count():
    g = read_graph(io.StringIO("vertices 6\n0 1\n"))
    assert g.n == 6


def test_read_index_beyond_header():
    g = read_graph(io.StringIO("vertices 2\n0 5\n"))
    assert g.n == 6


def test_read_comments_and_blanks():
    g = read_graph(io.StringIO("# a star\nvertices 3\n\n0 1  # first\n0 2\n"))
    assert g.edges == ((0, 1), (0, 2))


def test_roundtrip_canonical():
    g = make_complete_bipartite(2, 3)
    buf = io.StringIO()
    write_graph(g, buf)
    back = read_graph(io.StringIO(buf.getvalue()))
    assert back.n == g.n
    assert back.edges == g.edges


def test_roundtrip_keeps_isolated_vertices():
    g = Graph(5, ((0, 1),))
    buf = io.StringIO()
    write_graph(g, buf)
    assert read_graph(io.StringIO(buf.getvalue())).n == 5
