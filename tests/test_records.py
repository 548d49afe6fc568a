"""Value semantics of the result types: construction, equality, hashing,
immutability, repr, the constructors' signatures and their validation messages."""

import copy
import inspect
import io
import pickle
import sys

import pytest

from setgraceful.conditions import ProofStep, ProofTrace, StarDecision
from setgraceful.graph import Graph, make_cycle, read_graph, write_graph
from setgraceful.labeling import Labeling, ValidationReport
from setgraceful.record import Record
from setgraceful.search import SearchConfig, SearchOutcome

K2 = ((0, 1),)
REPORT_FIELDS = (None, None, None, None, True)
STEP = ("NonStarProduct", {"p": 3, "q": 5, "product": 8}, "8 > 0")

# (type, arguments, arguments giving a different value, repr of the first).
CASES = [
    (Graph, (2, K2), (3, K2), "Graph(n=2, edges=((0, 1),))"),
    (Labeling, (2, (0, 1, 2)), (2, (0, 1, 3)), "Labeling(m=2, values=(0, 1, 2))"),
    (ValidationReport, REPORT_FIELDS, ((0, 1),) + REPORT_FIELDS[1:4] + (False,),
     "ValidationReport(vertex_witness=None, edge_witness=None, missing_label=None, "
     "empty_edge=None, valid=True)"),
    (StarDecision, ("star-admits", 3), ("non-star-impossible", 3),
     "StarDecision(kind='star-admits', m=3)"),
    (ProofStep, STEP, ("EmptyExcluded",) + STEP[1:],
     "ProofStep(kind='NonStarProduct', numbers={'p': 3, 'q': 5, 'product': 8}, "
     "conclusion='8 > 0')"),
    (ProofTrace, (3, 5, 4, ()), (5, 3, 4, ()), "ProofTrace(p=3, q=5, m=4, steps=())"),
    (SearchConfig, ("first", 10), ("all", 10), "SearchConfig(mode='first', node_limit=10)"),
    (SearchOutcome, (3, 8, (), 5, True, None), (3, 8, (), 6, True, None),
     "SearchOutcome(m=3, count_raw=8, witnesses=(), nodes_explored=5, exhausted=True, "
     "reason=None)"),
]
# A proof step holds its numbers in a dict, so steps and traces of steps are unhashable.
UNHASHABLE = {ProofStep}
# The types that write their own constructor, to validate or convert their
# arguments; the others get one generated from __slots__.
OWN_INIT = {Graph, Labeling, SearchConfig}
# Every constructor's defaults; the fields not named here are required.
DEFAULTS = {
    SearchConfig: {"mode": "count", "node_limit": None},
}
GENERATED = [case for case in CASES if case[0] not in OWN_INIT]


@pytest.mark.parametrize("cls, args, other_args, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, args, other_args, text):
    a, b, other = cls(*args), cls(*args), cls(*other_args)
    assert a == b and not a != b
    assert a != other
    assert a != args  # never equal to a value of another type
    if cls not in UNHASHABLE:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)
    assert repr(a) == text
    first_field = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(a, first_field, None)
    with pytest.raises(AttributeError):
        delattr(a, first_field)
    assert repr(a) == text
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("cls", [c[0] for c in CASES], ids=[c[0].__name__ for c in CASES])
def test_constructor_signature_lists_the_slots(cls):
    params = inspect.signature(cls).parameters
    assert tuple(params) == cls.__slots__
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
    defaults = {name: p.default for name, p in params.items() if p.default is not p.empty}
    assert defaults == DEFAULTS.get(cls, {})
    # A generated constructor takes every field, and every field is required.
    assert cls in OWN_INIT or not defaults
    # A hand-written constructor is kept; a generated one is compiled from a string.
    source = cls.__init__.__code__.co_filename
    assert source == (sys.modules[cls.__module__].__file__ if cls in OWN_INIT else "<string>")
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"


@pytest.mark.parametrize("cls, args", [c[:2] for c in GENERATED],
                         ids=[c[0].__name__ for c in GENERATED])
def test_generated_constructor_rejects_bad_arguments(cls, args):
    first = cls.__slots__[0]
    by_name = dict(zip(cls.__slots__, args))
    assert cls(**by_name) == cls(*args)
    del by_name[first]
    with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{first}'"):
        cls(**by_name)
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(*args, extra=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(*args, **{first: args[0]})


def test_generated_constructor_compiles_on_first_call():
    class Pair(Record):
        __slots__ = ("a", "b")

    assert not inspect.isfunction(Pair.__dict__["__init__"])
    assert repr(Pair(1, 0)).endswith(".Pair(a=1, b=0)")
    assert inspect.isfunction(Pair.__dict__["__init__"])
    assert Pair(b=2, a=1) == Pair(1, 2) != Pair(1, 0)
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'b'"):
        Pair(1)


def test_graph_equality_reads_its_canonical_edges():
    # A generated graph equals its file round trip and any edge order of itself.
    g = make_cycle(4)
    buf = io.StringIO()
    write_graph(g, buf)
    for same in (read_graph(io.StringIO(buf.getvalue())), Graph(4, reversed(g.edges))):
        assert same == g
        assert hash(same) == hash(g)
        assert repr(same) == repr(g) == "Graph(n=4, edges=((0, 1), (0, 3), (1, 2), (2, 3)))"
    assert Graph.__slots__ == ("n", "edges")


def test_assignment_refused_on_every_field():
    g = Graph(2, K2)
    for name in ("n", "edges"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    with pytest.raises(AttributeError):
        g.extra = 1
    assert (g.n, g.edges) == (2, K2)


def test_keyword_and_default_construction():
    assert Graph(n=2, edges=[(1, 0)]) == Graph(2, K2)
    assert Labeling(m=2, values=[3, 0]).values == (3, 0)
    assert SearchConfig() == SearchConfig("count", None)
    assert SearchConfig(node_limit=7) == SearchConfig("count", 7)
    # The mode decides symmetry; no field or keyword selects it.
    with pytest.raises(TypeError):
        SearchConfig("count", "affine", None)
    with pytest.raises(TypeError):
        SearchConfig(symmetry="none")
    outcome = SearchOutcome(m=3, count_raw=0, witnesses=(), nodes_explored=0, exhausted=True,
                            reason=None)
    assert outcome == SearchOutcome(3, 0, (), 0, True, None)
    # Every field of a generated constructor is required, reason too.
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'reason'"):
        SearchOutcome(3, 0, (), 0, True)
    assert ProofTrace(p=3, q=5, m=4, steps=()) == ProofTrace(3, 5, 4, ())
    assert StarDecision(kind="k", m=None) == StarDecision("k", None)
    assert StarDecision(m=3, kind="k") == StarDecision("k", 3)
    fields = dict(zip(
        ("vertex_witness", "edge_witness", "missing_label", "empty_edge", "valid"),
        REPORT_FIELDS))
    assert ValidationReport(**fields) == ValidationReport(*REPORT_FIELDS)
    # One witness per component of the predicate, then the verdict.
    assert ValidationReport.__slots__ == tuple(fields)


@pytest.mark.parametrize("build, message", [
    (lambda: Graph(-1, ()), "vertex count must be non-negative, got -1"),
    (lambda: Graph(2, ((1, 1),)), "loop at vertex 1 (graph must be simple)"),
    (lambda: Graph(2, ((0, 2),)), "edge (0,2) has an endpoint outside 0..1"),
    (lambda: Graph(2, ((0, 1), (1, 0))), "duplicate edge (0,1) (graph must be simple)"),
    # Not int vertex counts or endpoints: search would fail on 2.0 with a
    # TypeError, and True is no vertex count.
    (lambda: Graph(2.0, K2), "vertex count must be an int, got 2.0"),
    (lambda: Graph(True, ()), "vertex count must be an int, got True"),
    (lambda: Graph(2, ((0, 1.0),)), "edge (0,1.0) has an endpoint that is not an int"),
    (lambda: Labeling(-1, ()), "ground size must be non-negative, got -1"),
    (lambda: Labeling(31, ()), "ground size 31 exceeds the supported cap 30"),
    (lambda: Labeling(2, (0, 4)), "label 4 at vertex 1 out of range for ground size m=2"),
    (lambda: Labeling(2, (-1,)), "label -1 at vertex 0 out of range for ground size m=2"),
    # Not int labels: validate would fail on 0.5 with a TypeError from ^.
    (lambda: Labeling(2, (0.5, 1, 2, 3)), "label 0.5 at vertex 0 is not an int"),
    (lambda: Labeling(2, (1, True, 2, 3)), "label True at vertex 1 is not an int"),
    (lambda: SearchConfig(mode="some"),
     "mode must be one of ('first', 'count', 'all'), got 'some'"),
    (lambda: SearchConfig(node_limit=0), "node_limit must be positive, got 0"),
    # Not int node counts: 2.5 would explore 3 nodes and True 1, and the old
    # positional symmetry argument lands in node_limit.
    (lambda: SearchConfig(node_limit=2.5), "node_limit must be an int, got 2.5"),
    (lambda: SearchConfig(node_limit=True), "node_limit must be an int, got True"),
    (lambda: SearchConfig("count", "affine"), "node_limit must be an int, got 'affine'"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message
