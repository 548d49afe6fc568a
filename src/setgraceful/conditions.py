"""Closed-form answers: the necessary conditions and the complete-bipartite decision.

A set-graceful labeling makes the edge map a bijection onto the nonempty
labels, so a graph can only admit one when |E| = 2**m - 1 and it has at
most 2**m vertices.  For m >= 2 a parity argument also rules out every
graph with exactly two odd-degree vertices (`parity_obstruction`).
`obstruction` applies these three in order.  For complete bipartite graphs
the decision is total: stars K_{1,q} with q = 2**m - 1 admit a labeling
(center 0, leaf i labeled i), every other K_{p,q} does not, and
`proof_trace` instantiates that contradiction for a concrete (p, q) as a
checkable list of steps.
"""

from __future__ import annotations

from typing import Callable

from setgraceful.graph import Graph
from setgraceful.record import Record


class ProofStep(Record):
    """One step of a proof trace: its kind, the numbers it uses, its conclusion.

    The numbers are a dict, so a step (and a trace) is unhashable.
    """

    __slots__ = ("kind", "numbers", "conclusion")

    def recheck(self) -> bool:
        """Re-evaluate the step's numeric claim from its recorded numbers."""
        return _RECHECKS[self.kind](self.numbers)


class ProofTrace(Record):
    """The instantiated contradiction for a non-star K_{p,q}, step by step."""

    __slots__ = ("p", "q", "m", "steps")

    def render(self) -> str:
        """One numbered line per step, stable wording."""
        return "\n".join(f"{i}. {s.kind}: {s.conclusion}" for i, s in enumerate(self.steps, 1))


_RECHECKS: dict[str, Callable[[dict[str, int]], bool]] = {
    "EdgeCountIdentity": lambda ns: ns["p"] * ns["q"] + 1 == 2 ** ns["m"] == ns["universe"],
    "NonStarProduct": lambda ns: ns["product"] == (ns["p"] - 1) * (ns["q"] - 1) > 0,
    "UniverseExceedsVertices": lambda ns: ns["universe"] > ns["vertices"] == ns["p"] + ns["q"],
    "TranslationWitnessExists": lambda ns: ns["unused"] == ns["universe"] - ns["vertices"] >= 1,
    "EmptyExcluded": lambda ns: ns["unused"] >= 1,
    "UniqueDecomposition": lambda ns: ns["edge_count"] == ns["universe"] - 1,
    "InvolutionPairing": lambda ns: ns["pair_size"] == 2 and ns["p"] >= 2,
    "EvenSide": lambda ns: (
        ns["pair_size"] == 2 and ns["p"] * ns["q"] == ns["universe"] - 1 and ns["p"] % 2 == 1
    ),
    "OddUniverseContradiction": lambda ns: ns["universe"] % 2 == 0 and ns["m"] >= 1,
}
# The proof's steps in order, one per recheck.
STEP_KINDS = tuple(_RECHECKS)


def _exact_log2(t: int) -> int | None:
    """m with t = 2**m for a positive t, or None when t is not a power of two."""
    return t.bit_length() - 1 if t & (t - 1) == 0 else None


def feasible_ground_size(g: Graph) -> int | None:
    """The unique ground size m with |E| = 2**m - 1, or None when there is none."""
    return _exact_log2(len(g.edges) + 1)


def parity_obstruction(g: Graph, m: int) -> tuple[int, int] | None:
    """The two odd-degree vertices of g, when m >= 2 and they are its only ones.

    XOR the edge labels of a set-graceful labeling f over all edges.  Each
    vertex label enters deg(v) times, so the total is the XOR of f(v) over
    the odd-degree vertices.  The edge labels are the nonzero labels once
    each, and for m >= 2 every bit is set in 2**(m-1) of them, an even
    number, so the total is 0.  With exactly two odd-degree vertices u and v
    that forces f(u) = f(v), which injectivity forbids: g has no labeling
    over ground size m.  The pair is the whole certificate; g.degrees()
    rechecks it.  Returns None when m < 2 or g has another number of
    odd-degree vertices.
    """
    if m < 2:
        return None
    odd = [v for v, d in enumerate(g.degrees()) if d & 1]
    return (odd[0], odd[1]) if len(odd) == 2 else None


def obstruction(g: Graph, m: int | None) -> str | None:
    """Why g has no labeling by a closed form, or None when none applies.

    m is feasible_ground_size(g).  The reasons, in the order they are tried:
    no ground size fits the edge count, more vertices than labels, and the
    two odd-degree vertices of `parity_obstruction`.
    """
    if m is None:
        return f"edge count {len(g.edges)} is not 2^m - 1 for any m"
    if g.n > 1 << m:
        return f"more vertices ({g.n}) than labels ({1 << m})"
    pair = parity_obstruction(g, m)
    if pair is None:
        return None
    return (f"vertices {pair[0]} and {pair[1]} are the only odd-degree vertices, "
            "so any labeling would give them the same label")


def proof_trace(p: int, q: int) -> ProofTrace | None:
    """Decide K_{p,q} with pq = 2**m - 1: None for a star, else the contradiction.

    A star admits a labeling, so it has no trace.  Any other shape gets the
    parity contradiction, every step's arithmetic re-verified while the
    trace is built.  Raises ValueError for a side below 1, and when pq + 1
    is not a power of two.
    """
    if p < 1 or q < 1:
        raise ValueError(f"side sizes must be positive, got p={p}, q={q}")
    m = _exact_log2(p * q + 1)
    if m is None:
        raise ValueError(f"edge count {p * q} is not 2^m - 1 for any m; no trace to build")
    if p == 1 or q == 1:
        return None
    universe = 1 << m
    vertices = p + q
    product = (p - 1) * (q - 1)
    unused = universe - vertices
    name = f"K_{{{p},{q}}}"

    steps = (
        ProofStep(
            "EdgeCountIdentity",
            {"p": p, "q": q, "m": m, "universe": universe},
            f"|E| = |P|*|Q| = {p}*{q} = {p * q}, so |X| = |E| + 1 = {universe} = 2^{m}.",
        ),
        ProofStep(
            "NonStarProduct",
            {"p": p, "q": q, "product": product},
            f"(|P| - 1)*(|Q| - 1) = {p - 1}*{q - 1} = {product} > 0, "
            "so neither side is a single vertex.",
        ),
        ProofStep(
            "UniverseExceedsVertices",
            {"p": p, "q": q, "m": m, "universe": universe, "vertices": vertices},
            f"|X| = {universe} > {vertices} = |V|, because |P|*|Q| + 1 > |P| + |Q| "
            "whenever (|P| - 1)*(|Q| - 1) > 0.",
        ),
        ProofStep(
            "TranslationWitnessExists",
            {"universe": universe, "vertices": vertices, "unused": unused},
            f"an injective labeling f uses {vertices} of the {universe} labels, leaving "
            f"{unused} unused; pick an unused A and set g(v) = A xor f(v), which keeps "
            "every edge label and stays set-graceful.",
        ),
        ProofStep(
            "EmptyExcluded",
            {"unused": unused},
            "A is outside the image of f, so g(v) = A xor f(v) is never the empty label.",
        ),
        ProofStep(
            "UniqueDecomposition",
            {"universe": universe, "edge_count": p * q},
            f"each g(u) with u in P is one of the {universe - 1} nonzero edge labels, so "
            "g(u) = g(p') xor g(q') for some p' in P, q' in Q; injectivity of the edge "
            "map makes p' unique.",
        ),
        ProofStep(
            "InvolutionPairing",
            {"p": p, "pair_size": 2},
            "mapping u to that unique p' = theta(u) gives theta(u) != u (else g(q') "
            "would be empty) and theta(theta(u)) = u, a fixed-point-free involution on P.",
        ),
        ProofStep(
            "EvenSide",
            {"p": p, "q": q, "universe": universe, "pair_size": 2},
            f"the pairs {{u, theta(u)}} partition P into blocks of size 2, "
            f"so |P| = {p} would be even.",
        ),
        ProofStep(
            "OddUniverseContradiction",
            {"p": p, "q": q, "m": m, "universe": universe},
            f"|P| even would make |X| = |P|*|Q| + 1 odd, but |X| = {universe} = 2^{m} "
            f"is even for m = {m} >= 1; contradiction, so {name} has no "
            "set-graceful labeling.",
        ),
    )
    if tuple(step.kind for step in steps) != STEP_KINDS:
        raise AssertionError("proof steps out of canonical order")
    for step in steps:
        if not step.recheck():
            raise AssertionError(f"proof step {step.kind} failed its arithmetic recheck")
    return ProofTrace(p=p, q=q, m=m, steps=steps)
