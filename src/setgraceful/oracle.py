"""Brute-force enumeration oracle for cross-validating the search engine.

Generate-and-test over every injective label assignment, in lexicographic
order, with no pruning.  A permutation of range(2**m) is in range and
injective by construction, so of the set-graceful predicate only its edge
half, `labeling.edges_cover_once`, is left to test, and that is the one
`validate` calls too.  Deliberately shares no pruning logic or state
with the backtracking searcher (it imports nothing from `search` or
`conditions`); agreement between the two is the central cross-check of
this repository.
"""

from __future__ import annotations

import itertools
import math

from setgraceful.graph import Graph
from setgraceful.labeling import Labeling, edges_cover_once
from setgraceful.labels import check_ground_size

CAP = 10_000_000


class EnumerationCapError(RuntimeError):
    """Enumeration would exceed the oracle's hard cap; carries the size."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"brute force would enumerate {size} assignments (cap {cap})")
        self.size = size
        self.cap = cap


def brute_force_enumerate(g: Graph, m: int) -> list[Labeling]:
    """All set-graceful labelings of g over ground size m, in lexicographic order.

    Enumerates every injective map from vertices to labels, tests each with
    `edges_cover_once` against the graph's edges and full mask, computed
    once, and builds a `Labeling` only for the ones it accepts.  An m
    inconsistent with the edge count is allowed and simply yields an empty
    list.  Refuses to run when the number of injective maps exceeds CAP.
    """
    check_ground_size(m)
    size = math.perm(1 << m, g.n)
    if size > CAP:
        raise EnumerationCapError(size, CAP)
    edges = g.edges
    full = (1 << (1 << m)) - 2
    found = []
    for assignment in itertools.permutations(range(1 << m), g.n):
        if edges_cover_once(edges, full, assignment):
            found.append(Labeling(m, assignment))
    return found
