"""Brute-force enumeration oracle for cross-validating the search engine.

Generate-and-test over every injective label assignment, in lexicographic
order, with no pruning.  A permutation of range(2**m) is in range and
injective by construction, so of the set-graceful predicate only its edge
half, `labeling.edges_cover_once`, is left to test, and that is the one
`validate` calls too.  The labelings are yielded one at a time, so memory
stays flat however many there are; `CAP` bounds the time a call may take.
Deliberately shares no pruning logic or state with the backtracking
searcher (it imports nothing from `search` or `conditions`); agreement
between the two is the central cross-check of this repository.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from setgraceful.graph import Graph
from setgraceful.labeling import Labeling, edges_cover_once
from setgraceful.labels import check_ground_size

CAP = 10_000_000


def brute_force_enumerate(g: Graph, m: int) -> Iterator[Labeling]:
    """Iterate over the set-graceful labelings of g over ground size m, in
    lexicographic order.

    Enumerates every injective map from vertices to labels, tests each with
    `edges_cover_once` against the graph's edges and full mask, computed
    once, and builds a `Labeling` only for the ones it accepts, as the
    iterator reaches them.  An m inconsistent with the edge count is
    allowed and simply yields nothing.  The checks run at the call, before
    the first label is tried: ValueError for a ground size out of range,
    RuntimeError when the number of injective maps exceeds CAP.  Take
    `list(...)` of the result for a length or an index.
    """
    check_ground_size(m)
    size = math.perm(1 << m, g.n)
    if size > CAP:
        raise RuntimeError(f"brute force would enumerate {size} assignments (cap {CAP})")
    edges = g.edges
    full = (1 << (1 << m)) - 2
    return (Labeling(m, assignment)
            for assignment in itertools.permutations(range(1 << m), g.n)
            if edges_cover_once(edges, full, assignment))
