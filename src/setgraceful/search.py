"""Backtracking search for set-graceful labelings with bitmask occupancy.

The engine assigns labels to vertices in a connected-first order, keeping
two occupancy bitsets (used vertex labels, used edge labels) as plain
integers with one bit per label.  A candidate label survives only if it is
an unused vertex label and every edge to an already-placed neighbor gets a
fresh edge label; distinct vertex labels already rule out empty edge
labels, so the zero bit of the edge bitset can never be set.

Symmetry: whether a labeling is set-graceful depends only on the XOR
structure of its labels, so every affine map x -> Mx xor t of GF(2)**m (M
invertible) sends set-graceful labelings to set-graceful labelings.  The
labels of a set-graceful labeling span GF(2)**m, so the action of the
affine group AGL(m,2) is free and every orbit has 2**m * |GL(m,2)|
members, where |GL(m,2)| = prod_{i<m} (2**m - 2**i).  The mode decides how
the engine uses that group:

- First and count mode visit one labeling per orbit, the canonical one:
  the anchor (first vertex in order) carries the empty label, and every
  later label either lies in the span of the labels before it, which is
  {0, ..., 2**d - 1} for some d, or is exactly the next basis vector 2**d.
  This is the lexicographically smallest member of its orbit in vertex
  order (orderly generation, McKay 1998).  Raw counts are canonical counts
  times 2**m * |GL(m,2)|.
- All mode returns every labeling, so it walks the whole tree with no
  symmetry breaking; each witness costs at least one node, so the list
  never exceeds the node limit.

Closed-form exits: before it builds any per-vertex state, `search` asks
`conditions.obstruction` for a reason the graph has no labeling, and when
one comes back it answers without exploring a node, recording the reason
in the outcome.

Determinism: the search runs on one thread along one code path.  Candidate
labels are tried in ascending numeric order, so all-mode witnesses come out
sorted by their label sequence in vertex order, and a given graph and
config always yield the same outcome, node count included.
"""

from __future__ import annotations

from heapq import heappop, heappush

from setgraceful.conditions import feasible_ground_size, obstruction
from setgraceful.graph import Graph
from setgraceful.labeling import Labeling
from setgraceful.labels import MODES, check_ground_size
from setgraceful.record import Record, set_field

class SearchConfig(Record):
    __slots__ = ("mode", "node_limit")

    def __init__(self, mode: str = "count", node_limit: int | None = None) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if node_limit is not None:
            # One type test: it also refuses bool, an int subclass whose True is no node count.
            if type(node_limit) is not int:
                raise ValueError(f"node_limit must be an int, got {node_limit!r}")
            if node_limit <= 0:
                raise ValueError(f"node_limit must be positive, got {node_limit}")
        set_field(self, "mode", mode)
        set_field(self, "node_limit", node_limit)


class SearchOutcome(Record):
    """Result of a search run.

    Counts are exact when the whole tree was explored; a node-limited run
    reports the partial counts found before the limit, and first mode stops
    at its first hit, so its count is the witness's affine orbit,
    2**m * |GL(m,2)|.  All mode lists every labeling, never more than
    node_limit of them.  reason is set exactly when `conditions.obstruction`
    ruled out every labeling without search.  m is None only for graphs
    whose edge count rules out every ground size.
    """

    __slots__ = ("m", "count_raw", "witnesses", "nodes_explored", "exhausted", "reason")


def vertex_order(g: Graph) -> list[int]:
    """Deterministic connected-first assignment order.

    Starts at a maximum-degree vertex, then repeatedly appends the vertex
    with the most already-placed neighbors (ties to the smallest index).
    Isolated vertices come last, in index order.
    """
    adj = g.adjacency()
    # placed_nbrs[v] counts v's placed neighbors, and is -1 once v is placed.
    # Each unplaced active vertex has one heap entry (-placed_nbrs[v], v) that
    # is current, the smallest of which the rule picks; the others are skipped.
    placed_nbrs = [0] * g.n
    heap = [(0, v) for v in range(g.n) if adj[v]]  # sorted, so already a heap
    if heap:
        # The start goes first, with a count no other vertex reaches.
        start = max(range(g.n), key=lambda v: (len(adj[v]), -v))
        placed_nbrs[start] = g.n
        heappush(heap, (-g.n, start))
    order: list[int] = []
    while heap:
        count, v = heappop(heap)
        if -count != placed_nbrs[v]:
            continue
        order.append(v)
        placed_nbrs[v] = -1
        for w in adj[v]:
            if placed_nbrs[w] >= 0:
                placed_nbrs[w] += 1
                heappush(heap, (-placed_nbrs[w], w))
    order.extend(v for v in range(g.n) if not adj[v])
    return order


def _gl_order(m: int) -> int:
    """|GL(m,2)|, the number of invertible linear maps of GF(2)**m."""
    order = 1
    for i in range(m):
        order *= (1 << m) - (1 << i)
    return order


def _explore(
    back: list[list[int]],
    caps: list[int],
    first: int,
    mode: str,
    budget: int | None,
) -> tuple[int, list[tuple[int, ...]], int, bool]:
    """Iterative DFS over all positions, the first restricted to the labels in first.

    The next position's candidates are the free labels in caps[d], where d
    is the bit length of the largest label placed so far.  Under the
    canonical rule the labels placed span {0, ..., 2**d - 1}, so d is the
    number of basis vectors 1, 2, 4, ... placed; in the whole tree every
    cap is the full mask and d does not matter.

    Returns (solutions, witness tuples in order-space, assignment attempts,
    limit_hit).
    """
    count = 0
    witnesses: list[tuple[int, ...]] = []
    nodes = 0
    limit_hit = False

    n_pos = len(back)
    last = n_pos - 1
    labels = [0] * n_pos
    avail = [0] * n_pos
    ebits = [0] * n_pos
    used_v = used_e = 0
    i = 0
    avail[0] = first
    while True:
        a = avail[i]
        if a == 0:
            if i == 0:
                break
            i -= 1
            # Undo the assignment currently applied at the shallower depth.
            used_v ^= 1 << labels[i]
            used_e ^= ebits[i]
            continue
        if budget is not None and nodes >= budget:
            limit_hit = True
            break
        nodes += 1
        low = a & -a
        avail[i] = a ^ low
        lab = low.bit_length() - 1
        acc = 0
        for j in back[i]:
            # Back-neighbours carry distinct labels, so their edge bits differ.
            eb = 1 << (lab ^ labels[j])
            if used_e & eb:
                break
            acc |= eb
        else:
            labels[i] = lab
            if i == last:
                count += 1
                if mode != "count":
                    witnesses.append(tuple(labels))
                    if mode == "first":
                        break
                continue
            ebits[i] = acc
            used_v |= low
            used_e |= acc
            i += 1
            avail[i] = caps[(used_v.bit_length() - 1).bit_length()] & ~used_v
    return count, witnesses, nodes, limit_hit


def search(g: Graph, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Find, count, or enumerate the set-graceful labelings of g.

    When `conditions.obstruction` gives a reason, the outcome is zero in
    every mode, with that reason recorded (not an error) and no node
    explored.  Otherwise the engine explores every injective assignment
    compatible with the occupancy bitsets: one per affine orbit in first
    and count mode, every one in all mode.
    """
    if cfg is None:
        cfg = SearchConfig()
    m = feasible_ground_size(g)
    reason = obstruction(g, m)
    if reason is not None:
        return SearchOutcome(m, 0, (), 0, True, reason)
    check_ground_size(m)
    if g.n == 0:
        wits = (Labeling(m, ()),) if cfg.mode != "count" else ()
        return SearchOutcome(
            m=m, count_raw=1, witnesses=wits, nodes_explored=0, exhausted=True, reason=None,
        )
    return _tree_search(g, m, cfg)


def _tree_search(g: Graph, m: int, cfg: SearchConfig) -> SearchOutcome:
    """The engine's answer for g over its ground size m, found by walking its tree.

    Needs 1 <= g.n <= 2**m.  `search` calls it once no closed-form answer
    applies; tests call it to pin what the walk does on graphs that a
    closed form answers first.
    """
    universe = 1 << m
    full = (1 << universe) - 1
    n = g.n
    order = vertex_order(g)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    back: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        i, j = pos[u], pos[v]
        if i < j:
            back[j].append(i)
        else:
            back[i].append(j)

    if cfg.mode == "all":
        # The whole tree: the walk meets each labeling once, in sorted
        # order, and each witness costs at least one node.
        first, caps, orbit = full, [full] * (m + 1), 1
    else:
        # The canonical rule: the anchor carries the empty label, and each
        # label is capped at the next basis vector 2**d.
        first, caps = 1, [(2 << (1 << d)) - 1 for d in range(m)] + [full]
        orbit = universe * _gl_order(m)
    count, wit_tuples, nodes, limit_hit = _explore(
        back, caps, first, cfg.mode, cfg.node_limit,
    )
    # A witness lists labels in vertex order; pos[v] is v's place in it.
    witnesses = tuple(Labeling(m, tuple(map(w.__getitem__, pos))) for w in wit_tuples)

    return SearchOutcome(
        m=m,
        count_raw=count * orbit,
        witnesses=witnesses,
        nodes_explored=nodes,
        exhausted=not limit_hit,
        reason=None,
    )
