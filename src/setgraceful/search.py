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
members, where |GL(m,2)| = prod_{i<m} (2**m - 2**i).  With
``symmetry="affine"`` (the default) the engine visits one labeling per
orbit, the canonical one: the anchor (first vertex in order) carries the
empty label, and every later label either lies in the span of the labels
before it, which is {0, ..., 2**d - 1} for some d, or is exactly the next
basis vector 2**d.  This is the lexicographically smallest member of its
orbit in vertex order (orderly generation, McKay 1998).  Raw counts are
canonical counts times 2**m * |GL(m,2)|.  ``symmetry="translation"`` uses
only the XOR translations: the anchor is pinned to 0, orbits have size
2**m and raw counts are anchored counts times 2**m.  ``symmetry="none"``
explores every labeling.  The three settings differ only in the anchor's
candidate mask and in the per-dimension candidate caps, and candidates are
tried in ascending order, so the canonical labelings are visited in the
same order as under translation: the first witness and the counts agree,
and affine never explores more nodes.  All mode returns every labeling,
and each canonical one stands for an orbit of 2**m * |GL(m,2)| of them, so
a node limit would not bound the list; all mode therefore searches with
translation symmetry whenever symmetry is on, and its witnesses, counts and
node counts are those of ``symmetry="translation"``.

Closed-form exits: before it builds any per-vertex state, `search`
answers without exploring a node when the edge count is not 2**m - 1 for
any m, when there are more vertices than labels, and when m >= 2 and
exactly two vertices have odd degree (`conditions.parity_obstruction`: the
XOR of all edge labels is 0, so those two vertices would need the same
label).  The first and last of these record a reason in the outcome.

Determinism: the search runs on one thread along one code path.  Candidate
labels are tried in ascending numeric order and all-mode witnesses are
sorted by their label sequence in vertex order, so a given graph and config
always yield the same outcome, node count included.
"""

from __future__ import annotations

from setgraceful.conditions import feasible_ground_size, parity_obstruction
from setgraceful.graph import Graph
from setgraceful.labeling import Labeling
from setgraceful.labels import MODES, check_ground_size
from setgraceful.record import Record, set_field

SYMMETRIES = ("affine", "translation", "none")


class SearchConfig(Record):
    __slots__ = ("mode", "symmetry", "node_limit")

    def __init__(
        self, mode: str = "count", symmetry: str = "affine", node_limit: int | None = None
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if symmetry not in SYMMETRIES:
            raise ValueError(f"symmetry must be one of {SYMMETRIES}, got {symmetry!r}")
        if node_limit is not None and node_limit <= 0:
            raise ValueError(f"node_limit must be positive, got {node_limit}")
        set_field(self, "mode", mode)
        set_field(self, "symmetry", symmetry)
        set_field(self, "node_limit", node_limit)


class SearchOutcome(Record):
    """Result of a search run.

    Counts are exact when the whole tree was explored; a node-limited run
    reports the partial counts found before the limit, and first mode stops
    at its first hit, so its counts cover only what was found: the whole
    symmetry orbit of the witness (2**m * |GL(m,2)| raw and |GL(m,2)|
    anchored under affine symmetry, 2**m and 1 under translation).  All
    mode always searches with translation symmetry when symmetry is on.
    count_anchored counts the labelings with the anchor at the empty label,
    which is count_raw / 2**m whenever symmetry is on.  m is None only for
    graphs whose edge count rules out every ground size, with the reason
    recorded.  A reason is also recorded, with m set, when the parity
    condition decides the graph without search; it names the two
    odd-degree vertices.
    """

    __slots__ = (
        "m", "count_raw", "count_anchored", "witnesses", "nodes_explored", "exhausted", "reason",
    )
    _defaults = {"reason": None}


def vertex_order(g: Graph) -> list[int]:
    """Deterministic connected-first assignment order.

    Starts at a maximum-degree vertex, then repeatedly appends the vertex
    with the most already-placed neighbors (ties to the smallest index).
    Isolated vertices come last, in index order.
    """
    deg = g.degrees()
    adj = g.adjacency()
    active = [v for v in range(g.n) if deg[v] > 0]
    isolated = [v for v in range(g.n) if deg[v] == 0]
    order: list[int] = []
    if active:
        start = max(active, key=lambda v: (deg[v], -v))
        placed_nbrs = [0] * g.n
        remaining = set(active)
        current = start
        while True:
            order.append(current)
            remaining.discard(current)
            if not remaining:
                break
            for w in adj[current]:
                placed_nbrs[w] += 1
            current = max(remaining, key=lambda v: (placed_nbrs[v], -v))
    order.extend(isolated)
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
) -> tuple[int, int, list[tuple[int, ...]], int, bool]:
    """Iterative DFS over all positions, the first restricted to the labels in first.

    The next position's candidates are the free labels in caps[d], where d
    is the bit length of the largest label placed so far.  Under the
    canonical rule the labels placed span {0, ..., 2**d - 1}, so d is the
    number of basis vectors 1, 2, 4, ... placed; under translation or no
    symmetry every cap is the full mask and d does not matter.

    Returns (solutions, anchored solutions, witness tuples in order-space,
    assignment attempts, limit_hit).
    """
    count = 0
    anchored = 0
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
                if labels[0] == 0:
                    anchored += 1
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
    return count, anchored, witnesses, nodes, limit_hit


def search(g: Graph, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Find, count, or enumerate the set-graceful labelings of g.

    A graph whose edge count is not 2**m - 1 for any m gets an immediate
    zero outcome with the reason recorded (not an error), and one with more
    vertices than labels gets a zero outcome without search.  A graph with
    exactly two odd-degree vertices and m >= 2 gets a zero outcome without
    search too, with m set and a reason naming the two vertices
    (`conditions.parity_obstruction`), in every mode and symmetry setting.
    Otherwise the engine explores every injective assignment compatible with
    the occupancy bitsets, one per orbit of cfg.symmetry (of translation
    symmetry in all mode).
    """
    if cfg is None:
        cfg = SearchConfig()
    verdict = feasible_ground_size(g)
    if not verdict.feasible:
        return _no_labeling(None, f"edge count {len(g.edges)} is not 2^m - 1 for any m")
    m = verdict.m
    check_ground_size(m)
    n = g.n

    if n == 0:
        wits = (Labeling(m, ()),) if cfg.mode != "count" else ()
        return SearchOutcome(
            m=m, count_raw=1, count_anchored=1, witnesses=wits,
            nodes_explored=0, exhausted=True,
        )
    if n > 1 << m:
        # Too few labels for distinct vertex labels.  Answer before building
        # per-vertex state, whose size only the vertex count bounds.
        return _no_labeling(m)
    pair = parity_obstruction(g, m)
    if pair is not None:
        return _no_labeling(m, f"vertices {pair[0]} and {pair[1]} are the only odd-degree "
                               "vertices, so any labeling would give them the same label")
    return _tree_search(g, m, cfg)


def _no_labeling(m: int | None, reason: str | None = None) -> SearchOutcome:
    """A closed-form exit's outcome: no labeling, and no node explored."""
    return SearchOutcome(m, 0, 0, (), 0, True, reason)


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

    sym = cfg.symmetry
    # With symmetry on, the anchor is pinned to the empty label.  Affine
    # symmetry also caps each label at the next basis vector 2**d, except in
    # all mode: there every canonical labeling would expand to 2**m *
    # |GL(m,2)| witnesses however few nodes the limit allows, so all mode
    # searches under translation symmetry and returns the same list.
    first = full if sym == "none" else 1
    if sym == "affine" and cfg.mode != "all":
        caps = [(2 << (1 << d)) - 1 for d in range(m)] + [full]
        linear = _gl_order(m)
    else:
        caps = [full] * (m + 1)
        linear = 1
    count, anchored, wit_tuples, nodes, limit_hit = _explore(
        back, caps, first, cfg.mode, cfg.node_limit,
    )

    translations = 1 if sym == "none" else universe
    count_raw = count * translations * linear
    count_anchored = anchored * linear

    tuples = wit_tuples
    if cfg.mode == "all":
        if sym != "none":
            # Expand each anchored representative to its full translation orbit.
            tuples = [tuple(x ^ t for x in w) for w in wit_tuples for t in range(universe)]
        tuples.sort()
    witnesses = []
    for w in tuples:
        vals = [0] * n
        for i, lab in enumerate(w):
            vals[order[i]] = lab
        witnesses.append(Labeling(m, tuple(vals)))

    return SearchOutcome(
        m=m,
        count_raw=count_raw,
        count_anchored=count_anchored,
        witnesses=tuple(witnesses),
        nodes_explored=nodes,
        exhausted=not limit_hit,
    )
