"""Exhaustive backtracking oracle for tree embeddability under forbidden edges.

This is the ground truth the constructive embedders and the forbidden-set
constructions are checked against. A feasibility search is exact within its
node budget; running out of budget is a distinct "unknown" outcome, never
conflated with infeasibility.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache

from .embedding import Embedding
from .geometry import Edge, EdgeSet, PointSet, hull_maps
from .trees import RootedTree, Tree, _ahu_codes, all_trees, root_at

DEFAULT_BUDGET = 10**8
PRUNE_KINDS = ("crossing", "forbidden", "lookahead")


class SearchBudgetExceeded(RuntimeError):
    """A search hit its node budget before reaching a verdict."""


@dataclass
class SearchReport:
    """Outcome of one feasibility search.

    feasible is True/False for settled verdicts and None when the budget ran
    out; a witness is present exactly when feasible is True. The node and
    prune counts are those of the search the call ran; a call answered by
    its pair's first drawing (see ``exists_embedding``) ran none, and
    reports 0 nodes and 0 prunes of every kind.
    """

    feasible: bool | None
    witness: Embedding | None
    nodes_expanded: int
    prunes: dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def unknown(self) -> bool:
        return self.feasible is None

    def to_json(self) -> dict:
        return {
            "feasible": "unknown" if self.feasible is None else self.feasible,
            "witness": self.witness.to_json() if self.witness else None,
            "nodes": self.nodes_expanded,
            "prunes": dict(self.prunes),
            "ms": round(self.elapsed * 1000, 3),
        }


@lru_cache(maxsize=1024)
def _search_rooting(
    t: Tree,
) -> tuple[RootedTree, tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """The tree rooted for the search, each vertex's twin and the pending table; cached per tree.

    The root is the lowest-index vertex of maximum degree, since the
    vertices placed early constrain the most edges. The twin of v is its nearest
    earlier sibling whose rooted subtree has the same AHU code, or -1.
    Entry i of the pending table holds a ``(u, c)`` pair for each vertex u
    among ``order[:i + 1]`` that has c > 0 children outside it, the latest
    placed first. Equal trees share one entry.
    """
    rt = root_at(t, min(range(t.k), key=lambda v: (-t.degree(v), v)))
    code = _ahu_codes(t, rt.order, rt.parent)
    twin = [-1] * t.k
    for kids in rt.children:
        for i, v in enumerate(kids):
            twin[v] = next((u for u in reversed(kids[:i]) if code[u] == code[v]), -1)
    waiting = [len(kids) for kids in rt.children]
    pending = []
    for i, v in enumerate(rt.order):
        if i:
            waiting[rt.parent[v]] -= 1
        pending.append(tuple((u, waiting[u]) for u in reversed(rt.order[:i + 1]) if waiting[u]))
    return rt, tuple(twin), tuple(pending)


def _search(
    t: Tree, s: PointSet, forb_mask: int, budget: int,
) -> tuple[bool | None, list[int], int, dict[str, int]]:
    """The search core: (verdict, assignment, nodes, prunes by kind).

    DFS over injective vertex-to-point assignments in ``root_at(t, v).order``,
    where v is the lowest-index vertex of maximum degree; the rooting is
    computed once per tree and cached. Each newly placed vertex adds exactly
    one drawn edge, to its parent. The search carries two int masks: the
    free points, and the dead edges, a two-way edge mask (see
    ``PointSet.two_way_mask``) of the forbidden edges (``forb_mask``) and
    every edge that crosses a drawn one. The candidates at each level are
    the parent point's row of ``s.candidate_rows()``: each entry carries
    the point, its bit, the edge's bit and its two-way crossing mask, so a
    candidate edge costs one ``&`` test and is pruned, as forbidden or as
    crossing, the moment it is dead.

    Lookahead (forward checking; Haralick and Elliott, Artificial
    Intelligence 14, 1980): with the candidate drawn, every placed vertex
    u with c unplaced children (the pending table of ``_search_rooting``)
    needs c free points r with edge (u's point, r) not dead, and the
    branch is cut when one has fewer. Along a branch the dead edges only
    grow and the free points only shrink, so a cut branch holds no
    embedding: the verdict and the first assignment found are those of
    the search without the rule.

    Points are tried in ascending order. A vertex with a twin (see
    ``_search_rooting``) tries only points above its twin's: swapping two
    isomorphic sibling subtrees redraws the same segments, so the
    lexicographically first drawing, the one found first, obeys that rule,
    and the verdict and assignment are those of the unrestricted search.
    Root points are tried in ascending order too. Once root point 0 has
    failed, a root point p is skipped when a map of G_F (``_skipped_roots``)
    sends it to a point below p. Such a map keeps F and keeps crossings,
    so a drawing rooted at p would map to one rooted at its image; by
    induction over the root points, every one below p holds no drawing,
    so p holds none either, and the verdict and the first assignment are
    those of the search without the rule (symmetry breaking; Crawford,
    Ginsberg, Luks and Roy, KR 1996). G_F is built only once root point 0
    has failed, from maps cached on the point set.

    A node is a candidate tried, counted before it is tested; the points a
    twin skips and the skipped root points are not counted. Exhaustive
    within the budget; the verdict is None when the budget runs out. The
    assignment is unchecked: see ``_witness``.
    """
    k, n = t.k, len(s)
    rt, twin, pending = _search_rooting(t)
    order, parent_of = rt.order, rt.parent

    rows = s.candidate_rows()
    asg = [-1] * k
    nodes = crossing_prunes = forbidden_prunes = lookahead_prunes = 0
    last = k - 1

    def dfs(i: int, dead: int, free: int) -> bool:
        """Place order[i] (i >= 1) next to its placed parent."""
        nonlocal nodes, crossing_prunes, forbidden_prunes, lookahead_prunes
        v = order[i]
        p = asg[parent_of[v]]
        row = rows[p]
        if twin[v] >= 0:  # rows run in ascending point and skip p itself
            lo = asg[twin[v]]
            row = row[lo + 1 - (lo > p):]
        waiting = pending[i]
        for pt, pt_bit, bit, crossed in row:
            if not free & pt_bit:
                continue
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded
            if dead & bit:
                if forb_mask & bit:
                    forbidden_prunes += 1
                else:
                    crossing_prunes += 1
                continue
            asg[v] = pt
            if i == last:
                return True
            d, f = dead | crossed, free ^ pt_bit
            for u, c in waiting:
                if (f & ~(d >> asg[u] * n)).bit_count() < c:
                    lookahead_prunes += 1
                    break
            else:
                if dfs(i + 1, d, f):
                    return True
        return False

    def search() -> bool:
        nonlocal nodes, lookahead_prunes
        root = order[0]
        fan = len(rt.children[root])
        dead, every = s.two_way_mask(forb_mask), (1 << n) - 1
        skipped = 0
        for pt in range(n):
            if skipped >> pt & 1:
                continue
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded
            asg[root] = pt
            if k == 1:
                return True
            free = every ^ 1 << pt
            if (free & ~(dead >> pt * n)).bit_count() < fan:
                lookahead_prunes += 1
            elif dfs(1, dead, free):
                return True
            if not pt:
                skipped = _skipped_roots(s, forb_mask)
        return False

    try:
        found = search()
    except SearchBudgetExceeded:
        found = None
    prunes = dict(zip(PRUNE_KINDS, (crossing_prunes, forbidden_prunes, lookahead_prunes)))
    return found, asg, nodes, prunes


def _skipped_roots(s: PointSet, forb_mask: int) -> int:
    """The point mask of the root points that a map of G_F sends to a lower point.

    G_F holds the maps of ``hull_maps(s)`` other than the identity that map
    the pairs of ``forb_mask`` onto themselves: the rotations and
    reflections of a convex set's hull order that keep F. A set not in
    convex position has no maps, so no root point is skipped.
    """
    maps = hull_maps(s)
    pairs = set(s.edge_pairs(forb_mask)) if maps else ()
    skipped = 0
    for i in range(1, len(maps)):
        m = maps[i]
        for a, b in pairs:  # a point map is one-to-one on pairs: into F is onto F
            if (m[a], m[b]) not in pairs and (m[b], m[a]) not in pairs:
                break
        else:
            skipped |= sum(1 << p for p, q in enumerate(m) if q < p)
    return skipped


def _witness(t: Tree, s: PointSet, asg: list[int], forb_mask: int) -> Embedding:
    """The search's assignment as an Embedding, checked independently of the search.

    ``validate()`` recounts crossings with ``crosses``, not the crossing
    table, and the drawn point pairs are tested against the forbidden edges
    decoded as point pairs, not against the search's bits.
    """
    witness = Embedding(t, s, tuple(asg))
    witness.validate()
    if not set(witness.segment_pairs).isdisjoint(s.edge_pairs(forb_mask)):
        raise AssertionError("oracle witness uses a forbidden edge")
    return witness


# The last (tree, set) pair whose first drawing was found: its witness W0
# and the node count N0 of the search that found it; see exists_embedding.
_first_drawing: dict[tuple[Tree, PointSet], tuple[Embedding, int]] = {}


def exists_embedding(
    t: Tree,
    s: PointSet,
    forbidden: EdgeSet | None = None,
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """Decide whether the tree embeds into the point set avoiding forbidden edges.

    Checks its arguments, turns the forbidden edges into a mask of edge ids
    and runs the search core ``_search``, the same one that
    ``min_forbidden_set_size`` drives; a witness is checked by ``_witness``.
    Exhaustive within the budget.

    The search finds the lexicographically first plane drawing that avoids
    F, the forbidden edges. So where W0, the pair's first drawing with
    nothing forbidden, avoids F, W0 is the answer, and the search settles
    within N0 nodes, N0 being the node count of the search that found W0:
    each candidate it tries, the search without F also tries before it
    reaches W0. That holds beside the root points ``_search`` skips: off
    convex position it skips none, and in convex position W0 is rooted at
    point 0, which is tried before any root point is skipped, since any
    tree embeds with a chosen vertex at any hull point (Ikebe, Perles,
    Tamura and Tokunaga, DCG 1994). A one-entry cache keyed by (tree, set)
    keeps W0, checked once by ``_witness``, and N0. A call with F nonempty
    is answered from it, with no search, when W0 avoids F and
    ``budget >= N0``: feasible, witness W0, 0 nodes and 0 prunes. Every
    other call reports the counts
    of its own search. A call with F empty is the search for W0 and fills
    the cache. On a cold pair a feasible search for F is followed by one
    for W0 under the same budget, and the rule above then decides the
    report; an infeasible or unknown call runs one search. The report is
    thus the same whatever calls came before, and a returned witness may
    be the same object for several calls.
    """
    k, n = t.k, len(s)
    if k > n:
        raise ValueError(f"tree on {k} vertices cannot embed into {n} points")
    if budget <= 0:
        raise ValueError("budget must be positive")
    forbidden = forbidden or EdgeSet()
    s.check_edges(*forbidden.edges)
    forb_mask = s.edge_mask((e.a, e.b) for e in forbidden.edges)
    start = time.perf_counter()

    def search(mask: int) -> SearchReport:
        found, asg, nodes, prunes = _search(t, s, mask, budget)
        return SearchReport(found, _witness(t, s, asg, mask) if found else None, nodes, prunes)

    report = None
    first = _first_drawing.get((t, s))
    if first is None or not forb_mask:
        report = search(forb_mask)
        if report.feasible and first is None:
            w0 = search(0) if forb_mask else report
            if w0.feasible:
                first = w0.witness, w0.nodes_expanded
                _first_drawing.clear()
                _first_drawing[t, s] = first
    if forb_mask and first and budget >= first[1] and first[0].avoids(forbidden):
        report = SearchReport(True, first[0], 0, dict.fromkeys(PRUNE_KINDS, 0))
    elif report is None:
        report = search(forb_mask)
    report.elapsed = time.perf_counter() - start
    return report


def forbids(
    forbidden: EdgeSet,
    t: Tree,
    s: PointSet,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """True iff every embedding of the tree uses a forbidden edge."""
    report = exists_embedding(t, s, forbidden, budget)
    if report.unknown:
        raise SearchBudgetExceeded(f"verdict unknown after {report.nodes_expanded} nodes")
    return not report.feasible


@dataclass(frozen=True)
class MinForbidResult:
    size: int
    edges: EdgeSet
    tree: Tree


def min_forbidden_set_size(
    s: PointSet,
    k: int,
    size_cap: int,
    budget: int = DEFAULT_BUDGET,
) -> MinForbidResult | None:
    """Smallest edge subset (up to the cap) forbidding some k-vertex tree.

    An implicit hitting set search (Moreno-Centeno and Karp, 2013): F forbids
    a tree iff it hits every plane drawing of it. For m = 1..cap and each tree
    of ``all_trees(k)``, a depth-first search grows F from the empty set: it
    takes a drawing avoiding F from the tree's pool of oracle witnesses, or
    else from the search core ``_search``, given F as an edge mask and its
    witness checked by ``_witness``; with none, F forbids the tree, otherwise
    each edge of the drawing extends F in turn. Once the branch on an edge
    has failed, the later branches at that node exclude it, and a node whose
    drawing has no edge outside the excluded set is cut (the bounded search
    tree for hitting set; Niedermeier, "Invitation to Fixed-Parameter
    Algorithms", 2006, ch. 8). A forbidding set that holds F and misses the
    excluded edges hits the node's drawing, which avoids F, in an edge
    outside the excluded set; the first such edge in branch order leads to
    it, so every set of size m is reached, and none twice. The first set
    found is returned, not always the lexicographically first. ``budget``
    bounds each oracle call, and a run-out raises SearchBudgetExceeded.
    Returns None when no set within the cap forbids.
    """
    n = len(s)
    if not (2 <= k <= n):
        raise ValueError("need 2 <= k <= n")
    if size_cap < 1:
        raise ValueError("size_cap must be positive")
    if budget <= 0:
        raise ValueError("budget must be positive")

    def grow(t: Tree, pool: list[int], f: int, x: int, depth: int) -> int | None:
        """A forbidding edge mask of f plus at most depth edges outside x, or None."""
        for w in pool:
            if not w & f:
                break
        else:
            found, asg, nodes, _ = _search(t, s, f, budget)
            if found is None:
                raise SearchBudgetExceeded(f"verdict unknown after {nodes} nodes")
            if not found:
                return f
            w = s.edge_mask(_witness(t, s, asg, f).segment_pairs)
            pool.append(w)
        w &= ~x
        while depth and w:
            b = w & -w
            found = grow(t, pool, f | b, x, depth - 1)
            if found is not None:
                return found
            x |= b
            w ^= b
        return None

    trees = all_trees(k)
    pools: list[list[int]] = [[] for _ in trees]
    for m in range(1, min(size_cap, n * (n - 1) // 2) + 1):
        for t, pool in zip(trees, pools):
            found = grow(t, pool, 0, 0, m)
            if found is not None:
                return MinForbidResult(m, EdgeSet(Edge(a, b) for a, b in s.edge_pairs(found)), t)
    return None
