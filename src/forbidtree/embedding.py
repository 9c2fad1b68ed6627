"""Constructive planar embeddings of trees into point sets.

The core procedure embeds a rooted tree by placing the root at a hull point,
sorting the remaining points by angle, carving them into contiguous angular
blocks sized like the child subtrees, and recursing with each child placed
at a hull vertex of its block visible from the parent. Every public entry
point validates its output and fails loudly rather than returning a drawing
with crossings or a forbidden edge.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

from .geometry import (
    Edge,
    EdgeSet,
    PointSet,
    angular_sort,
    convex_hull,
    crosses,
    hull_edges,
    polar_order,
    require_convex_position,
    visible_hull_vertices,
    _facing_chain,
)
from .trees import RootedTree, Tree, root_at, sort_children_by_subtree_size


class EmbeddingDefectError(RuntimeError):
    """An embedding routine could not uphold a guarantee it promises.

    This is always a reportable defect (or a violated precondition that
    slipped past validation), never a silent fallback.
    """


@dataclass(frozen=True)
class WedgePartition:
    """Angular split of a cell around an apex into contiguous blocks.

    The separating rays are realized combinatorially: cell i is a contiguous
    block of the counter-clockwise angular order around the apex, so a ray
    between two consecutive blocks always exists by general position.
    """

    apex: int
    cells: tuple[tuple[int, ...], ...]

    @property
    def boundaries(self) -> list[tuple[int | None, int | None]]:
        """m+1 separating rays as witness point pairs.

        Each ray is witnessed by the points it separates: (None, p) before
        the first cell, (p, q) between consecutive cells, (p, None) after
        the last.
        """
        rays: list[tuple[int | None, int | None]] = [(None, self.cells[0][0])]
        for left, right in zip(self.cells, self.cells[1:]):
            rays.append((left[-1], right[0]))
        rays.append((self.cells[-1][-1], None))
        return rays


@dataclass(frozen=True)
class Embedding:
    """Injective map from tree vertices to point indices, drawn with segments.

    The tree is the unrooted one: a drawing reads only its vertex count and
    its edges, so the root and child order that built it are not kept.
    """

    tree: Tree
    points: PointSet
    assignment: tuple[int, ...]

    def __post_init__(self):
        if any(type(p) is not int for p in self.assignment):
            raise TypeError(f"assignment entries must be integers, got {self.assignment!r}")
        if len(self.assignment) != self.tree.k:
            raise ValueError("assignment length must equal vertex count")
        if len(set(self.assignment)) != len(self.assignment):
            raise ValueError("assignment must be injective")
        n = len(self.points)
        if any(not (0 <= p < n) for p in self.assignment):
            raise ValueError("assignment maps outside the point set")

    def point_of(self, v: int) -> int:
        return self.assignment[v]

    @property
    def segment_pairs(self) -> list[tuple[int, int]]:
        """Drawn pairs (a, b), a < b, in tree-edge order; uncached to keep witnesses small."""
        asg = self.assignment
        return [(asg[u], asg[v]) if asg[u] < asg[v] else (asg[v], asg[u])
                for u, v in self.tree.edges]

    def segment_edges(self) -> list[Edge]:
        """Point-index edges induced by the tree edges."""
        return [Edge(a, b) for a, b in self.segment_pairs]

    @cached_property
    def _crossings(self) -> int:
        xy, segs = self.points.xy, self.segment_pairs
        count = 0
        for i, (a, b) in enumerate(segs):
            for c, d in segs[i + 1:]:
                if a != c and a != d and b != c and b != d and crosses(xy, a, b, c, d):
                    count += 1
        return count

    def crossing_count(self) -> int:
        """Number of crossing segment pairs; computed once per embedding."""
        return self._crossings

    def hull_edges_used(self) -> int:
        """Segments that are hull edges (edge depth 0, in general position)."""
        segs = self.segment_pairs
        if len(self.points) < 3:
            return len(segs)
        return len(hull_edges(self.points).intersection(segs))

    @cached_property
    def _used_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.segment_pairs)

    def uses_edge(self, e: Edge) -> bool:
        return (e.a, e.b) in self._used_pairs

    def avoids(self, forbidden: EdgeSet | Sequence[Edge]) -> bool:
        return not any((e.a, e.b) in self._used_pairs for e in forbidden)

    def validate(self) -> None:
        crossings = self._crossings
        if crossings:
            raise EmbeddingDefectError(f"embedding has {crossings} crossing(s)")

    def to_json(self, forbidden: EdgeSet | None = None) -> dict:
        out = {
            "assignment": list(self.assignment),
            "crossings": self._crossings,
            "hull_edges_used": self.hull_edges_used(),
            "forbidden_avoided": self.avoids(forbidden) if forbidden is not None else None,
        }
        return out


def lowest_point_root(s: PointSet) -> int:
    """Root point of every wedge run: lowest, then leftmost point (a hull vertex)."""
    return min(range(len(s)), key=lambda i: (s.xy[i][1], s.xy[i][0]))


class Placement(Enum):
    """A whole-subtree placement that replaces the wedge step at its root."""

    STAR = "star"
    SPIDER = "spider"


@dataclass
class RepairPlan:
    """The whole policy of one wedge run; repair rounds change it, the engine only reads it.

    A child goes to the first visible hull vertex of its block, in
    counter-clockwise order around its parent (the clockwise extreme), whose
    edge to the parent is not in avoid_edges, if the visible hull offers one:
    child_order: per-vertex child order, which fixes the order of the blocks.
    avoid_edges: sorted point pairs not to draw a child on; the hull edges for
      few-hull, the forbidden edge for every re-run of the single-edge repair,
      whose placements read it as their one pair.
    placements: whole-subtree placements keyed by subtree root.
    pinned: the point a vertex must take, in place of its visible-hull
      choice (or of the lowest point, at the root).
    """

    child_order: list[list[int]]
    avoid_edges: frozenset[tuple[int, int]] = frozenset()
    placements: dict[int, Placement] = field(default_factory=dict)
    pinned: dict[int, int] = field(default_factory=dict)


class _Engine:
    """Plan-driven wedge placement in preorder; the run is fully deterministic.

    Each cell is sorted once around its apex. A child block is a slice of
    that order, so it is read as it is, and its subtree is drawn inside its
    own cone from the apex, which no segment of another cone enters. A
    pinned root may sit inside the hull; its cell is sorted by _fan_order.
    """

    def __init__(
        self,
        s: PointSet,
        rt: RootedTree,
        plan: RepairPlan,
        trace: list[WedgePartition] | None = None,
    ):
        self.s = s
        self.rt = rt
        self.plan = plan
        self.trace = trace
        self.asg = [-1] * rt.k

    def run(self) -> list[int]:
        root = self.rt.root
        if self.plan.placements.get(root) is Placement.STAR:
            self._place_star(root, list(range(len(self.s))))
            return self.asg
        root_pt = self.plan.pinned.get(root, lowest_point_root(self.s))
        self.asg[root] = root_pt
        rest = [i for i in range(len(self.s)) if i != root_pt]
        self._place_subtree(root, root_pt, rest)
        return self.asg

    def _blocks(self, v: int, v_pt: int, cell: list[int]) -> Iterator[tuple[int, list[int]]]:
        """v's children paired with their angular blocks of cell (one point per descendant)."""
        kids = self.plan.child_order[v]
        if not kids:
            return iter(())
        sort = _fan_order if v in self.plan.pinned else angular_sort
        order = sort(self.s, v_pt, cell)
        blocks = []
        pos = 0
        for c in kids:
            size = self.rt.subtree_size[c]
            blocks.append(order[pos:pos + size])
            pos += size
        if self.trace is not None:
            self.trace.append(WedgePartition(v_pt, tuple(tuple(b) for b in blocks)))
        return zip(kids, blocks)

    def _place_subtree(self, v: int, v_pt: int, cell: list[int]) -> None:
        """Place v's descendants into cell, in preorder.

        An explicit stack of per-vertex block iterators replaces recursion,
        so a tree as deep as a long path needs no deep Python call stack.
        """
        # both orders of each avoided pair, so a candidate costs one lookup
        off = {pair for a, b in self.plan.avoid_edges for pair in ((a, b), (b, a))}
        placements, pinned = self.plan.placements, self.plan.pinned
        stack = [(v_pt, self._blocks(v, v_pt, cell))]
        while stack:
            v_pt, blocks = stack[-1]
            step = next(blocks, None)
            if step is None:
                stack.pop()
                continue
            c, block = step
            placement = placements.get(c)
            if placement is not None:
                if placement is Placement.STAR:
                    self._place_star(c, block)
                else:
                    self._place_spider(c, v_pt, block)
                continue
            c_pt = pinned.get(c)
            if c_pt is None:
                cand = _facing_chain(self.s.xy, block)
                if off:
                    cand = [q for q in cand if (v_pt, q) not in off] or cand
                c_pt = cand[0]
            self.asg[c] = c_pt
            rest = [x for x in block if x != c_pt]
            stack.append((c_pt, self._blocks(c, c_pt, rest)))

    def _place_star(self, c: int, block: list[int]) -> None:
        """Re-embed a star subtree fanning out from an interior cell point.

        All fan edges share the center, and so does the attachment edge, so
        the drawing is planar for any center choice; picking a center off
        the forbidden edge's endpoints eliminates that edge. Such a center
        exists: the block holds a vertex and its >= 2 leaves, so at least 3
        points, or, at the root, all n >= 5.
        """
        (e,) = self.plan.avoid_edges
        center = min(x for x in block if x not in e)
        self.asg[c] = center
        rest = sorted(x for x in block if x != center)
        for leaf, pt in zip(self.plan.child_order[c], rest):
            self.asg[leaf] = pt

    def _place_spider(self, z: int, attach_pt: int, block: list[int]) -> None:
        """Re-anchor a legs-of-two spider subtree inside its own cell.

        A point's rank is its place in the block, which is already in angular
        order around the attachment point. The spider center moves to an
        odd-rank point incident to the forbidden edge (or the lowest odd rank
        strictly between its two even-rank endpoints). The legs are then
        completed by exhaustive search over all pairings; the search space is
        complete for the fixed center, so failure is a reportable defect.
        Both endpoints of e lie in the block, as the last run drew e in
        it and a plan edit at z leaves z's block as it was.
        """
        (e,) = self.plan.avoid_edges
        ra, rb = sorted(block.index(p) for p in e)
        if ra % 2 == 1:
            t = ra
        elif rb % 2 == 1:
            t = rb
        else:
            t = ra + 1
        # The parity-mandated anchor is tried first, but it does not admit a
        # planar completion for every cell geometry, so the remaining cell
        # points follow as fallback anchors in rank order.
        for center in [block[t]] + block[:t] + block[t + 1:]:
            rest = sorted(x for x in block if x != center)
            pairs = self._complete_spider(attach_pt, center, rest)
            if pairs is not None:
                self.asg[z] = center
                for (mid_pt, leaf_pt), c in zip(pairs, self.plan.child_order[z]):
                    leaf_v = self.plan.child_order[c][0]
                    self.asg[c] = mid_pt
                    self.asg[leaf_v] = leaf_pt
                return
        raise EmbeddingDefectError("no planar spider completion at any anchor")

    def _complete_spider(self, attach_pt: int, center: int,
                         rest: list[int]) -> list[tuple[int, int]] | None:
        """(middle, leaf) point pairs for the legs from center, or None.

        The spider lies in its block's cone from attach_pt, so a spoke or leg
        can cross only the attach edge or another of its own legs.
        """
        (e,) = self.plan.avoid_edges
        banned = {e, e[::-1]}
        xy = self.s.xy

        def ok(new: tuple[int, int], against: list[tuple[int, int]]) -> bool:
            if new in banned:
                return False
            p, q = new
            return not any(p != c and p != d and q != c and q != d and crosses(xy, p, q, c, d)
                           for c, d in against)

        def dfs(unused: list[int], drawn: list[tuple[int, int]], acc: list[tuple[int, int]]):
            if not unused:
                return list(acc)
            a = unused[0]
            for b in unused[1:]:
                for mid, leaf in ((a, b), (b, a)):
                    spoke = (center, mid)
                    leg = (mid, leaf)
                    if not ok(spoke, drawn) or not ok(leg, drawn + [spoke]):
                        continue
                    acc.append((mid, leaf))
                    found = dfs([x for x in unused if x not in (a, b)],
                                drawn + [spoke, leg], acc)
                    if found is not None:
                        return found
                    acc.pop()
            return None

        return dfs(rest, [(attach_pt, center)], [])


def _fan_order(s: PointSet, center: int, cell: Sequence[int]) -> list[int]:
    """cell counter-clockwise around center, cut after its one gap wider than pi.

    At a hull vertex of {center} + cell this is angular_sort's order. An
    interior center has no such gap, and the polar order stays as it is.
    Either way each consecutive pair turns counter-clockwise by less than
    pi, so a block of two consecutive points spans less than pi.
    """
    others = polar_order(s, center, cell)
    m = len(others)
    for j in range(m):
        if s.orient_idx(center, others[j], others[(j + 1) % m]) == -1:
            return others[j + 1:] + others[:j + 1]
    return others


def _default_plan(rt: RootedTree) -> RepairPlan:
    return RepairPlan([list(rt.children[v]) for v in range(rt.k)])


def embed_recursive(
    rt: RootedTree,
    s: PointSet,
    trace: list[WedgePartition] | None = None,
) -> Embedding:
    """Embed a spanning rooted tree with the recursive wedge algorithm.

    The root maps to the lowest point, a hull vertex; each child maps to the
    clockwise angular extreme among the hull vertices of its angular block
    visible from its parent. A trace list, if given, receives every wedge
    partition in placement order.
    """
    if rt.k != len(s):
        raise ValueError("tree and point set sizes differ")
    asg = _Engine(s, rt, _default_plan(rt), trace=trace).run()
    emb = Embedding(rt.tree, s, tuple(asg))
    emb.validate()
    return emb


def _find_edge_use(rt: RootedTree, asg: Sequence[int], e: Edge) -> tuple[int, int] | None:
    """Tree edge (parent, child) currently drawn on e, if any."""
    for u, v in rt.tree.edges:
        if {asg[u], asg[v]} == {e.a, e.b}:
            return (u, v) if rt.parent[v] == u else (v, u)
    return None


@lru_cache(maxsize=1)
def _single_base(t: Tree, s: PointSet) -> tuple[RootedTree, Embedding]:
    """The rooting and first wedge run of embed_avoiding_single, kept for the next call.

    The default plan avoids no edge, places no whole subtree and pins no
    vertex, so the first run is the same for every edge; a sweep over the
    edges of one tree and set draws it once.
    """
    rt = sort_children_by_subtree_size(root_at(t, 0))
    return rt, Embedding(t, s, tuple(_Engine(s, rt, _default_plan(rt)).run()))


def embed_avoiding_single(t: Tree, s: PointSet, e: Edge) -> Embedding:
    """Embed a spanning tree without using the single forbidden edge.

    Runs the recursive algorithm with children in increasing subtree-size
    order, always taking the clockwise extreme. That first run does not
    depend on the edge, so it is drawn once per (tree, set) and shared: a
    drawing that avoids the edge is returned as it is, and the same object
    may be returned for other edges. If the forbidden edge shows up, a
    repair is applied at the failing parent/child pair and the plan is
    re-run with the edge in avoid_edges, which steers every child whose
    first candidate would draw it; each repair either eliminates the edge
    or reduces to a case that does. The loop stops after n rounds, more
    than _apply_repair proves it needs, with a loud defect.
    """
    n = len(s)
    if t.k != n:
        raise ValueError("tree and point set sizes differ")
    if n < 5:
        raise ValueError("single-edge avoidance is supported for n >= 5")
    s.check_edges(e)
    rt, base = _single_base(t, s)
    if not base.uses_edge(e):
        base.validate()
        return base
    plan = _default_plan(rt)
    plan.avoid_edges = frozenset({(e.a, e.b)})
    asg = base.assignment
    for i in range(n):
        if i:
            asg = _Engine(s, rt, plan).run()
        bad = _find_edge_use(rt, asg, e)
        if bad is None:
            emb = Embedding(t, s, tuple(asg))
            emb.validate()
            return emb
        u, v = bad
        _apply_repair(s, rt, plan, u, v, asg)
    raise EmbeddingDefectError(
        f"forbidden edge still used after {n} rounds; this input is a reportable defect"
    )


def _apply_repair(s: PointSet, rt: RootedTree, plan: RepairPlan, u: int, v: int,
                  asg: Sequence[int]) -> None:
    """One repair step for a forbidden edge e drawn on tree edge (u, v).

    u is the parent (at point p), v the child (at point q). Every re-run
    carries e in avoid_edges. That filter changes a placement only where a
    child's first candidate would draw e, and a child of subtree size >= 2
    always has another: its block's two angular extremes are visible. A
    drawing uses e at most once, so the filter moves nothing that the last
    run drew off e. The repairs, tried in a fixed hierarchy:
      a. v's subtree has >= 2 nodes: no plan edit; the filter moves v off q
         (only the first run, which has no filter, gets here).
      b. v is a leaf with a bigger sibling: move the first bigger sibling v2
         onto v's block start; the filter steers it off q, as u sits at p.
      c. v is a leaf and so are all its siblings: re-fan u's star subtree
         from a cell point off the forbidden edge.
      d. v is an only-child leaf: pin the grandparent z of a 3-vertex
         chain at an end of e, shift the block boundaries at z, or
         re-anchor a spider subtree (pinned at the root, placed inside its
         own cell elsewhere).

    The two pins of (d) turn whole-subtree placements into plain runs. A
    chain z, u, v fills z's block, which is {z's point, p, q} as in the last
    run, since a plan edit at z leaves z's block as it was. One of p and q
    is an angular extreme of the 3 points seen from z's parent, and both
    extremes are visible, so z is pinned at a visible one, the lower first;
    the filter then puts u on the third point and v on the other end of e.
    The two chain segments share u's point, and the attachment touches the
    block only at a visible hull vertex, so the drawing is planar. A root
    spider's center is pinned at p, the point of the root's child u; p may
    lie inside the hull, and _fan_order lists the other points around it so
    that each leg's 2-point block spans less than pi. Each leg stays in its
    own cone from p, and the filter swaps a leg whose middle vertex would
    sit on q with its leaf.

    Every repair finds the child orders of u and z ascending by subtree
    size, as they start, so rule (b) finds v2 after v. A plan edit at a
    vertex moves only points of its subtree, each subtree stays in its own
    block, and the last run drew only (u, v) on e, so every rule but (d)'s
    reorder ends the loop. (a) v moves off q. (b) q starts v2's block, v2
    moves off it, and u's leaves sit elsewhere. (c), (d)'s chain and
    spiders: the star center and the chain middle are off e, the filter
    keeps the root spider's spokes off q, and the cell spider's search
    skips e. (d)'s leaf shift: u's block slides back one point and keeps
    one of p and q; the leaf takes the other, from z's point. (d)'s reorder
    puts u2, of >= 3 vertices, on u's block start, so p and q both fall in
    u2's block: the next edge on e lies in u2's subtree, whose child orders
    are untouched, and it goes to a leaf, as the filter steers every bigger
    child.

    So the loop needs at most n - 3 rounds: the base run, then one re-run
    per repair. Each reorder moves the next repair's grandparent z strictly
    deeper, as the next edge on e lies in u2's subtree and u2, of >= 3
    vertices, cannot be the next u (a vertex whose one child is a leaf). A
    reorder needs z's subtree to hold z, u, u's leaf and u2, so z sits at
    depth n - 6 or less: at most n - 5 reorders, then the one repair that
    ends the loop.
    """
    size = rt.subtree_size
    child_order = plan.child_order
    if size[v] >= 2:
        return
    # child_order[u] is ascending here (see above), so v2 comes after v
    v2 = next((c for c in child_order[u] if size[c] >= 2), None)
    if v2 is not None:
        child_order[u].remove(v2)
        child_order[u].insert(child_order[u].index(v), v2)
        return
    if len(child_order[u]) > 1:
        plan.placements[u] = Placement.STAR
        return
    # v is the only child of u and a leaf; with n >= 5 points, u has a
    # parent z, and z has a parent if u is its only child
    z = rt.parent[u]
    siblings_u = [c for c in child_order[z] if c != u]
    if not siblings_u:
        # z, u, v fill z's block {z's point, p, q}; pin z at a visible end of e
        a, b = sorted((asg[u], asg[v]))
        chain = visible_hull_vertices(s, asg[rt.parent[z]], (asg[z], a, b))
        plan.pinned[z] = a if a in chain else b
        return
    big_u = [c for c in siblings_u if size[c] >= 3
             and child_order[z].index(c) > child_order[z].index(u)]
    if big_u:
        u2 = big_u[0]
        child_order[z].remove(u2)
        child_order[z].insert(child_order[z].index(u), u2)
        return
    small_u = [c for c in siblings_u if size[c] == 1]
    if small_u:
        # Shift the block boundaries by one: the leaf sibling moves to just
        # after u, so u's 2-point block slides off (p, q) entirely.
        leaf_sib = small_u[0]
        child_order[z].remove(leaf_sib)
        child_order[z].insert(child_order[z].index(u) + 1, leaf_sib)
        return
    # every sibling subtree of u is a 2-vertex chain: spider territory
    if rt.parent[z] is None:
        plan.pinned[z] = asg[u]
    else:
        plan.placements[z] = Placement.SPIDER


def embed_few_hull_edges(t: Tree, s: PointSet) -> Embedding:
    """Embed a spanning tree into convex position using < n/2 hull edges.

    Paths zig-zag along the hull order (at most 2 hull edges). Any other
    tree takes one wedge run steered off hull edges, ``_few_hull_general``:
    exactly 2 hull edges for a star, at most (n - 1)/2 for the rest.
    """
    n = len(s)
    if t.k != n:
        raise ValueError("tree and point set sizes differ")
    if n < 5:
        raise ValueError("the hull-edge bound needs n >= 5")
    require_convex_position(s)
    emb = _zigzag_path(t, s) if t.is_path() else _few_hull_general(t, s)
    emb.validate()
    if not emb.hull_edges_used() * 2 < n:
        raise EmbeddingDefectError(
            f"hull-edge bound violated: {emb.hull_edges_used()} of {n} points"
        )
    return emb


def _zigzag_path(t: Tree, s: PointSet) -> Embedding:
    """Path along alternating ends of the hull order: at most 2 hull edges."""
    n = t.k
    end = next(v for v in range(n) if t.degree(v) == 1)
    hull = convex_hull(s)
    lo, hi = 0, n - 1
    take_lo = True
    asg = [-1] * n
    for v in root_at(t, end).order:
        if take_lo:
            asg[v] = hull[lo]
            lo += 1
        else:
            asg[v] = hull[hi]
            hi -= 1
        take_lo = not take_lo
    return Embedding(t, s, tuple(asg))


def _few_hull_general(t: Tree, s: PointSet) -> Embedding:
    """The wedge run of embed_few_hull_edges for a tree that is not a path.

    The root is the lowest-index vertex of degree >= 3. Its children go by
    ascending subtree size, but the first non-leaf one, first_big, if any,
    goes first. A child avoids a hull edge to its parent when its visible
    points allow. This draws h < n/2 hull edges:
    - In convex position a block is an arc of the hull, and its visible
      chain is its two angular extremes (its point, for a block of one).
    - Only an end block of a cell can hold a hull neighbour of the apex. A
      non-root apex sits at an end of its block's arc, so its other hull
      neighbour lies outside its cell: it has one such block. The root has
      two.
    - So a child of subtree size >= 2 has an extreme that is no hull
      neighbour, which avoid_edges selects; a hull edge goes only to a leaf
      in an end block: at most one per non-root apex, and at the root only
      in the last block, since first_big fills the first.
    - If the root's last child is a leaf, so is every child but first_big
      (they ascend), and the root, of degree >= 3, has >= 2 leaf children.
    - Charge each non-root hull edge to its apex and its leaf: distinct
      vertices, never the root or a leaf child of it. So h <= 1 + (n - 3)/2
      if the root's last child is a leaf, and h <= (n - 1)/2 otherwise,
      when the root draws none. Both are less than n/2.
    - A star has no first_big: exactly its first and last leaves use hull
      edges, 2 < n/2 for n >= 5.
    """
    n = t.k
    root = min(v for v in range(n) if t.degree(v) >= 3)
    rt = sort_children_by_subtree_size(root_at(t, root))
    plan = _default_plan(rt)
    plan.avoid_edges = hull_edges(s)
    kids = plan.child_order[root]
    first_big = next((c for c in kids if rt.subtree_size[c] >= 2), None)
    if first_big is not None:
        kids.remove(first_big)
        kids.insert(0, first_big)
    return Embedding(t, s, tuple(_Engine(s, rt, plan).run()))


def rotate_embedding(emb: Embedding, i: int) -> Embedding:
    """Shift every assigned point i places clockwise along the hull order.

    Only defined for convex position, where the rotation is an automorphism
    of the cyclic point order and therefore preserves planarity.
    """
    out = _rotated(emb, require_convex_position(emb.points), i)
    out.validate()
    return out


def _rotated(emb: Embedding, hull: list[int], i: int) -> Embedding:
    """emb shifted i places clockwise along the given hull order; not validated."""
    n = len(hull)
    pos = {p: j for j, p in enumerate(hull)}
    asg = tuple(hull[(pos[p] - i) % n] for p in emb.assignment)
    return Embedding(emb.tree, emb.points, asg)


# The base depends on neither forbidden edge, so a sweep over pairs builds it once.
_few_hull_base = lru_cache(maxsize=1)(embed_few_hull_edges)


def embed_convex_avoiding_two(t: Tree, s: PointSet, f1: Edge, f2: Edge) -> Embedding:
    """Embed a spanning tree into convex position avoiding two forbidden edges.

    Takes the low-hull-usage embedding and scans its n rotations for one
    that avoids both edges; at least one rotation must work for convex
    inputs, so a failed scan raises a defect rather than returning quietly.
    """
    n = len(s)
    if t.k != n:
        raise ValueError("tree and point set sizes differ")
    if n < 5:
        raise ValueError("two-edge avoidance is supported for n >= 5")
    s.check_edges(f1, f2)
    base = _few_hull_base(t, s)
    hull = convex_hull(s)
    for i in range(n):
        cand = _rotated(base, hull, i)
        if not cand.uses_edge(f1) and not cand.uses_edge(f2):
            cand.validate()  # the validated base rotated: the same crossings
            return cand
    raise EmbeddingDefectError(
        "no rotation avoids both forbidden edges; please report this input"
    )
