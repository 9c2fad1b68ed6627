"""Independent checks for the benchmark's outputs.

Nothing here imports forbidtree: points are plain (x, y) integer pairs,
trees are plain edge lists, and every predicate is recomputed from scratch
with exact integer arithmetic. The brute-force routines enumerate every
bijection (or every labelled spanning tree), so they are only meant for
n <= 7.
"""
from __future__ import annotations

import itertools
from typing import Sequence

Pt = tuple[int, int]
Pair = tuple[int, int]

BRUTE_FORCE_MAX_N = 7


class CheckError(AssertionError):
    """An output of the program failed an independent check."""


def orientation(p: Pt, q: Pt, r: Pt) -> int:
    """Sign of the cross product (q - p) x (r - p)."""
    det = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (det > 0) - (det < 0)


def proper_cross(p1: Pt, p2: Pt, q1: Pt, q2: Pt) -> bool:
    """True iff the closed segments p1p2 and q1q2 meet at one interior point.

    Segments that share an endpoint never properly cross. Collinear
    configurations do not occur for points in general position, and are
    rejected here rather than guessed at.
    """
    if p1 in (q1, q2) or p2 in (q1, q2):
        return False
    d1 = orientation(p1, p2, q1)
    d2 = orientation(p1, p2, q2)
    d3 = orientation(q1, q2, p1)
    d4 = orientation(q1, q2, p2)
    if 0 in (d1, d2, d3, d4):
        raise CheckError("collinear segment endpoints: not in general position")
    return d1 != d2 and d3 != d4


def require_general_position(points: Sequence[Pt]) -> None:
    if len(set(points)) != len(points):
        raise CheckError("coincident points")
    for a, b, c in itertools.combinations(points, 3):
        if orientation(a, b, c) == 0:
            raise CheckError(f"collinear triple {a} {b} {c}")


def hull_order(points: Sequence[Pt]) -> list[int]:
    """Indices of the convex hull vertices in counter-clockwise order (gift wrapping)."""
    n = len(points)
    start = min(range(n), key=lambda i: points[i])
    hull = [start]
    while True:
        cur = hull[-1]
        cand = (cur + 1) % n
        for j in range(n):
            if j != cur and orientation(points[cur], points[cand], points[j]) < 0:
                cand = j
        if cand == start:
            return hull
        hull.append(cand)


def check_plane_embedding(
    points: Sequence[Pt],
    tree_edges: Sequence[Pair],
    assignment: Sequence[int],
    forbidden: Sequence[Pair] = (),
) -> None:
    """Raise CheckError unless the assignment draws the tree crossing-free.

    The assignment must be a bijection from the tree's vertices onto the
    points, no two drawn segments may properly cross, and no drawn segment
    may be a forbidden pair.
    """
    n = len(points)
    k = len(tree_edges) + 1
    if len(assignment) != k or sorted(assignment) != list(range(n)):
        raise CheckError("assignment is not a bijection onto the points")
    segs = [(assignment[u], assignment[v]) for u, v in tree_edges]
    banned = {frozenset(p) for p in forbidden}
    for a, b in segs:
        if frozenset((a, b)) in banned:
            raise CheckError(f"drawn segment {a}-{b} is forbidden")
    for (a, b), (c, d) in itertools.combinations(segs, 2):
        if proper_cross(points[a], points[b], points[c], points[d]):
            raise CheckError(f"segments {a}-{b} and {c}-{d} cross")


def is_tree(k: int, edges: Sequence[Pair]) -> bool:
    """Whether the edges form a tree on the vertices 0..k-1."""
    root = list(range(k))

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    for u, v in edges:
        if not (0 <= u < k and 0 <= v < k):
            return False
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        root[ru] = rv
    return len(edges) == k - 1


def canonical_tree(k: int, edges: Sequence[Pair]) -> str:
    """Isomorphism-invariant string: the least AHU encoding over all roots."""
    adj: list[list[int]] = [[] for _ in range(k)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def enc(v: int, parent: int) -> str:
        return "(" + "".join(sorted(enc(w, v) for w in adj[v] if w != parent)) + ")"

    return min(enc(r, -1) for r in range(k))


def prufer_edges(seq: Sequence[int], k: int) -> list[Pair]:
    """Decode a Prufer sequence into the edges of a labelled tree on k vertices."""
    degree = [1] * k
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(k) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [v for v in range(k) if degree[v] == 1]
    edges.append((u, v))
    return edges


def labelled_trees(k: int):
    """Every labelled tree on k >= 2 vertices, as an edge list."""
    if k == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(k), repeat=k - 2):
        yield prufer_edges(seq, k)


class CrossTable:
    """Edge bitmasks and their proper-crossing sets for one small point set."""

    def __init__(self, points: Sequence[Pt]):
        n = len(points)
        require_general_position(points)
        self.pairs = list(itertools.combinations(range(n), 2))
        self.bit = {p: 1 << i for i, p in enumerate(self.pairs)}
        self.cross = [0] * len(self.pairs)
        for i, (a, b) in enumerate(self.pairs):
            for j, (c, d) in enumerate(self.pairs):
                if proper_cross(points[a], points[b], points[c], points[d]):
                    self.cross[i] |= 1 << j

    def mask(self, segments: Sequence[Pair]) -> int:
        m = 0
        for a, b in segments:
            m |= self.bit[(a, b) if a < b else (b, a)]
        return m

    def is_plane(self, mask: int) -> bool:
        rest = mask
        while rest:
            low = rest & -rest
            if self.cross[low.bit_length() - 1] & mask:
                return False
            rest ^= low
        return True


def _require_small(points: Sequence[Pt]) -> None:
    if len(points) > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is limited to n <= {BRUTE_FORCE_MAX_N}")


def embeds(points: Sequence[Pt], tree_edges: Sequence[Pair],
           forbidden: Sequence[Pair] = ()) -> bool:
    """Whether some bijection draws the spanning tree crossing-free and avoiding the set."""
    _require_small(points)
    n = len(points)
    if len(tree_edges) != n - 1:
        raise ValueError("the tree must span the point set")
    table = CrossTable(points)
    banned = table.mask(forbidden)
    for perm in itertools.permutations(range(n)):
        m = table.mask([(perm[u], perm[v]) for u, v in tree_edges])
        if not m & banned and table.is_plane(m):
            return True
    return False


def min_forbidding_size(points: Sequence[Pt], cap: int) -> tuple[int, frozenset, str] | None:
    """Smallest edge set that hits every plane drawing of some spanning tree.

    Walks all n^(n-2) labelled spanning trees on the points, keeps the
    crossing-free ones grouped by isomorphism class, and tries edge sets in
    order of size up to the cap. Returns (size, edge pairs, class) or None.
    """
    _require_small(points)
    n = len(points)
    table = CrossTable(points)
    drawings: dict[str, set[int]] = {}
    for edges in labelled_trees(n):
        cls = canonical_tree(n, edges)
        group = drawings.setdefault(cls, set())
        m = table.mask(edges)
        if table.is_plane(m):
            group.add(m)
    classes = sorted(drawings)
    for cls in classes:
        if not drawings[cls]:
            return 0, frozenset(), cls
    for size in range(1, cap + 1):
        for combo in itertools.combinations(range(len(table.pairs)), size):
            f = 0
            for i in combo:
                f |= 1 << i
            for cls in classes:
                if all(m & f for m in drawings[cls]):
                    return size, frozenset(table.pairs[i] for i in combo), cls
    return None
