"""Forbidding edge-set constructions and exact bound evaluators.

Constructions target convex position: three consecutive hull edges, three
pairs of consecutive hull edges around middle vertices, and the depth
blanket (all edges whose smaller half-plane count is at most a threshold).
Bounds are exact rationals; comparisons against set sizes never go through
floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .geometry import Edge, EdgeSet, PointSet, edge_depth, require_convex_position
from .trees import Tree, spider_tree

KIND_THREE_CONSECUTIVE = "three-consecutive-hull"
KIND_THREE_PAIRS = "three-pairs-hull"
KIND_BLANKET = "r-edge-blanket"


@dataclass(frozen=True)
class ForbidConstruction:
    kind: str
    edges: EdgeSet
    target_tree: Tree
    params: dict

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "edges": self.edges.to_json()["edges"],
            "target_tree": self.target_tree.to_json(),
            "params": dict(self.params),
        }


def three_consecutive_hull_edges(s: PointSet, start: int = 0) -> ForbidConstruction:
    """Three consecutive hull edges starting at a hull position.

    The forbidden set walks the hull order from `start` over four
    consecutive hull vertices; the target is the spider tree on n vertices.
    """
    n = len(s)
    if n < 5:
        raise ValueError("needs n >= 5")
    hull = require_convex_position(s)
    edges = [
        Edge(hull[(start + i) % n], hull[(start + i + 1) % n])
        for i in range(3)
    ]
    return ForbidConstruction(
        kind=KIND_THREE_CONSECUTIVE,
        edges=EdgeSet(edges),
        target_tree=spider_tree(n),
        params={"n": n, "start": start},
    )


def three_pairs_consecutive_hull_edges(
    s: PointSet, middles: tuple[int, int, int]
) -> ForbidConstruction:
    """Both hull edges around each of three middle hull positions.

    The three middles (hull positions, taken mod n) must be distinct and
    pairwise at cyclic distance >= 2; then the six edges are distinct.
    """
    n = len(s)
    if n < 6:
        raise ValueError("needs n >= 6 for three disjoint pairs")
    hull = require_convex_position(s)
    mids = tuple(m % n for m in middles)
    if len(set(mids)) != 3:
        raise ValueError("middle positions must be distinct")
    for a in mids:
        for b in mids:
            if a < b and min((a - b) % n, (b - a) % n) < 2:
                raise ValueError("middle positions must be pairwise non-adjacent")
    edges = []
    for m in mids:
        edges.append(Edge(hull[(m - 1) % n], hull[m]))
        edges.append(Edge(hull[m], hull[(m + 1) % n]))
    return ForbidConstruction(
        kind=KIND_THREE_PAIRS,
        edges=EdgeSet(edges),
        target_tree=spider_tree(n),
        params={"n": n, "middles": list(mids)},
    )


def blanket_threshold(n: int, k: int) -> int:
    """Depth threshold R = ceil(2(n-2)/(k-2) - 2), clamped at 0."""
    if k < 3:
        raise ValueError("k must be at least 3")
    r = math.ceil(Fraction(2 * (n - 2), k - 2) - 2)
    return max(r, 0)


def r_edge_blanket(s: PointSet, k: int) -> ForbidConstruction:
    """All edges of depth <= R for the threshold R = ceil(2(n-2)/(k-2) - 2).

    An exact level cut: an edge is in the set iff its depth is at most R.
    The target is the spider tree on k vertices; the set size never exceeds
    2n(n-2)/(k-2).
    """
    n = len(s)
    if not (3 <= k <= n):
        raise ValueError("need 3 <= k <= n")
    require_convex_position(s)
    r = blanket_threshold(n, k)
    edges = [
        Edge(a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if edge_depth(s, Edge(a, b)) <= r
    ]
    return ForbidConstruction(
        kind=KIND_BLANKET,
        edges=EdgeSet(edges),
        target_tree=spider_tree(k),
        params={"n": n, "k": k, "threshold": r},
    )


def turan_lower_bound(n: int, k: int) -> Fraction:
    """Exact lower bound (1/2) n^2/(k-1) - n/2 on the minimum forbidding size."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if k < 3:
        raise ValueError("k must be at least 3")
    return Fraction(n * n, 2 * (k - 1)) - Fraction(n, 2)


def upper_bound_value(n: int, k: int) -> Fraction:
    """Exact upper bound 2 n(n-2)/(k-2) on the minimum forbidding size."""
    if n < 5:
        raise ValueError("n must be at least 5")
    if k < 3:
        raise ValueError("k must be at least 3")
    return Fraction(2 * n * (n - 2), k - 2)
