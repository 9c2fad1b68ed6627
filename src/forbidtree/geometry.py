"""Exact planar geometry over integer coordinates.

All predicates are computed with exact integer arithmetic; point sets are
validated to be in general position (no three collinear) once, in O(n^2),
at construction, so every downstream crossing/orientation test is
branch-free and exact. Cells are index lists into the one validated set, so
they need no re-validation.

The predicates on a validated set read its ``xy`` tuple of int pairs by
point index: orientation signs are inline integer cross products, and
``crosses`` is the one crossing test, which ``segments_cross``, embedding
validation and the oracle's crossing table all use.
``Point``, ``Edge`` and ``EdgeSet`` are immutable values. A ``PointSet``
never changes its points but fills its hull, its hull maps, crossing
table and the oracle's candidate rows lazily, on first use; the predicates
are pure functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Iterable, Sequence

# Coordinates bounded so a 3-point orientation determinant fits in signed
# 64-bit arithmetic: |x|,|y| <= 2^30 gives |det| < 2^63.
COORD_BOUND = 1 << 30


class GeneralPositionError(ValueError):
    """Raised when a point set violates the general-position contract."""


def json_field(data, key: str, kind: type = list):
    """data[key] of a decoded JSON object, of exactly the given type; ValueError otherwise."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"expected a JSON object with key {key!r}")
    if type(data[key]) is not kind:
        raise ValueError(f"{key!r} must be of type {kind.__name__}, got {data[key]!r}")
    return data[key]


def json_ints(value, count: int | None = None) -> list[int]:
    """A decoded JSON list of integers (exactly count of them, if given); ValueError otherwise."""
    if (not isinstance(value, (list, tuple)) or count not in (None, len(value))
            or any(type(x) is not int for x in value)):
        raise ValueError(f"expected {count or 'a list of'} integers, got {value!r}")
    return list(value)


def _direction(dx: int, dy: int) -> tuple[int, int]:
    """Primitive direction of a nonzero vector, up to sign (equal iff parallel)."""
    g = math.gcd(dx, dy)
    dx, dy = dx // g, dy // g
    if dx < 0 or (dx == 0 and dy < 0):
        return -dx, -dy
    return dx, dy


def _collinear_pair(p: tuple[int, int],
                    rest: Sequence[tuple[int, int]]) -> tuple[int, int] | None:
    """The first two positions j < k of rest that p sees in one direction, or None.

    p must differ from every point of rest; p, rest[j] and rest[k] are then
    collinear. rest is first read as float slopes from p (``inf`` for a
    vertical pair): int/int division is correctly rounded, so parallel
    directions give equal floats, and distinct slopes mean no such pair.
    Only a tie (a true one, or two slopes that round alike) runs the exact
    ``_direction`` row, which decides it. This is the one general-position
    rule: PointSet runs it per row, random_points per candidate.
    """
    px, py = p
    if len({(qy - py) / (qx - px) if qx != px else math.inf for qx, qy in rest}) == len(rest):
        return None
    dirs = [_direction(qx - px, qy - py) for qx, qy in rest]
    if len(set(dirs)) == len(dirs):
        return None
    j = next(j for j, d in enumerate(dirs) if dirs.count(d) > 1)
    return j, dirs.index(dirs[j], j + 1)


@dataclass(frozen=True, order=True)
class Point:
    x: int
    y: int

    def __post_init__(self):
        # bool is an int subclass, but True as a coordinate is a caller's mistake
        if type(self.x) is not int or type(self.y) is not int:
            raise TypeError(f"coordinates must be integers, got ({self.x!r}, {self.y!r})")
        if abs(self.x) > COORD_BOUND or abs(self.y) > COORD_BOUND:
            raise ValueError(f"coordinate magnitude exceeds {COORD_BOUND}")


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the cross product (q-p) x (r-p).

    +1 = counter-clockwise turn, -1 = clockwise, 0 = collinear.
    """
    det = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def _point(p: Point | tuple[int, int]) -> Point:
    """p as a Point, which checks its coordinates; ValueError if p is not an (x, y) pair."""
    if not isinstance(p, Point) and len(p) != 2:
        raise ValueError(f"a point is an (x, y) pair, got {p!r}")
    return p if isinstance(p, Point) else Point(*p)


@dataclass(frozen=True)
class Edge:
    """Unordered pair of point indices, stored with a < b."""

    a: int
    b: int

    def __post_init__(self):
        if type(self.a) is not int or type(self.b) is not int:
            raise TypeError(f"edge endpoints must be integers, got ({self.a!r}, {self.b!r})")
        if self.a == self.b:
            raise ValueError("edge endpoints must differ")
        if self.a < 0 or self.b < 0:
            raise ValueError("edge indices must be non-negative")
        if self.a > self.b:
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)

    def shares_endpoint(self, other: "Edge") -> bool:
        return bool({self.a, self.b} & {other.a, other.b})

    def to_json(self) -> list[int]:
        return [self.a, self.b]

    @classmethod
    def from_json(cls, data: Sequence[int]) -> "Edge":
        return cls(*json_ints(data, 2))


class EdgeSet:
    """A set of edges over one point set; no duplicates by construction."""

    def __init__(self, edges: Iterable[Edge] = ()):
        self._edges = frozenset(edges)

    @property
    def edges(self) -> frozenset[Edge]:
        return self._edges

    def __len__(self):
        return len(self._edges)

    def __iter__(self):
        return iter(sorted(self._edges, key=lambda e: (e.a, e.b)))

    def __contains__(self, e: Edge) -> bool:
        return e in self._edges

    def __eq__(self, other):
        return isinstance(other, EdgeSet) and self._edges == other._edges

    def __hash__(self):
        return hash(self._edges)

    def __repr__(self):
        return f"EdgeSet({sorted((e.a, e.b) for e in self._edges)})"

    def to_json(self) -> dict:
        return {"edges": [e.to_json() for e in self]}

    @classmethod
    def from_json(cls, data: dict) -> "EdgeSet":
        return cls(Edge.from_json(pair) for pair in json_field(data, "edges"))


class PointSet:
    """Ordered, indexed collection of points in general position.

    General position (no two coincident, no three collinear) is enforced
    eagerly at construction; violations raise GeneralPositionError rather
    than degrading later predicates. The check is O(n^2): row i asks
    ``_collinear_pair`` whether point i sees two later points in one
    direction.
    ``xy``, a tuple of (x, y) int pairs, is the only stored form of the
    points; ``s[i]`` and iteration build Points. An edge mask has bit
    ``a * n + b`` per sorted pair (a, b), and its two-way form
    (``two_way_mask``) bit ``b * n + a`` too; only this class spells that format.
    """

    def __init__(self, points: Iterable[Point | tuple[int, int]]):
        xy = tuple((p.x, p.y) for p in map(_point, points))
        if len(set(xy)) != len(xy):
            raise GeneralPositionError("coincident points")
        for i, p in enumerate(xy):
            pair = _collinear_pair(p, xy[i + 1:])
            if pair is not None:
                j, k = pair
                raise GeneralPositionError(
                    f"collinear triple at indices {i},{i + j + 1},{i + k + 1}")
        self.xy = xy
        self._hull: tuple[int, ...] | None = None
        self._hull_maps: HullMaps | tuple[()] | None = None
        self._crossing_masks: list[int] | None = None
        self._candidate_rows: tuple[tuple[tuple[int, int, int, int], ...], ...] | None = None

    def __len__(self):
        return len(self.xy)

    def __getitem__(self, i: int) -> Point:
        return Point(*self.xy[i])

    def __iter__(self):
        return (Point(x, y) for x, y in self.xy)

    def __eq__(self, other):
        return isinstance(other, PointSet) and self.xy == other.xy

    def __hash__(self):
        return hash(self.xy)

    def __repr__(self):
        return f"PointSet({list(self.xy)})"

    def orient_idx(self, i: int, j: int, k: int) -> int:
        (px, py), (qx, qy), (rx, ry) = self.xy[i], self.xy[j], self.xy[k]
        det = (qx - px) * (ry - py) - (qy - py) * (rx - px)
        return (det > 0) - (det < 0)

    def subset(self, indices: Sequence[int]) -> "PointSet":
        """Sub point set over the given indices, in ascending index order."""
        return PointSet(self.xy[i] for i in sorted(indices))

    def check_edges(self, *edges: Edge) -> None:
        """IndexError naming the first edge with an endpoint outside this set."""
        for e in edges:
            if e.b >= len(self):
                raise IndexError(f"edge {e} out of range for {len(self)} points")

    def edge_id(self, e: Edge) -> int:
        return e.a * len(self) + e.b

    def edge_mask(self, pairs: Iterable[tuple[int, int]]) -> int:
        """The edge mask of distinct sorted point pairs (a, b), a < b: bit ``a * n + b`` each."""
        n = len(self)
        return sum(1 << (a * n + b) for a, b in pairs)

    def edge_pairs(self, mask: int) -> list[tuple[int, int]]:
        """The sorted point pairs of an edge mask, in ascending bit order; undoes ``edge_mask``."""
        n = len(self)
        pairs = []
        while mask:
            low = mask & -mask
            pairs.append(divmod(low.bit_length() - 1, n))
            mask ^= low
        return pairs

    def two_way_mask(self, mask: int) -> int:
        """An edge mask with bit ``b * n + a`` beside each bit ``a * n + b``.

        In the two-way mask, bit r of ``mask >> p * n`` (taken to n bits)
        is set iff the edge between p and r is in the mask.
        """
        n = len(self)
        return mask | sum(1 << (b * n + a) for a, b in self.edge_pairs(mask))

    def crossing_sets(self) -> list[int]:
        """For each ordered pair (u, v), the edges that edge uv properly crosses.

        A flat list indexed by ``u * n + v``, filled for both orders of each
        pair (the ``u == v`` entries are 0). Each entry is an int bitmask
        with bit ``edge_id(e)`` (``a * n + b``, a < b) set for every edge e
        that uv crosses, so the search oracle tests a new edge against all
        placed ones with one ``&``. Computed lazily once per point set.
        """
        if self._crossing_masks is None:
            n, xy = len(self), self.xy
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            masks = [0] * (n * n)
            for i, (a, b) in enumerate(pairs):
                id1 = a * n + b
                for c, d in pairs[i + 1:]:
                    # a <= c < d, so d == a cannot occur
                    if c != a and c != b and d != b and crosses(xy, a, b, c, d):
                        id2 = c * n + d
                        masks[id1] |= 1 << id2
                        masks[id2] |= 1 << id1
            for a, b in pairs:
                masks[b * n + a] = masks[a * n + b]
            self._crossing_masks = masks
        return self._crossing_masks

    def candidate_rows(self) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
        """For each point p, a ``(q, point bit, edge bit, crossing mask)`` entry per point q != p.

        The entries run in ascending q. The point bit is ``1 << q``, the
        edge bit is ``1 << edge_id`` of pq, and the crossing mask is row
        ``p * n + q`` of ``crossing_sets()`` made two-way (``two_way_mask``),
        so the search oracle tries every edge out of a placed point by
        walking one row and reads the edges at a point off a shifted mask.
        Built lazily from the crossing table, once per point set.
        """
        if self._candidate_rows is None:
            n, cross = len(self), self.crossing_sets()
            two_way = [self.two_way_mask(m) for m in cross]
            self._candidate_rows = tuple(
                tuple((q, 1 << q, 1 << (min(p, q) * n + max(p, q)), two_way[p * n + q])
                      for q in range(n) if q != p)
                for p in range(n))
        return self._candidate_rows

    def to_json(self) -> dict:
        return {"points": [list(p) for p in self.xy]}

    @classmethod
    def from_json(cls, data: dict) -> "PointSet":
        return cls(tuple(json_ints(p, 2)) for p in json_field(data, "points"))


def crosses(xy: Sequence[tuple[int, int]], a: int, b: int, c: int, d: int) -> bool:
    """True iff segments ab and cd properly cross; a, b, c, d are distinct indices.

    The kernel of every crossing test: xy is a PointSet's ``xy``. Four
    distinct points of a set in general position make no zero cross product,
    so comparing signs with ``> 0`` is exact.
    """
    ax, ay = xy[a]
    bx, by = xy[b]
    cx, cy = xy[c]
    dx, dy = xy[d]
    ux, uy = bx - ax, by - ay
    if (ux * (cy - ay) - uy * (cx - ax) > 0) == (ux * (dy - ay) - uy * (dx - ax) > 0):
        return False
    vx, vy = dx - cx, dy - cy
    return (vx * (ay - cy) - vy * (ax - cx) > 0) != (vx * (by - cy) - vy * (bx - cx) > 0)


def segments_cross(s: PointSet, e1: Edge, e2: Edge) -> bool:
    """True iff the open segments properly cross (interiors intersect).

    Edges sharing an endpoint never cross; e1 == e2 returns False.
    General position rules out collinear overlaps, so the pure sign test
    is exact.
    """
    a, b, c, d = e1.a, e1.b, e2.a, e2.b
    if a == c or a == d or b == c or b == d:
        return False
    s.check_edges(e1, e2)
    return crosses(s.xy, a, b, c, d)


def convex_hull(s: PointSet) -> list[int]:
    """Indices of hull vertices in counter-clockwise order.

    Output rotated to start at the smallest hull index so the result is a
    canonical function of the point set; cached on the point set.
    """
    n = len(s)
    if n < 3:
        raise ValueError("convex hull requires at least 3 points")
    if s._hull is None:
        order = sorted(range(n), key=s.xy.__getitem__)
        hull = _left_chain(s.xy, order)[:-1] + _left_chain(s.xy, reversed(order))[:-1]
        start = hull.index(min(hull))
        s._hull = tuple(hull[start:] + hull[:start])
    return list(s._hull)


def hull_edges(s: PointSet) -> frozenset[tuple[int, int]]:
    """Sorted point pairs of consecutive vertices of convex_hull(s): the depth-0 edges."""
    hull = convex_hull(s)
    return frozenset((min(p, q), max(p, q)) for p, q in zip(hull, hull[1:] + hull[:1]))


def _left_chain(xy: Sequence[tuple[int, int]], seq: Iterable[int]) -> list[int]:
    """Monotone chain: seq with every point dropped that is not a strict left turn."""
    out: list[int] = []
    for i in seq:
        px, py = xy[i]
        while len(out) >= 2:
            (ax, ay), (bx, by) = xy[out[-2]], xy[out[-1]]
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:
                break
            out.pop()
        out.append(i)
    return out


def is_convex_position(s: PointSet) -> bool:
    return len(s) >= 3 and len(convex_hull(s)) == len(s)


def require_convex_position(s: PointSet) -> list[int]:
    """The hull order of a set in convex position; ValueError otherwise."""
    if not is_convex_position(s):
        raise ValueError("point set is not in convex position")
    return convex_hull(s)


class HullMaps:
    """The dihedral group of a convex set's hull order, as point maps built on first read.

    ``maps[i]`` is a tuple indexed by point. Map i < n sends each point i
    places clockwise along the hull order (map 0 is the identity), and map
    n + i sends the point at hull position j to position i - j, a
    reflection. Two chords of a convex set cross iff their ends alternate
    along the hull, so every map keeps crossings. A map is built in O(n)
    when first read and kept, so a caller that reads a few of the 2n maps
    pays for those only.
    """

    def __init__(self, hull: Sequence[int]):
        self._hull = tuple(hull)
        self._pos = [0] * len(hull)
        for j, p in enumerate(hull):
            self._pos[p] = j
        self._maps: list[tuple[int, ...] | None] = [None] * (2 * len(hull))

    def __len__(self) -> int:
        return len(self._maps)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < len(self._maps):
            raise IndexError(f"map index {i} out of range")
        m = self._maps[i]
        if m is None:
            hull, n = self._hull, len(self._hull)
            sign, shift = (1, -i) if i < n else (-1, i - n)
            m = self._maps[i] = tuple(hull[(sign * j + shift) % n] for j in self._pos)
        return m


def hull_maps(s: PointSet) -> HullMaps | tuple[()]:
    """The ``HullMaps`` of a set in convex position, cached on the set; () off convex position."""
    if s._hull_maps is None:
        s._hull_maps = HullMaps(s._hull) if is_convex_position(s) else ()
    return s._hull_maps


# Vectors (dx, dy, index) from a center: u sorts before v iff v is counter-
# clockwise of u. Never 0, since no two points are collinear with a center.
_CCW = cmp_to_key(lambda u, v: -1 if u[0] * v[1] > u[1] * v[0] else 1)


def _ccw_sorted(s: PointSet, center: int, indices: Iterable[int]) -> list[tuple[int, int, int]]:
    """(dx, dy, index) vectors from center, sorted counter-clockwise.

    Only consistent on a set spanning less than pi as seen from center.
    """
    cx, cy = s.xy[center]
    vecs = [(x - cx, y - cy, i) for i in indices for x, y in (s.xy[i],)]
    vecs.sort(key=_CCW)
    return vecs


def angular_sort(s: PointSet, center: int, subset: Sequence[int]) -> list[int]:
    """Sort subset counter-clockwise by angle around a hull-vertex center.

    The returned order starts at the clockwise angular extreme, so the whole
    subset spans a salient (< pi) interval and the first/last entries are
    the two extremes. Raises ValueError if center is not a hull vertex of
    {center} + subset (the span would exceed pi and no such order exists).
    """
    pts = [i for i in subset if i != center]
    if len(pts) <= 1:
        return pts
    vecs = _ccw_sorted(s, center, pts)
    # The order is angular and spans less than pi iff each vector turns
    # counter-clockwise from its predecessor and from the first one. (Testing
    # only the two extremes would pass an order that winds past 2*pi.)
    fx, fy, _ = vecs[0]
    for u, v in zip(vecs, vecs[1:]):
        if u[0] * v[1] <= u[1] * v[0] or fx * v[1] <= fy * v[0]:
            raise ValueError("center is not a hull vertex of the combined set")
    return [v[2] for v in vecs]


def polar_order(s: PointSet, center: int, subset: Sequence[int]) -> list[int]:
    """Full-circle CCW order of subset around center, starting at +x axis.

    Unlike angular_sort this supports interior centers (span up to 2*pi).
    """
    cx, cy = s.xy[center]
    upper: list[int] = []
    lower: list[int] = []
    for i in subset:
        if i == center:
            continue
        x, y = s.xy[i]
        (upper if y > cy or (y == cy and x > cx) else lower).append(i)
    return [v[2] for half in (upper, lower) for v in _ccw_sorted(s, center, half)]


def edge_depth(s: PointSet, e: Edge) -> int:
    """Smaller of the two open half-plane point counts of an edge.

    The two counts always sum to n - 2 in general position; hull edges are
    exactly the edges of depth 0.
    """
    n = len(s)
    s.check_edges(e)
    left = sum(s.orient_idx(e.a, e.b, i) > 0 for i in range(n) if i != e.a and i != e.b)
    return min(left, n - 2 - left)


def visible_hull_vertices(s: PointSet, apex: int, cell: Sequence[int]) -> list[int]:
    """Hull vertices of the cell visible from an outside apex point.

    A hull vertex q is visible iff segment (apex, q) does not properly cross
    any hull edge of the cell. Returned in CCW angular order around the apex;
    the two angular extremes are always present.

    These are the hull chain that faces the apex, so one monotone-chain pass
    over the clockwise angular order finds them: a point that is no left
    turn there lies behind a chord of the chain, as seen from the apex.
    """
    if apex in cell:
        raise ValueError("apex must not belong to the cell")
    return _facing_chain(s.xy, angular_sort(s, apex, cell))


def _facing_chain(xy: Sequence[tuple[int, int]], order: Sequence[int]) -> list[int]:
    """The hull vertices that the apex of an ``angular_sort`` order (or of a slice of one) sees.

    The chain always starts with ``order[0]``, the clockwise extreme, which
    the monotone chain appends last and never drops.
    """
    return _left_chain(xy, reversed(order))[::-1]
