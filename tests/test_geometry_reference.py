"""The index-based geometry core against independent, slower references.

PointSet's O(n^2) general-position check is compared with the plain O(n^3)
triple loop. The integer kernel behind segments_cross, crossing counts,
hulls and angular sorts is compared with references built here on
``orient`` over Point objects alone: the four-orient crossing test, gift
wrapping, and an angular rank count. visible_hull_vertices is compared with
the crossing rule over the gift-wrapped hull of the cell.
"""
import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from forbidtree.embedding import Embedding, EmbeddingDefectError
from forbidtree.generators import random_points
from forbidtree.geometry import (
    COORD_BOUND,
    Edge,
    GeneralPositionError,
    Point,
    PointSet,
    angular_sort,
    convex_hull,
    orient,
    segments_cross,
    visible_hull_vertices,
)
from forbidtree.trees import Tree, all_trees


def reference_check(coords) -> str:
    """Verdict of the triple loop: "ok" or the error text PointSet must give."""
    pts = [Point(x, y) for x, y in coords]
    if len(set(pts)) != len(pts):
        return "coincident points"
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if orient(pts[i], pts[j], pts[k]) == 0:
                    return f"collinear triple at indices {i},{j},{k}"
    return "ok"


def point_set_check(coords) -> str:
    try:
        PointSet(coords)
    except GeneralPositionError as ex:
        return str(ex)
    return "ok"


small = st.integers(-4, 4)
near_bound = st.one_of(st.integers(COORD_BOUND - 6, COORD_BOUND),
                       st.integers(-COORD_BOUND, -COORD_BOUND + 6))
coordinate = st.one_of(small, st.integers(-10**6, 10**6), near_bound)
point = st.tuples(coordinate, coordinate)
point_lists = st.lists(point, min_size=0, max_size=9)


def in_bounds(p) -> bool:
    return abs(p[0]) <= COORD_BOUND and abs(p[1]) <= COORD_BOUND


@given(point_lists)
# Float-slope ties, which the drawn coordinates never produce: two distinct
# slopes from (0, 0) that round to one float, so the exact row must accept
# the set; slopes 0.0 and -0.0; and two infinite slopes.
@example([(0, 0), (2**30, 2**30 - 1), (2**30 - 1, 2**30 - 2)])
@example([(0, 0), (5, 0), (-3, 0)])
@example([(0, 0), (0, 4), (0, -7)])
def test_check_matches_triple_loop(coords):
    assert point_set_check(coords) == reference_check(coords)


@given(point_lists, point, st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
       st.integers(-3, 3), st.integers(-3, 3), st.randoms(use_true_random=False))
def test_forced_collinear_triple_is_rejected(others, p, d, a, b, rnd):
    assume(d != (0, 0) and 0 not in (a, b) and a != b)
    triple = [p, (p[0] + a * d[0], p[1] + a * d[1]), (p[0] + b * d[0], p[1] + b * d[1])]
    assume(all(in_bounds(q) for q in triple))
    coords = others + triple
    rnd.shuffle(coords)
    verdict = point_set_check(coords)
    assert verdict != "ok"
    assert verdict == reference_check(coords)


@given(st.lists(point, min_size=1, max_size=8), st.integers(0, 7), st.integers(0, 8))
def test_coincident_pair_is_rejected(coords, src, dst):
    coords = list(coords)
    coords.insert(dst % (len(coords) + 1), coords[src % len(coords)])
    assert point_set_check(coords) == reference_check(coords) == "coincident points"


def reference_cross(s, e1, e2) -> bool:
    """segments_cross by four orientation signs of Points, as first written."""
    if {e1.a, e1.b} & {e2.a, e2.b}:
        return False
    for e in (e1, e2):
        if e.b >= len(s):
            raise IndexError(f"edge {e} out of range for {len(s)} points")
    p1, p2, q1, q2 = s[e1.a], s[e1.b], s[e2.a], s[e2.b]
    return (orient(p1, p2, q1) != orient(p1, p2, q2)
            and orient(q1, q2, p1) != orient(q1, q2, p2))


def reference_crossings(emb) -> int:
    segs = [Edge(emb.assignment[u], emb.assignment[v]) for u, v in emb.tree.edges]
    return sum(reference_cross(emb.points, a, b) for a, b in itertools.combinations(segs, 2))


def gift_wrap(s, indices) -> list[int]:
    """CCW hull of the given indices, from its smallest index: after the
    lowest point, each next vertex j has every other point strictly left of
    (current, j)."""
    hull = [min(indices, key=lambda i: (s[i].y, s[i].x))]
    while True:
        cur = hull[-1]
        (nxt,) = [j for j in indices if j != cur and all(
            orient(s[cur], s[j], s[k]) > 0 for k in indices if k not in (cur, j))]
        if nxt == hull[0]:
            start = hull.index(min(hull))
            return hull[start:] + hull[:start]
        hull.append(nxt)


def reference_angular(s, center, subset):
    """The CCW order of subset around center by rank counts, or None when
    center is not a hull vertex of center + subset (no order spans < pi)."""
    pts = [i for i in subset if i != center]
    c = s[center]
    if len(pts) >= 2 and not any(
            all(orient(c, s[j], s[k]) > 0 for k in pts if k != j) for j in pts):
        return None
    rank = {u: sum(orient(c, s[v], s[u]) > 0 for v in pts) for u in pts}
    assert sorted(rank.values()) == list(range(len(pts)))
    return sorted(pts, key=rank.get)


def raised(fn, *args):
    try:
        return fn(*args)
    except (IndexError, ValueError) as ex:
        return type(ex), str(ex)


@settings(max_examples=300)
@given(st.integers(2, 12), st.integers(1, 50), st.lists(st.integers(0, 13), min_size=4,
                                                        max_size=4))
def test_segments_cross_matches_reference(n, seed, ends):
    s = random_points(n, seed)
    a, b, c, d = ends
    assume(a != b and c != d)
    e1, e2 = Edge(a, b), Edge(c, d)
    # shared endpoints (e1 == e2 included) answer False before any index check
    assert raised(segments_cross, s, e1, e2) == raised(reference_cross, s, e1, e2)
    assert raised(segments_cross, s, e2, e1) == raised(reference_cross, s, e2, e1)


@settings(max_examples=150)
@given(st.integers(2, 9), st.integers(1, 50), st.booleans(), st.randoms(use_true_random=False))
def test_crossing_count_matches_reference(k, seed, grid, rnd):
    n = rnd.randint(k, 12)
    # a small grid repeats x coordinates and draws vertical segments, so
    # x-spans meet at their ends
    s = random_points(n, seed, span=n) if grid else random_points(n, seed)
    t = rnd.choice(all_trees(k))
    emb = Embedding(t, s, tuple(rnd.sample(range(len(s)), k)))
    assert emb.crossing_count() == reference_crossings(emb)


@settings(max_examples=100)
@given(st.integers(4, 12), st.integers(1, 50), st.randoms(use_true_random=False))
def test_deliberate_crossing_is_counted(n, seed, rnd):
    s = random_points(n, seed)
    pairs = [(e1, e2) for e1, e2 in itertools.combinations(
        [Edge(a, b) for a in range(n) for b in range(a + 1, n)], 2)
        if reference_cross(s, e1, e2)]
    assume(pairs)
    e1, e2 = rnd.choice(pairs)
    # a path whose first and third edges are drawn on the crossing pair
    k = rnd.randint(4, n)
    rest = rnd.sample([i for i in range(n) if i not in (e1.a, e1.b, e2.a, e2.b)], k - 4)
    path = Tree(k, [(v, v + 1) for v in range(k - 1)])
    emb = Embedding(path, s, (e1.a, e1.b, e2.a, e2.b, *rest))
    assert emb.crossing_count() == reference_crossings(emb) >= 1
    with pytest.raises(EmbeddingDefectError):
        emb.validate()


@settings(max_examples=200)
@given(st.integers(3, 14), st.integers(1, 50), st.integers(-1, 5))
def test_convex_hull_matches_gift_wrap(n, seed, spread):
    span = 10**6 if spread < 0 else 4 * n + spread
    s = random_points(n, seed, span=span)
    assert convex_hull(s) == gift_wrap(s, range(n))


@settings(max_examples=300)
@given(st.integers(2, 10), st.integers(1, 50), st.randoms(use_true_random=False))
def test_angular_sort_matches_rank_reference(n, seed, rnd):
    s = random_points(n, seed, span=rnd.choice([3 * n, 10**6]))
    center = rnd.randrange(n)
    subset = rnd.sample(range(n), rnd.randint(0, n))
    want = reference_angular(s, center, subset)
    if want is None:
        with pytest.raises(ValueError):
            angular_sort(s, center, subset)
    else:
        assert angular_sort(s, center, subset) == want


def visible_by_subset(s, apex, cell):
    """The visibility rule, by crossing tests, over the hull of the cell alone."""
    ordered = reference_angular(s, apex, cell)
    if len(cell) <= 2:
        return ordered
    hull = gift_wrap(s, cell)
    hull_edges = [Edge(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]
    return [
        q for q in ordered
        if q in hull and not any(reference_cross(s, Edge(apex, q), he) for he in hull_edges)
    ]


@settings(max_examples=200)
@given(st.integers(2, 16), st.integers(1, 50), st.randoms(use_true_random=False))
def test_visible_hull_vertices_matches_subset_reference(n, seed, rnd):
    s = random_points(n, seed)
    members = rnd.sample(range(n), rnd.randint(2, n))
    # the apex must be a hull vertex of apex + cell for the angular order to exist
    if len(members) >= 3:
        indices = sorted(members)
        apex = indices[rnd.choice(convex_hull(s.subset(indices)))]
    else:
        apex = members[0]
    cell = [i for i in members if i != apex]
    assert visible_hull_vertices(s, apex, cell) == visible_by_subset(s, apex, cell)
    # the wedge engine takes the chain's first vertex without building the chain
    assert visible_hull_vertices(s, apex, cell)[0] == angular_sort(s, apex, cell)[0]
