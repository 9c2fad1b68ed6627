"""The index-based geometry core against independent, slower references.

PointSet's O(n^2) general-position check is compared with the plain O(n^3)
triple loop, and visible_hull_vertices (a hull over an index list of the
whole set) with a hull of the re-validated sub point set mapped back.
"""
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def visible_by_subset(s, apex, cell):
    """The same visibility rule over the hull of s.subset(cell), mapped back."""
    ordered = angular_sort(s, apex, cell)
    if len(cell) <= 2:
        return ordered
    indices = sorted(cell)
    hull = [indices[h] for h in convex_hull(s.subset(indices))]
    hull_edges = [Edge(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]
    return [
        q for q in ordered
        if q in hull and not any(segments_cross(s, Edge(apex, q), he) for he in hull_edges)
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
