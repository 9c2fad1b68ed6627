import math
import random

import pytest

from forbidtree.geometry import (
    Edge,
    EdgeSet,
    GeneralPositionError,
    Point,
    PointSet,
    angular_sort,
    convex_hull,
    edge_depth,
    is_convex_position,
    orient,
    polar_order,
    segments_cross,
    visible_hull_vertices,
)
from forbidtree.generators import convex_points, random_points

SQUARE = PointSet([(0, 0), (2, 0), (2, 2), (0, 2)])


def brute_hull_indices(s):
    """Oracle: i is a hull vertex iff some directed line (i, j) has all other
    points strictly on its left."""
    n = len(s)
    out = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            sides = [orient(s[i], s[j], s[k]) for k in range(n) if k not in (i, j)]
            if all(x > 0 for x in sides):
                out.add(i)
                break
    return out


def test_orient_examples():
    assert orient(Point(0, 0), Point(1, 0), Point(0, 1)) == 1
    assert orient(Point(0, 0), Point(1, 0), Point(2, 0)) == 0
    assert orient(Point(0, 0), Point(0, 1), Point(1, 0)) == -1


def test_orient_antisymmetry_random():
    rng = random.Random(7)
    for _ in range(300):
        p, q, r = (Point(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(3))
        if len({p, q, r}) < 3:
            continue
        assert orient(p, q, r) == -orient(p, r, q)


def test_point_bound():
    with pytest.raises(ValueError):
        Point(2**31, 0)
    with pytest.raises(TypeError):
        Point(0.5, 1)


def test_pointset_takes_int_coordinates_only():
    # int() would have truncated these to other points
    with pytest.raises(TypeError):
        PointSet([(0.6, 0), (5, 1.2), (2, 7.9)])
    with pytest.raises(TypeError):
        PointSet([(0, 0), (5, 1), (2.0, 7)])
    with pytest.raises(TypeError):
        PointSet([(0, 0), (True, 5), (2, 7)])
    assert PointSet([(0, 0), (5, 1), (2, 7)])[2] == Point(2, 7)


def test_edges_and_point_sets_reject_input_they_would_mangle():
    # True and 0.0 compare equal to ints, so they would pass as indices
    for a in (True, 0.0):
        with pytest.raises(TypeError):
            Edge(a, 3)
    # a third coordinate would be dropped, a missing one misread
    with pytest.raises(ValueError, match="pair"):
        PointSet([(0, 0, 5), (10, 1, 7), (3, 9, 9)])
    with pytest.raises(ValueError, match="pair"):
        PointSet([(0, 0), (10, 1), (3,)])


def test_point_set_stores_only_xy():
    s = PointSet([Point(0, 0), (5, 1), (2, 7)])
    assert s.xy == ((0, 0), (5, 1), (2, 7))
    assert s[1] == Point(5, 1) and list(s) == [Point(0, 0), Point(5, 1), Point(2, 7)]
    assert s == PointSet(s) and hash(s) == hash(PointSet(list(s.xy)))
    assert repr(s) == "PointSet([(0, 0), (5, 1), (2, 7)])"


def test_edge_mask_and_edge_pairs_invert_each_other():
    s = random_points(7, seed=1)
    pairs = [(0, 1), (0, 6), (2, 5), (5, 6)]
    mask = s.edge_mask(pairs)
    assert mask == sum(1 << s.edge_id(Edge(a, b)) for a, b in pairs)
    assert s.edge_pairs(mask) == pairs
    assert s.edge_mask([]) == 0 and s.edge_pairs(0) == []


def test_edge_pairs_walks_set_bits_like_the_bit_scan():
    # edge_pairs visits only the set bits; the full scan over every bit
    # position is the reference
    rng = random.Random(21)
    for n in (2, 3, 7, 12):
        s = random_points(n, seed=n)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        for _ in range(50):
            mask = s.edge_mask(rng.sample(pairs, rng.randint(0, len(pairs))))
            assert s.edge_pairs(mask) == [
                divmod(i, n) for i in range(mask.bit_length()) if mask >> i & 1]


def test_two_way_mask_reads_the_edges_at_a_point():
    s = random_points(7, seed=1)
    pairs = [(0, 1), (0, 6), (2, 5), (5, 6)]
    mask = s.two_way_mask(s.edge_mask(pairs))
    assert mask & s.edge_mask(pairs) == s.edge_mask(pairs)
    for p in range(7):
        at_p = {r for r in range(7) if mask >> (p * 7) >> r & 1}
        assert at_p == {b if a == p else a for a, b in pairs if p in (a, b)}
    assert s.two_way_mask(0) == 0


def test_check_edges_names_the_first_edge_out_of_range():
    s = random_points(7, seed=1)
    s.check_edges(Edge(0, 6), Edge(5, 6))
    with pytest.raises(IndexError, match=r"edge Edge\(a=1, b=8\) out of range for 7 points"):
        s.check_edges(Edge(0, 1), Edge(1, 8), Edge(0, 9))


def test_pointset_rejects_degenerate():
    with pytest.raises(GeneralPositionError):
        PointSet([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(GeneralPositionError):
        PointSet([(0, 0), (0, 0), (1, 2)])


def test_edge_normalization():
    e = Edge(5, 2)
    assert (e.a, e.b) == (2, 5)
    with pytest.raises(ValueError):
        Edge(3, 3)


def test_segments_cross_square():
    d1, d2 = Edge(0, 2), Edge(1, 3)
    assert segments_cross(SQUARE, d1, d2)
    assert segments_cross(SQUARE, d2, d1)
    assert not segments_cross(SQUARE, Edge(0, 1), Edge(2, 3))
    assert not segments_cross(SQUARE, Edge(0, 1), Edge(1, 3))
    assert not segments_cross(SQUARE, d1, d1)


def test_segments_cross_symmetric_random():
    s = random_points(8, seed=3)
    edges = [Edge(a, b) for a in range(8) for b in range(a + 1, 8)]
    for e1 in edges:
        for e2 in edges:
            assert segments_cross(s, e1, e2) == segments_cross(s, e2, e1)


def test_convex_hull_examples():
    assert convex_hull(SQUARE) == [0, 1, 2, 3]
    s = PointSet([(0, 0), (4, 0), (2, 4), (2, 1)])
    assert convex_hull(s) == [0, 1, 2]
    with pytest.raises(ValueError):
        convex_hull(PointSet([(0, 0), (1, 5)]))


def test_convex_hull_circle_all_points():
    s = convex_points(9, seed=4)
    hull = convex_hull(s)
    assert sorted(hull) == list(range(9))
    assert is_convex_position(s)
    # consecutive hull triples turn left
    for i in range(9):
        assert s.orient_idx(hull[i], hull[(i + 1) % 9], hull[(i + 2) % 9]) == 1


def test_convex_hull_against_brute_force():
    for seed in range(1, 11):
        s = random_points(9, seed=seed)
        assert set(convex_hull(s)) == brute_hull_indices(s)


def test_angular_sort_slopes():
    s = PointSet([(0, 0), (4, -1), (3, 0), (4, 1)])
    assert angular_sort(s, 0, [2, 3, 1]) == [1, 2, 3]


def test_angular_sort_convex_order():
    s = convex_points(5, seed=2)
    hull = convex_hull(s)
    center = hull[0]
    rest = hull[1:]
    assert angular_sort(s, center, rest) == rest


def test_angular_sort_matches_float_angles():
    for seed in range(1, 9):
        s = random_points(8, seed=seed)
        center = min(range(8), key=lambda i: (s[i].y, s[i].x))
        rest = [i for i in range(8) if i != center]
        got = angular_sort(s, center, rest)
        c = s[center]
        want = sorted(rest, key=lambda i: math.atan2(s[i].y - c.y, s[i].x - c.x))
        assert got == want


def test_angular_sort_rejects_interior_center():
    s = PointSet([(0, 0), (10, 1), (-10, 2), (1, 10), (-2, -10)])
    with pytest.raises(ValueError):
        angular_sort(s, 0, [1, 2, 3, 4])
    # point 5 is inside the hull of 0, 1, 3, 4; every consecutive pair of the
    # sorted order and its two extremes turn counter-clockwise, but the order
    # winds past 2*pi
    s = random_points(6, seed=1)
    with pytest.raises(ValueError):
        angular_sort(s, 5, [0, 1, 3, 4])


def test_angular_sort_ccw_chain_property():
    s = random_points(9, seed=5)
    hull = convex_hull(s)
    center = hull[0]
    rest = [i for i in range(9) if i != center]
    out = angular_sort(s, center, rest)
    assert sorted(out) == sorted(rest)
    for a, b in zip(out, out[1:]):
        assert s.orient_idx(center, a, b) == 1


def test_polar_order_full_circle():
    s = PointSet([(0, 0), (10, 1), (-10, 2), (1, 10), (-2, -10)])
    out = polar_order(s, 0, [1, 2, 3, 4])
    assert sorted(out) == [1, 2, 3, 4]
    # starts in the upper half plane and sweeps counter-clockwise
    assert out[0] == 1 and out[-1] == 4


def test_edge_depth_pentagon():
    s = convex_points(5, seed=1)
    hull = convex_hull(s)
    for i in range(5):
        assert edge_depth(s, Edge(hull[i], hull[(i + 1) % 5])) == 0
        assert edge_depth(s, Edge(hull[i], hull[(i + 2) % 5])) == 1


def test_edge_depth_brute_force():
    s = random_points(9, seed=6)
    for a in range(9):
        for b in range(a + 1, 9):
            left = sum(
                1 for i in range(9)
                if i not in (a, b) and orient(s[a], s[b], s[i]) > 0
            )
            assert edge_depth(s, Edge(a, b)) == min(left, 7 - left)
            assert left + (7 - left) == len(s) - 2


def test_depth_zero_iff_hull_edge():
    for seed in (1, 2, 3):
        s = random_points(8, seed=seed)
        hull = convex_hull(s)
        hull_edges = {Edge(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))}
        for a in range(8):
            for b in range(a + 1, 8):
                e = Edge(a, b)
                assert (edge_depth(s, e) == 0) == (e in hull_edges)


def test_visible_hull_vertices_extremes():
    s = convex_points(7, seed=1)
    cell = [1, 2, 3, 4]
    vis = visible_hull_vertices(s, 0, cell)
    ordered = angular_sort(s, 0, cell)
    assert ordered[0] in vis and ordered[-1] in vis
    for q in vis:
        probe = Edge(0, q)
        for i in range(len(cell)):
            hull_edge = Edge(cell[i], cell[(i + 1) % len(cell)])
            assert not segments_cross(s, probe, hull_edge)


def test_json_round_trips():
    s = random_points(6, seed=9)
    assert PointSet.from_json(s.to_json()) == s
    es = EdgeSet([Edge(0, 1), Edge(2, 5)])
    assert EdgeSet.from_json(es.to_json()) == es
    assert Edge.from_json(Edge(4, 1).to_json()) == Edge(1, 4)
