import itertools
from fractions import Fraction

import pytest

from forbidtree.forbid import (
    blanket_threshold,
    r_edge_blanket,
    three_consecutive_hull_edges,
    three_pairs_consecutive_hull_edges,
    turan_lower_bound,
    upper_bound_value,
)
from forbidtree.generators import convex_points, random_points
from forbidtree.geometry import Edge, convex_hull, edge_depth
from forbidtree.trees import ahu_canonical, spider_tree


def test_three_consecutive_pentagon():
    s = convex_points(5, seed=1)
    hull = convex_hull(s)
    c = three_consecutive_hull_edges(s, start=0)
    expected = {Edge(hull[i], hull[i + 1]) for i in range(3)}
    assert set(c.edges) == expected
    assert len(c.edges) == 3
    assert ahu_canonical(c.target_tree) == ahu_canonical(spider_tree(5))


def test_three_consecutive_every_start():
    s = convex_points(8, seed=1)
    for start in range(8):
        c = three_consecutive_hull_edges(s, start)
        assert len(c.edges) == 3
        assert all(edge_depth(s, e) == 0 for e in c.edges)
        # edges form a path along the hull: 4 distinct endpoints
        pts = [e.a for e in c.edges] + [e.b for e in c.edges]
        assert len(set(pts)) == 4


def test_three_consecutive_rejects_non_convex():
    s = random_points(6, seed=4)
    if len(convex_hull(s)) < 6:
        with pytest.raises(ValueError):
            three_consecutive_hull_edges(s, 0)


def test_three_pairs_hexagon():
    s = convex_points(6, seed=1)
    c = three_pairs_consecutive_hull_edges(s, (0, 2, 4))
    assert len(c.edges) == 6
    assert all(edge_depth(s, e) == 0 for e in c.edges)


def test_three_pairs_nine_gon():
    s = convex_points(9, seed=1)
    c = three_pairs_consecutive_hull_edges(s, (0, 3, 6))
    assert len(c.edges) == 6


def test_three_pairs_rejects_adjacent_middles():
    s = convex_points(8, seed=1)
    with pytest.raises(ValueError):
        three_pairs_consecutive_hull_edges(s, (0, 1, 4))
    with pytest.raises(ValueError):
        three_pairs_consecutive_hull_edges(s, (0, 0, 4))


def test_blanket_ten_six():
    s = convex_points(10, seed=1)
    c = r_edge_blanket(s, 6)
    assert c.params["threshold"] == 2
    assert len(c.edges) == 30
    assert len(c.edges) <= upper_bound_value(10, 6) == Fraction(40)


def test_blanket_k_equals_n():
    s = convex_points(8, seed=1)
    c = r_edge_blanket(s, 8)
    assert c.params["threshold"] == 0
    hull = convex_hull(s)
    expected = {Edge(hull[i], hull[(i + 1) % 8]) for i in range(8)}
    assert set(c.edges) == expected


def test_blanket_is_exact_level_cut():
    s = convex_points(9, seed=1)
    c = r_edge_blanket(s, 5)
    r = c.params["threshold"]
    inside = set(c.edges)
    for a in range(9):
        for b in range(a + 1, 9):
            e = Edge(a, b)
            assert (e in inside) == (edge_depth(s, e) <= r)


def test_blanket_size_inequality_sweep():
    for n in range(5, 31):
        s = convex_points(n, seed=1)
        for k in range(3, n + 1):
            c = r_edge_blanket(s, k)
            assert len(c.edges) <= upper_bound_value(n, k)


def test_blanket_threshold_clamped():
    assert blanket_threshold(5, 5) == 0
    assert blanket_threshold(100, 3) == 194


def test_turan_values():
    assert turan_lower_bound(10, 5) == Fraction(15, 2)
    assert turan_lower_bound(12, 4) == 18
    for n in (5, 9, 14):
        assert turan_lower_bound(n, n) == Fraction(n, 2 * (n - 1)) * n - Fraction(n, 2)
        assert turan_lower_bound(n, n) <= 1


def test_upper_values():
    assert upper_bound_value(10, 6) == 40
    assert upper_bound_value(8, 8) == 16


def test_bounds_are_exact_rationals():
    assert isinstance(turan_lower_bound(7, 4), Fraction)
    assert isinstance(upper_bound_value(7, 4), Fraction)


def test_lower_never_exceeds_upper():
    for n in range(5, 31):
        for k in range(3, n + 1):
            assert turan_lower_bound(n, k) <= upper_bound_value(n, k)


def test_bound_preconditions():
    with pytest.raises(ValueError):
        turan_lower_bound(10, 2)
    with pytest.raises(ValueError):
        upper_bound_value(10, 2)
    with pytest.raises(ValueError):
        upper_bound_value(4, 3)
    s = convex_points(6, seed=1)
    with pytest.raises(ValueError):
        r_edge_blanket(s, 2)


def test_construction_json():
    s = convex_points(6, seed=1)
    c = three_consecutive_hull_edges(s, 1)
    data = c.to_json()
    assert data["kind"] == "three-consecutive-hull"
    assert len(data["edges"]) == 3
    assert data["target_tree"]["k"] == 6
    assert data["params"]["start"] == 1


def test_three_pairs_valid_middles_give_six_edges():
    """Distinct middles at cyclic distance >= 2, in any range, give six distinct edges."""
    for n in range(6, 10):
        s = convex_points(n, seed=1)
        for mids in itertools.combinations(range(-n, 2 * n), 3):
            pos = [m % n for m in mids]
            valid = all(min((a - b) % n, (b - a) % n) >= 2
                        for a, b in itertools.combinations(pos, 2))
            if not valid:
                with pytest.raises(ValueError):
                    three_pairs_consecutive_hull_edges(s, mids)
                continue
            c = three_pairs_consecutive_hull_edges(s, mids)
            assert len(c.edges) == 6
            assert c.params["middles"] == pos
