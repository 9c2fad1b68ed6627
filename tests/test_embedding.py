import hashlib
import inspect
import json
import random
import sys

import pytest
from prufer_reference import prufer_trees

from forbidtree.embedding import (
    Embedding,
    _fan_order,
    embed_few_hull_edges,
    embed_recursive,
    lowest_point_root,
    rotate_embedding,
)
from forbidtree.generators import convex_points, random_points
from forbidtree.geometry import Edge, PointSet, angular_sort, convex_hull, edge_depth, polar_order
from forbidtree.trees import Tree, all_trees, root_at


def test_three_points_any_tree():
    s = PointSet([(0, 0), (5, 1), (2, 4)])
    t = Tree(3, [(0, 1), (1, 2)])
    emb = embed_recursive(root_at(t, 1), s)
    assert emb.crossing_count() == 0
    assert sorted(emb.assignment) == [0, 1, 2]


def test_star_fan_from_hull_point():
    for k in (5, 8):
        s = convex_points(k, seed=1)
        star = Tree(k, [(0, i) for i in range(1, k)])
        emb = embed_recursive(root_at(star, 0), s)
        assert emb.crossing_count() == 0
        root_pt = emb.point_of(0)
        assert root_pt in convex_hull(s)
        assert emb.hull_edges_used() == 2


def test_root_maps_to_hull_point():
    s = random_points(9, seed=2)
    t = all_trees(7)[5]
    # tree has 7 vertices: spanning embedding needs equal sizes
    with pytest.raises(ValueError):
        embed_recursive(root_at(t, 0), s)
    s7 = random_points(7, seed=2)
    emb = embed_recursive(root_at(t, 0), s7)
    assert emb.point_of(0) in convex_hull(s7)


def test_all_trees_into_seeded_sets():
    for n in (5, 6, 7, 8):
        for seed in (1, 2, 3):
            s = random_points(n, seed=seed)
            for t in all_trees(n):
                emb = embed_recursive(root_at(t, 0), s)
                assert emb.crossing_count() == 0
                assert len(set(emb.assignment)) == n


def test_wedge_partition_invariants():
    s = random_points(8, seed=4)
    t = all_trees(8)[7]
    trace = []
    embed_recursive(root_at(t, 0), s, trace=trace)
    rt = root_at(t, 0)
    for part in trace:
        cells = part.cells
        flat = [p for cell in cells for p in cell]
        assert len(flat) == len(set(flat))
        for cell in cells:
            # each cell spans a salient wedge: consecutive CCW turns around apex
            for a, b in zip(cell, cell[1:]):
                assert s.orient_idx(part.apex, a, b) == 1
    # the root-level partition matches the child subtree sizes
    root_part = trace[0]
    assert sorted(len(c) for c in root_part.cells) == sorted(
        rt.subtree_size[c] for c in rt.children[0]
    )
    # m cells are separated by m+1 boundary rays
    rays = root_part.boundaries
    assert len(rays) == len(root_part.cells) + 1
    assert rays[0][0] is None and rays[-1][1] is None
    for (left, right), cell, nxt in zip(rays[1:], root_part.cells, root_part.cells[1:]):
        assert left == cell[-1] and right == nxt[0]


def test_determinism():
    s = random_points(7, seed=5)
    t = all_trees(7)[3]
    e1 = embed_recursive(root_at(t, 0), s)
    e2 = embed_recursive(root_at(t, 0), s)
    assert e1.assignment == e2.assignment


def test_embedding_validation_rejects_bad():
    s = PointSet([(0, 0), (5, 1), (2, 4)])
    t = Tree(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Embedding(t, s, (0, 0, 1))
    with pytest.raises(ValueError):
        Embedding(t, s, (0, 1))
    # True would be point 1, and would serialise as true
    with pytest.raises(TypeError):
        Embedding(t, s, (0, True, 2))
    with pytest.raises(TypeError):
        Embedding(t, s, (0, 1.0, 2))


def test_rotate_identity_and_full_turn():
    s = convex_points(6, seed=1)
    t = all_trees(6)[2]
    emb = embed_recursive(root_at(t, 0), s)
    assert rotate_embedding(emb, 0).assignment == emb.assignment
    assert rotate_embedding(emb, 6).assignment == emb.assignment


def test_rotate_preserves_planarity():
    s = convex_points(7, seed=1)
    for t in all_trees(7)[:4]:
        emb = embed_recursive(root_at(t, 0), s)
        for i in range(7):
            rot = rotate_embedding(emb, i)
            assert rot.crossing_count() == 0
            assert sorted(rot.assignment) == sorted(emb.assignment)


def test_rotate_requires_convexity():
    s = PointSet([(0, 0), (10, 1), (-10, 2), (1, 10), (-2, -10)])
    t = all_trees(5)[0]
    emb = embed_recursive(root_at(t, 0), s)
    with pytest.raises(ValueError):
        rotate_embedding(emb, 1)


def test_few_hull_star_and_path():
    for n in (5, 7, 9):
        s = convex_points(n, seed=1)
        star = Tree(n, [(0, i) for i in range(1, n)])
        assert embed_few_hull_edges(star, s).hull_edges_used() == 2
        path = Tree(n, [(i, i + 1) for i in range(n - 1)])
        assert embed_few_hull_edges(path, s).hull_edges_used() <= 2


def test_few_hull_every_tree():
    for n in range(5, 9):
        s = convex_points(n, seed=1)
        for t in all_trees(n):
            emb = embed_few_hull_edges(t, s)
            assert emb.crossing_count() == 0
            assert emb.hull_edges_used() * 2 < n


def test_few_hull_bound_on_random_trees():
    """Past all_trees the bound rests on the counting argument of _few_hull_general."""
    rng = random.Random(1)
    for n in range(10, 41):
        for seed in (1, 2, 3):
            t = Tree(n, [(rng.randrange(v), v) for v in range(1, n)])
            emb = embed_few_hull_edges(t, convex_points(n, seed))
            assert emb.crossing_count() == 0
            assert emb.hull_edges_used() * 2 < n


def test_few_hull_star_is_the_fan_from_its_center():
    for n in range(5, 41):
        for seed in (1, 2, 3):
            s = convex_points(n, seed)
            for center in (0, n - 1):
                star = Tree(n, [(center, v) for v in range(n) if v != center])
                assert (embed_few_hull_edges(star, s).assignment
                        == embed_recursive(root_at(star, center), s).assignment)


def test_few_hull_rejects_non_convex():
    s = PointSet([(0, 0), (10, 1), (-10, 2), (1, 10), (-2, -10)])
    t = all_trees(5)[0]
    with pytest.raises(ValueError):
        embed_few_hull_edges(t, s)


def test_lowest_point_root_is_hull_vertex():
    for seed in range(1, 6):
        s = random_points(8, seed=seed)
        assert lowest_point_root(s) in convex_hull(s)


def test_embedding_json():
    s = convex_points(5, seed=1)
    t = all_trees(5)[0]
    emb = embed_recursive(root_at(t, 0), s)
    data = emb.to_json()
    assert data["crossings"] == 0
    assert len(data["assignment"]) == 5
    data2 = emb.to_json(forbidden=None)
    assert data2["forbidden_avoided"] is None


def test_hull_edges_used_matches_edge_depth():
    for s in (convex_points(7, seed=2), random_points(9, seed=4), PointSet([(0, 0), (1, 0)])):
        n = len(s)
        for t in all_trees(n):
            emb = embed_recursive(root_at(t, 0), s)
            depth0 = sum(1 for e in emb.segment_edges() if edge_depth(s, e) == 0)
            assert emb.hull_edges_used() == depth0


def test_deep_path_needs_no_deep_stack():
    """The wedge engine places a path of n vertices without n nested calls."""
    n = 300
    s = random_points(n, seed=1)
    path = root_at(Tree(n, [(v, v + 1) for v in range(n - 1)]), 0)
    limit = sys.getrecursionlimit()
    # room for the engine's own few frames, far below one frame per level
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        emb = embed_recursive(path, s)
    finally:
        sys.setrecursionlimit(limit)
    assert emb.crossing_count() == 0
    assert sorted(emb.assignment) == list(range(n))


def test_crossings_computed_once(monkeypatch):
    import forbidtree.embedding as embedding
    s = random_points(9, seed=3)
    emb = embed_recursive(root_at(all_trees(9)[5], 0), s)
    calls = []
    monkeypatch.setattr(embedding, "crosses",
                        lambda *a: calls.append(a) or False)
    fresh = Embedding(emb.tree, s, emb.assignment)
    fresh.validate()
    first = len(calls)
    assert first > 0
    fresh.to_json()
    assert fresh.crossing_count() == 0
    assert len(calls) == first


# sha256 prefixes of the JSON list of assignments, taken before the engine
# took its child choice from the repair plan. The trees come from the Prufer
# reference, so the labels do not depend on the package's enumerator; n = 9
# uses all_trees(9), since the reference decode takes seconds there.
PINNED_WEDGE = {
    ("recursive", "convex", 5): "62e891bc46aa973c",
    ("recursive", "random", 5): "f7f3951c2ea83ab3",
    ("recursive", "convex", 6): "7f1823032bce182d",
    ("recursive", "random", 6): "f421db2d2b1dcef7",
    ("recursive", "convex", 7): "63bf03c2b4a8800f",
    ("recursive", "random", 7): "db8d119dde96df47",
    ("recursive", "convex", 8): "c9afaea054f05ca9",
    ("recursive", "random", 8): "686acafa1b04be8d",
    ("few-hull", "convex", 5): "d5ab5feea5713e56",
    ("few-hull", "convex", 6): "0dfcf3c9f8639e2b",
    ("few-hull", "convex", 7): "179ed9954a16c041",
    ("few-hull", "convex", 8): "113ad6bb55cfd68a",
    ("few-hull", "convex", 9): "26e287445b7ecdfc",
}


def _digest(assignments):
    return hashlib.sha256(json.dumps(assignments).encode()).hexdigest()[:16]


def test_wedge_assignments_are_pinned():
    got = {}
    for n in range(5, 9):
        trees = prufer_trees(n)
        for mode, gen in (("convex", convex_points), ("random", random_points)):
            s = gen(n, 1)
            got[("recursive", mode, n)] = _digest(
                [embed_recursive(root_at(t, r), s).assignment for t in trees for r in range(n)])
    for n in range(5, 10):
        trees = prufer_trees(n) if n < 9 else all_trees(9)
        got[("few-hull", "convex", n)] = _digest(
            [embed_few_hull_edges(t, convex_points(n, 1)).assignment for t in trees])
    assert got == PINNED_WEDGE


def _caterpillar(n, spine, rng):
    """A spine path 0..spine-1 with one leg hung in each equal stratum of it."""
    legs = n - spine
    edges = [(v, v + 1) for v in range(spine - 1)]
    for j in range(legs):
        edges.append((rng.randrange(j * spine // legs, (j + 1) * spine // legs), spine + j))
    return Tree(n, edges)


def test_wedge_run_sorts_each_cell_once(monkeypatch):
    """One angular sort per internal vertex: blocks are read as sliced from their cell."""
    import forbidtree.embedding as embedding
    import forbidtree.geometry as geometry
    calls = []
    real = geometry.angular_sort

    def spy(*a):
        calls.append(a[1])
        return real(*a)

    monkeypatch.setattr(geometry, "angular_sort", spy)
    monkeypatch.setattr(embedding, "angular_sort", spy)
    rt = root_at(_caterpillar(80, 48, random.Random(1)), 0)
    emb = embed_recursive(rt, random_points(80, 1000))
    internal = [emb.assignment[v] for v in range(rt.k) if rt.children[v]]
    assert len(internal) == 47
    assert sorted(calls) == sorted(internal)


def test_fan_order_is_the_angular_order_at_a_hull_vertex_and_a_fan_inside():
    """At a hull vertex of its cell _fan_order is angular_sort; inside, a counter-clockwise fan.

    Inside, every point comes once, each in a rotation of the polar order,
    and each consecutive pair turns counter-clockwise by less than pi.
    """
    rng = random.Random(7)
    hull_centers = interior_centers = 0
    for n in (5, 8, 12):
        for seed in range(1, 6):
            s = random_points(n, seed)
            for _ in range(40):
                center, *cell = rng.sample(range(n), rng.randrange(3, n + 1))
                order = _fan_order(s, center, cell)
                # angular_sort refuses exactly the centers inside their cell's hull
                try:
                    expected = angular_sort(s, center, cell)
                except ValueError:
                    expected = None
                if expected is not None:
                    hull_centers += 1
                    assert order == expected
                    continue
                interior_centers += 1
                polar = polar_order(s, center, cell)
                k = polar.index(order[0])
                assert order == polar[k:] + polar[:k] and sorted(order) == sorted(cell)
                assert all(s.orient_idx(center, a, b) == 1 for a, b in zip(order, order[1:]))
    assert hull_centers > 0 and interior_centers > 0
