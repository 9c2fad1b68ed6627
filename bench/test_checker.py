"""Hand-built cases for the benchmark's independent checker.

Run with: python3 -m pytest bench/test_checker.py
"""
import itertools
import sys
from pathlib import Path

import pytest

import checker

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# A convex hexagon in general position, listed counter-clockwise.
HEXAGON = [(4, 0), (2, 3), (-2, 3), (-4, 0), (-2, -3), (2, -3)]
# The spider on six vertices: center 0, one leg 0-1-2-3 and one leg 0-4-5.
SPIDER6 = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5)]


def star(n):
    return [(0, i) for i in range(1, n)]


def test_crossing_pair():
    assert checker.proper_cross((0, 0), (2, 2), (0, 2), (2, 0))
    assert not checker.proper_cross((0, 0), (2, 2), (3, 0), (4, 1))
    assert not checker.proper_cross((0, 0), (2, 2), (2, 2), (3, 0))


def test_plane_embedding_rejects_crossing_and_forbidden_segment():
    square = [(0, 0), (2, 0), (2, 2), (0, 3)]
    path = [(0, 1), (1, 2), (2, 3)]
    checker.check_plane_embedding(square, path, [0, 1, 2, 3])
    with pytest.raises(checker.CheckError):
        checker.check_plane_embedding(square, path, [0, 2, 1, 3])
    with pytest.raises(checker.CheckError):
        checker.check_plane_embedding(square, path, [0, 1, 2, 3], forbidden=[(1, 2)])
    with pytest.raises(checker.CheckError):
        checker.check_plane_embedding(square, path, [0, 1, 1, 3])


def test_hexagon_hull_order():
    assert checker.hull_order(HEXAGON) == [3, 4, 5, 0, 1, 2]


def test_three_consecutive_hull_edges_block_the_spider():
    three = [(0, 1), (1, 2), (2, 3)]
    assert checker.embeds(HEXAGON, SPIDER6)
    assert not checker.embeds(HEXAGON, SPIDER6, three)
    for two in itertools.combinations(three, 2):
        assert checker.embeds(HEXAGON, SPIDER6, two)


def test_edge_cover_blocks_the_star():
    from forbidtree import random_points

    pts = [(p.x, p.y) for p in random_points(7, 1)]
    cover = [(0, 1), (0, 2), (3, 4), (5, 6)]
    assert checker.embeds(pts, star(7))
    assert not checker.embeds(pts, star(7), cover)
    size, edges, cls = checker.min_forbidding_size(pts, 4)
    assert size == 4
    assert cls == checker.canonical_tree(7, star(7))
    assert not checker.embeds(pts, star(7), sorted(edges))


def test_convex_minimum_is_three():
    size, edges, _ = checker.min_forbidding_size(HEXAGON, 3)
    assert size == 3 and len(edges) == 3


def test_canonical_tree_is_label_invariant():
    relabel = [3, 5, 0, 1, 4, 2]
    moved = [(relabel[u], relabel[v]) for u, v in SPIDER6]
    assert checker.canonical_tree(6, moved) == checker.canonical_tree(6, SPIDER6)
    assert checker.canonical_tree(6, star(6)) != checker.canonical_tree(6, SPIDER6)
    classes = {checker.canonical_tree(6, e) for e in checker.labelled_trees(6)}
    assert len(classes) == 6
