import itertools

import pytest
from prufer_reference import prufer_to_edges, prufer_trees

from forbidtree.trees import (
    Tree,
    ahu_canonical,
    all_trees,
    root_at,
    sort_children_by_subtree_size,
    spider_tree,
)

# non-isomorphic trees on k = 2..10 vertices
KNOWN_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}


def brute_isomorphic(t1: Tree, t2: Tree) -> bool:
    """Oracle: try every relabeling (only used at k <= 6)."""
    if t1.k != t2.k:
        return False
    e2 = set(t2.edges)
    for perm in itertools.permutations(range(t1.k)):
        if {tuple(sorted((perm[u], perm[v]))) for u, v in t1.edges} == e2:
            return True
    return False


def test_tree_validation():
    with pytest.raises(ValueError):
        Tree(3, [(0, 1)])
    with pytest.raises(ValueError):
        Tree(3, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        Tree(4, [(0, 1), (2, 3), (0, 0)])
    with pytest.raises(ValueError):
        Tree(4, [(0, 1), (0, 1), (2, 3)])
    # three edges on four vertices, but vertex 3 is cut off by a cycle
    with pytest.raises(ValueError, match="not connected"):
        Tree(4, [(0, 1), (1, 2), (0, 2)])


def test_tree_rejects_non_int_endpoints():
    # True == 1, so this would pass as a path and serialise as [[0, true], [true, 2]]
    with pytest.raises(TypeError):
        Tree(3, [(0, True), (True, 2)])
    with pytest.raises(TypeError):
        Tree(3, [(0, 1.0), (1, 2)])


def test_spider_small():
    assert spider_tree(2).edges == ((0, 1),)
    t3 = spider_tree(3)
    assert t3.is_path()
    t4 = spider_tree(4)
    assert t4.is_path()


def test_spider_seven_and_eight():
    t7 = spider_tree(7)
    assert t7.degree(0) == 3
    assert sorted(t7.degree(v) for v in range(7)) == [1, 1, 1, 2, 2, 2, 3]
    t8 = spider_tree(8)
    assert t8.degree(0) == 3
    # legs of lengths 3, 2, 2 measured from the center
    rt = root_at(t8, 0)
    leg_sizes = sorted(rt.subtree_size[c] for c in rt.children[0])
    assert leg_sizes == [2, 2, 3]


def test_spider_leaf_count_odd():
    for n in (5, 7, 9):
        t = spider_tree(n)
        assert t.k == n
        assert sum(1 for v in range(n) if t.degree(v) == 1) == (n - 1) // 2


def test_spider_even_subdivision_choice_is_isomorphic():
    # subdividing the outer edge of a leg instead of the inner one
    t8_alt = Tree(8, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (0, 6), (6, 7)])
    alt2 = Tree(8, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (0, 6), (6, 7)])
    assert ahu_canonical(spider_tree(8)) == ahu_canonical(t8_alt) == ahu_canonical(alt2)


def test_root_at_path():
    t = Tree(3, [(0, 1), (1, 2)])
    rt = root_at(t, 1)
    assert rt.children[1] == (0, 2)
    assert rt.subtree_size == (1, 3, 1)
    assert rt.parent == (1, None, 1)


def test_root_at_star():
    t = Tree(5, [(0, i) for i in range(1, 5)])
    rt = root_at(t, 0)
    assert rt.children[0] == (1, 2, 3, 4)
    assert all(rt.subtree_size[c] == 1 for c in rt.children[0])
    with pytest.raises(ValueError):
        root_at(t, 9)


def test_root_at_order_is_breadth_first():
    t = Tree(7, [(0, 4), (4, 1), (4, 6), (0, 5), (1, 2), (5, 3)])
    rt = root_at(t, 0)
    assert rt.order == (0, 4, 5, 1, 6, 3, 2)
    for t in all_trees(8):
        for root in range(t.k):
            rt = root_at(t, root)
            assert sorted(rt.order) == list(range(t.k)) and rt.order[0] == root
            rank = {v: i for i, v in enumerate(rt.order)}
            assert all(rank[rt.parent[v]] < rank[v] for v in rt.order[1:])
            # breadth-first: the parents' ranks never decrease along the order
            parent_rank = [rank[rt.parent[v]] for v in rt.order[1:]]
            assert parent_rank == sorted(parent_rank)


def test_root_spider_center():
    rt = root_at(spider_tree(7), 0)
    assert [rt.subtree_size[c] for c in rt.children[0]] == [2, 2, 2]


def test_sort_children():
    t = Tree(7, [(0, 1), (0, 2), (0, 3), (3, 4), (2, 5), (5, 6)])
    rt = root_at(t, 0)
    by_size = sort_children_by_subtree_size(rt)
    assert [rt.subtree_size[c] for c in by_size.children[0]] == [1, 2, 3]
    # underlying edges unchanged
    assert by_size.tree.edges == t.edges


def test_sort_children_tie_break_by_index():
    t = Tree(4, [(0, 3), (0, 1), (0, 2)])
    rt = sort_children_by_subtree_size(root_at(t, 0))
    assert rt.children[0] == (1, 2, 3)


def test_ahu_relabelings_equal():
    p1 = Tree(4, [(0, 1), (1, 2), (2, 3)])
    p2 = Tree(4, [(2, 0), (0, 3), (3, 1)])
    assert ahu_canonical(p1) == ahu_canonical(p2)
    star = Tree(4, [(0, 1), (0, 2), (0, 3)])
    assert ahu_canonical(p1) != ahu_canonical(star)


def test_ahu_canonical_of_a_deep_path():
    """Codes are built over the breadth-first order, not by recursion."""
    k = 3000
    path = Tree(k, [(i, i + 1) for i in range(k - 1)])
    shuffled = Tree(k, [((i * 7) % k, ((i + 1) * 7) % k) for i in range(k - 1)])
    def chain(m):  # a path of m vertices rooted at an end
        return "(" * m + ")" * m

    # either center roots one branch of 1,500 vertices and one of 1,499
    assert ahu_canonical(path) == "(" + chain(1500) + chain(1499) + ")"
    assert ahu_canonical(shuffled) == ahu_canonical(path)


def test_ahu_matches_brute_force_on_five_vertices():
    labeled = []
    for seq in itertools.product(range(5), repeat=3):
        labeled.append(Tree(5, prufer_to_edges(seq, 5)))
    assert len(labeled) == 125
    canons = {ahu_canonical(t) for t in labeled}
    assert len(canons) == 3
    # canonical equality agrees with exhaustive relabeling on every pair
    sample = labeled[::11]
    for t1 in sample:
        for t2 in sample:
            assert (ahu_canonical(t1) == ahu_canonical(t2)) == brute_isomorphic(t1, t2)


def test_all_trees_counts():
    for k, count in KNOWN_COUNTS.items():
        assert len(all_trees(k)) == count


def test_all_trees_pairwise_distinct_and_contains_landmarks():
    for k in range(2, 9):
        trees = all_trees(k)
        canons = [ahu_canonical(t) for t in trees]
        assert len(set(canons)) == len(trees)
        path = Tree(k, [(i, i + 1) for i in range(k - 1)])
        assert ahu_canonical(path) in canons
        if k >= 3:
            star = Tree(k, [(0, i) for i in range(1, k)])
            assert ahu_canonical(star) in canons
        assert ahu_canonical(spider_tree(k)) in canons


def test_generation_routes_agree():
    # same classes in the same order; representatives may be labelled differently
    for k in range(2, 9):
        prufer = [ahu_canonical(t) for t in prufer_trees(k)]
        grown = [ahu_canonical(t) for t in all_trees(k)]
        assert prufer == grown


def test_all_trees_range():
    with pytest.raises(ValueError):
        all_trees(1)
    with pytest.raises(ValueError):
        all_trees(11)


def test_tree_json_round_trip():
    t = spider_tree(8)
    assert Tree.from_json(t.to_json()) == t
