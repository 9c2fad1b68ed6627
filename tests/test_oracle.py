import hashlib
import itertools
import json
import random

import pytest
from oracle_reference import reference_search

from forbidtree import oracle
from forbidtree.embedding import Embedding, EmbeddingDefectError
from forbidtree.forbid import three_consecutive_hull_edges
from forbidtree.generators import convex_points, random_points
from forbidtree.geometry import Edge, EdgeSet, convex_hull, hull_maps
from forbidtree.oracle import (
    SearchBudgetExceeded,
    exists_embedding,
    forbids,
    min_forbidden_set_size,
)
from forbidtree.trees import Tree, all_trees, root_at, spider_tree


def complete_edge_set(n):
    return EdgeSet(Edge(a, b) for a in range(n) for b in range(a + 1, n))


def test_always_feasible_without_forbidden_edges():
    for k in range(2, 8):
        for n in (k, k + 2):
            s = random_points(n, seed=k)
            for t in all_trees(k):
                rep = exists_embedding(t, s)
                assert rep.feasible is True
                rep.witness.validate()


def test_three_consecutive_hull_edges_block_spider():
    for n in range(5, 9):
        s = convex_points(n, seed=1)
        c = three_consecutive_hull_edges(s, 0)
        rep = exists_embedding(spider_tree(n), s, c.edges)
        assert rep.feasible is False
        assert rep.witness is None


def test_path_needs_two_hull_edges_on_convex_points():
    # A crossing-free spanning path on convex points consumes the remaining
    # arc from its ends, so both its first and its last edge join two
    # cyclically adjacent points. Forbidding all hull edges, or all but one,
    # blocks the path; leaving two disjoint hull edges restores it.
    s = convex_points(5, seed=1)
    hull = convex_hull(s)
    hull_edges = [Edge(hull[i], hull[(i + 1) % 5]) for i in range(5)]
    path = Tree(5, [(i, i + 1) for i in range(4)])
    assert exists_embedding(path, s, EdgeSet(hull_edges)).feasible is False
    for keep in range(5):
        rest = EdgeSet(e for i, e in enumerate(hull_edges) if i != keep)
        assert exists_embedding(path, s, rest).feasible is False
    rest = EdgeSet(hull_edges[1:3] + hull_edges[4:])
    rep = exists_embedding(path, s, rest)
    assert rep.feasible is True
    assert rep.witness.hull_edges_used() == 2


def test_forbids_trivial():
    s = random_points(6, seed=2)
    for t in all_trees(4):
        assert not forbids(EdgeSet(), t, s)
    assert forbids(complete_edge_set(6), Tree(2, [(0, 1)]), s)


def test_forbids_monotone_under_supersets():
    s = convex_points(6, seed=1)
    c = three_consecutive_hull_edges(s, 0)
    t = spider_tree(6)
    assert forbids(c.edges, t, s)
    hull = convex_hull(s)
    bigger = EdgeSet(list(c.edges) + [Edge(hull[4], hull[5])])
    assert forbids(bigger, t, s)


def test_budget_exhaustion_is_unknown_not_infeasible():
    s = random_points(7, seed=1)
    t = all_trees(7)[0]
    rep = exists_embedding(t, s, budget=3)
    assert rep.feasible is None
    assert rep.unknown
    assert rep.witness is None
    with pytest.raises(SearchBudgetExceeded):
        forbids(EdgeSet(), t, s, budget=3)


def test_verdict_independent_of_vertex_order(monkeypatch):
    # relabelings of one tree make the oracle walk it in other orders
    orders = set()

    def spy(t, v):
        rt = root_at(t, v)
        orders.add(tuple(perm.index(u) for u in rt.order))
        return rt

    monkeypatch.setattr(oracle, "root_at", spy)
    oracle._search_rooting.cache_clear()  # a rooting cached earlier would bypass the spy
    s = convex_points(6, seed=1)
    c = three_consecutive_hull_edges(s, 0)
    t = spider_tree(6)
    for perm in ((0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0), (3, 0, 5, 1, 4, 2)):
        relabeled = Tree(6, [(perm[a], perm[b]) for a, b in t.edges])
        assert exists_embedding(relabeled, s, c.edges).feasible is False
    assert len(orders) >= 2


def test_twin_table_chains_the_spiders_legs():
    # the centre's children are 1 (the three-edge leg) and 4, 6, 8 (the
    # two-edge legs): 6's twin is 4 and 8's is 6; no other vertex has one
    rt, twin, _ = oracle._search_rooting(spider_tree(10))
    assert rt.root == 0 and rt.children[0] == (1, 4, 6, 8)
    assert twin == (-1, -1, -1, -1, -1, -1, 4, -1, 6, -1)


# the root 0 has children 1 and 3 with two leaves each, and the leaf 2
NESTED_TWINS = Tree(8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (3, 6), (3, 7)])


def test_twin_table_nests():
    # 3's twin is 1, past the leaf 2 between them, and each pair of leaves
    # is twinned too
    rt, twin, _ = oracle._search_rooting(NESTED_TWINS)
    assert rt.root == 0 and rt.children[0] == (1, 2, 3)
    assert twin == (-1, -1, -1, 1, -1, 4, -1, 6)
    # a path 1-2-3 and a cherry on 4 have the same size but are not twins
    rt, twin, _ = oracle._search_rooting(
        Tree(8, [(0, 1), (0, 4), (0, 7), (1, 2), (2, 3), (4, 5), (4, 6)]))
    assert rt.root == 0 and rt.children[0] == (1, 4, 7)
    assert twin == (-1, -1, -1, -1, -1, -1, 5, -1)


def test_pending_table_counts_unplaced_children():
    # entry i holds each vertex among the first i + 1 placed that still has
    # children to place, with their number, the latest placed first
    rt, _, pending = oracle._search_rooting(spider_tree(10))
    assert rt.order == (0, 1, 4, 6, 8, 2, 5, 7, 9, 3)
    assert pending == (
        ((0, 4),),
        ((1, 1), (0, 3)),
        ((4, 1), (1, 1), (0, 2)),
        ((6, 1), (4, 1), (1, 1), (0, 1)),
        ((8, 1), (6, 1), (4, 1), (1, 1)),
        ((2, 1), (8, 1), (6, 1), (4, 1)),
        ((2, 1), (8, 1), (6, 1)),
        ((2, 1), (8, 1)),
        ((2, 1),),
        (),
    )
    rt, _, pending = oracle._search_rooting(NESTED_TWINS)
    assert rt.order == tuple(range(8))
    assert pending == (
        ((0, 3),),
        ((1, 2), (0, 2)),
        ((1, 2), (0, 1)),
        ((3, 2), (1, 2)),
        ((3, 2), (1, 1)),
        ((3, 2),),
        ((3, 1),),
        (),
    )


def test_lookahead_cuts_the_blocked_spider():
    # three consecutive hull edges block the spider: the lookahead cuts
    # branches and the verdict stays; at n = 12 the frozen reference loop
    # still runs out at the oracle's whole node count
    for n in (6, 8, 10, 12):
        s = convex_points(n, seed=1)
        forbidden = three_consecutive_hull_edges(s, 0).edges
        rep = exists_embedding(spider_tree(n), s, forbidden)
        assert rep.feasible is False and rep.prunes["lookahead"] > 0
    assert reference_search(spider_tree(12), s, forbidden, rep.nodes_expanded)[0] is None


def test_hull_maps_are_the_dihedral_group_of_a_convex_set():
    # 2n distinct point maps, the identity first and then the rotations one
    # place clockwise each, and every map keeps crossings; a set not in
    # convex position has none, and its searches skip no root point
    for n in (5, 6, 9):
        s = convex_points(n, 2)
        hull, maps = convex_hull(s), list(hull_maps(s))
        assert len(set(maps)) == len(hull_maps(s)) == 2 * n and maps[0] == tuple(range(n))
        assert maps[1][hull[1]] == hull[0] and maps[n][hull[0]] == hull[0]
        cross = s.crossing_sets()
        for m in maps:
            assert sorted(m) == list(range(n))
            for a, b in itertools.combinations(range(n), 2):
                image = cross[m[a] * n + m[b]]
                assert image == sum(1 << (min(m[c], m[d]) * n + max(m[c], m[d]))
                                    for c, d in s.edge_pairs(cross[a * n + b]))
    # a map is built when first read, and only then
    lazy = hull_maps(convex_points(7, 1))
    assert lazy[9] is lazy[9] and sum(m is not None for m in lazy._maps) == 1
    for i in (-1, 14):
        with pytest.raises(IndexError):
            lazy[i]
    for s in (random_points(7, 1), random_points(9, 2)):
        assert len(convex_hull(s)) < len(s)
        assert hull_maps(s) == () and oracle._skipped_roots(s, 0) == 0


def test_symmetric_roots_need_the_maps_that_keep_f():
    # every edge at point 0 is forbidden, so a 5-vertex tree embeds on the
    # other five points of a convex hexagon. Only the identity and the
    # reflection that fixes point 0 keep F; a rotation sends each other
    # point to 0, whose refusal says nothing about them
    s = convex_points(6, 1)
    t = all_trees(5)[1]
    forbidden = EdgeSet(Edge(0, q) for q in range(1, 6))
    rep = exists_embedding(t, s, forbidden)
    assert rep.feasible is True and 0 not in rep.witness.assignment
    found, nodes, _, assignment = reference_search(t, s, forbidden, 10**9)
    assert found and rep.witness.assignment == assignment and rep.nodes_expanded <= nodes
    mask = s.edge_mask((e.a, e.b) for e in forbidden)
    mirror = next(m for m in list(hull_maps(s))[6:] if m[0] == 0)
    assert oracle._skipped_roots(s, mask) == sum(1 << p for p in range(6) if mirror[p] < p) != 0


def test_a_search_settled_at_root_point_0_builds_no_maps():
    s = convex_points(8, 3)
    assert exists_embedding(spider_tree(8), s, EdgeSet([Edge(1, 2)])).feasible
    assert s._hull_maps is None


def test_symmetric_roots_cut_the_blocked_spider():
    # the reflection that keeps three consecutive hull edges halves the
    # root points tried: 12,973 to 14,102 nodes over the ten start positions
    # at n = 10 before the skip, and 72,882 at n = 12. The budget cut-off
    # is exact at the new count
    s10, s12 = convex_points(10, 1), convex_points(12, 1)
    cases = [(s10, start, 7021) for start in range(10)] + [(s12, 0, 36033)]
    for s, start, ceiling in cases:
        t, forbidden = spider_tree(len(s)), three_consecutive_hull_edges(s, start).edges
        rep = exists_embedding(t, s, forbidden)
        assert rep.feasible is False and rep.nodes_expanded <= ceiling, (len(s), start)
    nodes = exists_embedding(t, s12, forbidden, budget=rep.nodes_expanded).nodes_expanded
    assert nodes == rep.nodes_expanded
    short = exists_embedding(t, s12, forbidden, budget=nodes - 1)
    assert short.unknown and short.nodes_expanded == nodes


def test_relabellings_search_alike():
    # the search reads labels only through its rooting, and the twins come
    # from the rooting's shape: relabellings whose rootings have the same
    # shape (the parent's position at each position of the order) get the
    # same twin positions and the same report at an unbounded budget, with
    # the witness read position by position; every relabelling gets the
    # same verdict
    rng = random.Random(16)
    s10, s8 = convex_points(10, 1), convex_points(8, 1)
    cases = [(spider_tree(10), s10, three_consecutive_hull_edges(s10, 0).edges),
             (NESTED_TWINS, s8, three_consecutive_hull_edges(s8, 0).edges),
             (NESTED_TWINS, random_points(8, 1), EdgeSet([Edge(0, 1), Edge(2, 5)]))]
    for t, s, forbidden in cases:
        by_shape, verdicts = {}, set()
        for _ in range(16):
            perm = rng.sample(range(t.k), t.k)
            relabelled = Tree(t.k, [(perm[a], perm[b]) for a, b in t.edges])
            rt, twin, _ = oracle._search_rooting(relabelled)
            pos = {v: i for i, v in enumerate(rt.order)}
            shape = tuple(pos.get(rt.parent[v], -1) for v in rt.order)
            rep = exists_embedding(relabelled, s, forbidden)
            verdicts.add(rep.feasible)
            drawn = tuple(rep.witness.assignment[v] for v in rt.order) if rep.witness else None
            by_shape.setdefault(shape, set()).add((
                tuple(pos.get(twin[v], -1) for v in rt.order), rep.feasible,
                rep.nodes_expanded, tuple(sorted(rep.prunes.items())), drawn))
        assert len(by_shape) < 16  # some shape came up twice
        assert all(len(reports) == 1 for reports in by_shape.values())
        assert len(verdicts) == 1


def test_single_vertex_report():
    rep = exists_embedding(Tree(1, []), random_points(3, seed=1))
    assert rep.feasible is True and rep.nodes_expanded == 1
    assert rep.prunes == {"crossing": 0, "forbidden": 0, "lookahead": 0}
    assert rep.witness.assignment == (0,)


def test_report_counters_and_json():
    s = convex_points(5, seed=1)
    rep = exists_embedding(spider_tree(5), s, EdgeSet([Edge(0, 1)]))
    assert rep.nodes_expanded > 0
    data = rep.to_json()
    assert data["feasible"] is True
    assert data["witness"]["crossings"] == 0
    assert set(rep.prunes) == {"crossing", "forbidden", "lookahead"}
    unk = exists_embedding(spider_tree(5), s, budget=2).to_json()
    assert unk["feasible"] == "unknown"


def test_min_forbidden_k2_needs_every_edge():
    for n, seed in ((4, 5), (2, 1)):
        s = random_points(n, seed=seed)
        res = min_forbidden_set_size(s, 2, size_cap=6)
        assert res is not None
        assert res.size == n * (n - 1) // 2
        assert set(res.edges) == set(complete_edge_set(n))


def test_min_forbidden_convex_is_three():
    for n in (5, 6):
        s = convex_points(n, seed=1)
        res = min_forbidden_set_size(s, n, 3)
        assert res is not None and res.size == 3
        assert forbids(res.edges, res.tree, s)


def test_min_forbidden_none_within_cap():
    s = convex_points(6, seed=1)
    assert min_forbidden_set_size(s, 6, 2) is None


def test_min_forbidden_range_checks():
    # no point-count wall: eight points answer. Size 4 agrees with a brute
    # force like test_oracle_reference.plane_drawings over all 23 trees (about
    # 6 s, so checked once, not here).
    s = random_points(8, seed=1)
    res = min_forbidden_set_size(s, 8, 4)
    assert res.size == 4 and forbids(res.edges, res.tree, s)
    with pytest.raises(ValueError):
        min_forbidden_set_size(random_points(5, seed=1), 1, 3)
    with pytest.raises(ValueError):
        min_forbidden_set_size(random_points(5, seed=1), 5, 0)


def test_min_forbidden_budget_run_out_raises():
    # each oracle call gets the budget; one run-out makes the whole answer
    # unknown, never a size
    s = random_points(7, seed=1)
    for budget in (1, 10, 1000):
        with pytest.raises(SearchBudgetExceeded):
            min_forbidden_set_size(s, 7, 4, budget=budget)
    assert min_forbidden_set_size(s, 7, 4, budget=10**4).size == 4


def test_forbids_consecutive_and_blanket():
    from forbidtree.forbid import r_edge_blanket

    for n in (5, 6, 7):
        s = convex_points(n, seed=1)
        c = three_consecutive_hull_edges(s, 0)
        assert forbids(c.edges, c.target_tree, s)
    s = convex_points(8, seed=1)
    c = r_edge_blanket(s, 5)
    assert forbids(c.edges, c.target_tree, s)


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        exists_embedding(spider_tree(8), random_points(6, seed=1))


def test_search_min_shape_is_pinned(monkeypatch):
    # call and node totals of the search core, and a digest of the answers, over
    # the 24 search-min inputs. The calls and the digest were taken with every
    # call made through exists_embedding, before twin subtrees were tried in
    # one point order; that rule, the lookahead and the skipped symmetric
    # root points left them unchanged and cut the nodes from 156,576 to
    # 87,612, to 51,346 and then to 51,149, so only the node total was
    # re-pinned
    calls = nodes = 0
    search = oracle._search

    def spy(*args):
        nonlocal calls, nodes
        result = search(*args)
        calls += 1
        nodes += result[2]
        return result

    monkeypatch.setattr(oracle, "_search", spy)
    answers = []
    for i in range(24):
        res = min_forbidden_set_size(random_points(6, 1000 + i), 6, 3)
        answers.append({"size": res.size, "edges": res.edges.to_json()["edges"],
                        "tree": res.tree.to_json()})
    assert (calls, nodes) == (1885, 51149)
    digest = hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()
    assert digest == "31fedaadd1dd2d3b507b8d4fb68fa0f3e04b6dce8b0d8b0ba57f22fcc2db2336"


def test_witness_check_fires(monkeypatch):
    search = oracle._search
    s = convex_points(5, seed=1)
    path = Tree(5, [(i, i + 1) for i in range(4)])

    def crossing(t, s, forb_mask, budget):
        # a drawing with a crossing where the tree has two disjoint edges
        for asg in itertools.permutations(range(len(s)), t.k):
            if Embedding(t, s, asg).crossing_count():
                return True, list(asg), 1, {}
        return search(t, s, forb_mask, budget)

    def ignoring(t, s, forb_mask, budget):
        # a plane drawing that ignores the forbidden edges
        return search(t, s, 0, budget)

    monkeypatch.setattr(oracle, "_search", crossing)
    with pytest.raises(EmbeddingDefectError):
        exists_embedding(path, s)
    with pytest.raises(EmbeddingDefectError):
        min_forbidden_set_size(s, 5, 3)
    monkeypatch.setattr(oracle, "_search", ignoring)
    drawn = exists_embedding(path, s).witness.segment_edges()
    with pytest.raises(AssertionError, match="forbidden edge"):
        exists_embedding(path, s, EdgeSet(drawn[:1]))
    with pytest.raises(AssertionError, match="forbidden edge"):
        min_forbidden_set_size(s, 5, 3)


def test_first_drawing_answers_at_its_node_count():
    # the first drawing W0 of tree 2 on seven random points avoids edge 01;
    # its search takes N0 = 122 nodes and the search with 01 forbidden 63.
    # Below N0 a call reports its own search, cold or warm; from N0 on it
    # is answered by W0 with no search
    s, t = random_points(7, seed=1), all_trees(7)[2]
    forbidden = EdgeSet([Edge(0, 1)])
    mask = s.edge_mask([(0, 1)])
    _, w0, n0, _ = oracle._search(t, s, 0, 10**9)
    assert n0 == 122 and oracle._search(t, s, mask, 10**9)[2] == 63
    own = oracle._search(t, s, mask, n0 - 1)
    assert own[0] is True and own[2] == 63
    oracle._first_drawing.clear()
    for budget, cached in ((n0 - 1, False), (n0, True), (n0 - 1, True), (n0, True)):
        rep = exists_embedding(t, s, forbidden, budget)
        assert bool(oracle._first_drawing) is cached
        assert rep.feasible is True and list(rep.witness.assignment) == w0
        if budget < n0:
            assert (rep.nodes_expanded, rep.prunes) == (own[2], own[3])
        else:
            assert rep.nodes_expanded == 0


def test_first_drawing_report_is_empty_of_counts():
    # a hit runs no search: 0 nodes, every prune kind at 0, and the witness
    # is the object the call with nothing forbidden returned
    s, t = convex_points(8, seed=1), spider_tree(8)
    base = exists_embedding(t, s)
    unused = next(e for e in complete_edge_set(8) if not base.witness.uses_edge(e))
    rep = exists_embedding(t, s, EdgeSet([unused]))
    assert rep.feasible is True and rep.witness is base.witness
    assert rep.nodes_expanded == 0 and rep.prunes == {"crossing": 0, "forbidden": 0, "lookahead": 0}
    assert rep.to_json()["nodes"] == 0 and base.nodes_expanded > 0


def test_core_calls_per_report(monkeypatch):
    # a blocked spider runs one search, cold or warm; a feasible call on a
    # cold pair runs its own search and the one for the first drawing; a
    # call the first drawing answers runs none, one it does not answer runs
    # one, and so does a call with nothing forbidden
    calls = []  # the forbidden mask of each call of the search core
    search = oracle._search

    def spy(*args):
        calls.append(args[2])
        return search(*args)

    monkeypatch.setattr(oracle, "_search", spy)
    s, t = convex_points(10, seed=1), spider_tree(10)
    blocked = three_consecutive_hull_edges(s, 0).edges
    oracle._first_drawing.clear()
    assert forbids(blocked, t, s) and len(calls) == 1
    assert exists_embedding(t, s, EdgeSet(list(blocked)[:1])).feasible
    assert len(calls) == 3 and calls[2] == 0
    w0 = oracle._first_drawing[t, s][0]
    assert forbids(blocked, t, s) and len(calls) == 4
    drawn, unused = w0.segment_edges()[0], Edge(0, 5)
    assert not w0.uses_edge(unused)
    del calls[:]
    assert not forbids(EdgeSet([unused]), t, s) and calls == []
    assert not forbids(EdgeSet([drawn]), t, s) and len(calls) == 1
    assert exists_embedding(t, s).nodes_expanded > 0 and len(calls) == 2
