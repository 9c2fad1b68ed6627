"""Forbidden-edge avoidance: the single-edge repair hierarchy and the
two-edge rotation scan, cross-checked against the search oracle."""
import hashlib
import itertools
import json

import pytest
from prufer_reference import prufer_trees

from forbidtree.embedding import (
    Embedding,
    RepairPlan,
    _default_plan,
    _Engine,
    _single_base,
    embed_avoiding_single,
    embed_convex_avoiding_two,
    embed_few_hull_edges,
)
from forbidtree.generators import convex_points, random_points
from forbidtree.geometry import Edge, EdgeSet, PointSet, convex_hull, visible_hull_vertices
from forbidtree.oracle import exists_embedding
from forbidtree.trees import Tree, all_trees, root_at, sort_children_by_subtree_size, spider_tree


def all_edges(n):
    return [Edge(a, b) for a in range(n) for b in range(a + 1, n)]


def test_star_avoids_any_edge():
    n = 6
    star = Tree(n, [(0, i) for i in range(1, n)])
    for seed in (1, 2):
        s = random_points(n, seed=seed)
        for e in all_edges(n):
            emb = embed_avoiding_single(star, s, e)
            assert not emb.uses_edge(e)
            assert emb.crossing_count() == 0
            # a star avoiding (p, q) must center off both endpoints
            center_pt = emb.point_of(0)
            assert center_pt not in (e.a, e.b)


def test_path_avoids_any_edge():
    n = 7
    path = Tree(n, [(i, i + 1) for i in range(n - 1)])
    s = random_points(n, seed=3)
    for e in all_edges(n):
        emb = embed_avoiding_single(path, s, e)
        assert not emb.uses_edge(e) and emb.crossing_count() == 0


def test_spider_into_convex_a_hull_edge_forbidden():
    s = convex_points(7, seed=1)
    hull = convex_hull(s)
    for i in range(7):
        e = Edge(hull[i], hull[(i + 1) % 7])
        emb = embed_avoiding_single(spider_tree(7), s, e)
        assert not emb.uses_edge(e) and emb.crossing_count() == 0


def test_every_tree_every_edge_small():
    for n in (5, 6):
        trees = all_trees(n)
        for mode_gen in (convex_points, random_points):
            for seed in (1, 2, 3):
                s = mode_gen(n, seed)
                for t in trees:
                    for e in all_edges(n):
                        emb = embed_avoiding_single(t, s, e)
                        assert not emb.uses_edge(e)
                        assert emb.crossing_count() == 0


def test_single_edge_agrees_with_oracle():
    n = 6
    s = random_points(n, seed=8)
    for t in all_trees(n):
        for e in all_edges(n)[:6]:
            emb = embed_avoiding_single(t, s, e)
            report = exists_embedding(t, s, EdgeSet([e]))
            assert report.feasible is True
            assert report.witness.avoids(EdgeSet([e]))


def test_avoiding_single_deterministic():
    s = random_points(7, seed=6)
    t = all_trees(7)[4]
    e = Edge(2, 5)
    first = embed_avoiding_single(t, s, e)
    second = embed_avoiding_single(t, s, e)
    assert first.assignment == second.assignment


def test_avoiding_single_preconditions():
    t = all_trees(5)[0]
    with pytest.raises(ValueError):
        embed_avoiding_single(t, random_points(6, seed=1), Edge(0, 1))
    with pytest.raises(ValueError):
        embed_avoiding_single(Tree(4, [(0, 1), (1, 2), (2, 3)]),
                              random_points(4, seed=1), Edge(0, 1))
    with pytest.raises(IndexError):
        embed_avoiding_single(t, random_points(5, seed=1), Edge(0, 9))


def test_few_hull_and_two_edge_preconditions():
    t5, t6 = all_trees(5)[0], all_trees(6)[0]
    s5, s6 = convex_points(5, seed=1), convex_points(6, seed=1)
    t4, s4 = Tree(4, [(0, 1), (1, 2), (2, 3)]), convex_points(4, seed=1)
    with pytest.raises(ValueError, match="sizes differ"):
        embed_few_hull_edges(t5, s6)
    with pytest.raises(ValueError, match="n >= 5"):
        embed_few_hull_edges(t4, s4)
    with pytest.raises(ValueError, match="sizes differ"):
        embed_convex_avoiding_two(t5, s6, Edge(0, 1), Edge(2, 3))
    with pytest.raises(ValueError, match="n >= 5"):
        embed_convex_avoiding_two(t4, s4, Edge(0, 1), Edge(2, 3))
    with pytest.raises(IndexError, match=r"Edge\(a=2, b=6\) out of range for 6 points"):
        embed_convex_avoiding_two(t6, s6, Edge(0, 1), Edge(2, 6))
    embed_convex_avoiding_two(t5, s5, Edge(0, 1), Edge(2, 3))


def test_two_edges_same_edge_degenerates_to_single():
    s = convex_points(6, seed=1)
    e = Edge(0, 3)
    for t in all_trees(6):
        emb = embed_convex_avoiding_two(t, s, e, e)
        assert not emb.uses_edge(e) and emb.crossing_count() == 0


def test_two_disjoint_hull_edges_spider():
    s = convex_points(7, seed=1)
    hull = convex_hull(s)
    f1 = Edge(hull[0], hull[1])
    f2 = Edge(hull[3], hull[4])
    emb = embed_convex_avoiding_two(spider_tree(7), s, f1, f2)
    assert not emb.uses_edge(f1) and not emb.uses_edge(f2)
    assert emb.crossing_count() == 0


def test_two_edges_exhaustive_small():
    n = 5
    s = convex_points(n, seed=1)
    for t in all_trees(n):
        for f1, f2 in itertools.combinations(all_edges(n), 2):
            emb = embed_convex_avoiding_two(t, s, f1, f2)
            assert not emb.uses_edge(f1) and not emb.uses_edge(f2)
            assert emb.crossing_count() == 0
            report = exists_embedding(t, s, EdgeSet([f1, f2]))
            assert report.feasible is True


def test_two_edges_requires_convex():
    s = random_points(6, seed=4)
    if len(convex_hull(s)) < 6:
        with pytest.raises(ValueError):
            embed_convex_avoiding_two(all_trees(6)[0], s, Edge(0, 1), Edge(2, 3))


# sha256 prefixes of the JSON list of assignments, taken before the repair
# plan became one typed object; the trees come from the Prufer reference so
# that the labels do not depend on the package's enumerator.
PINNED_ASSIGNMENTS = {
    ("single", "convex", 5): "adf406cf80582e27",
    ("single", "random", 5): "8c6bb1641437cd79",
    ("two", "convex", 5): "31925d99adae170a",
    ("single", "convex", 6): "3ab407fd8ac1fab3",
    ("single", "random", 6): "8aec0299463b0210",
    ("two", "convex", 6): "9aa92ecd6a643719",
    ("single", "convex", 7): "d51a03b52aeebbbc",
    ("single", "random", 7): "b50ef38b139fe480",
    ("two", "convex", 7): "46c1a0aa211cacc4",
}


def _digest(assignments):
    return hashlib.sha256(json.dumps(assignments).encode()).hexdigest()[:16]


def test_avoiding_assignments_are_pinned():
    got = {}
    for n in (5, 6, 7):
        edges = all_edges(n)
        trees = prufer_trees(n)
        for mode, gen in (("convex", convex_points), ("random", random_points)):
            s = gen(n, 1)
            got[("single", mode, n)] = _digest(
                [embed_avoiding_single(t, s, e).assignment for t in trees for e in edges])
            if mode == "convex":
                got[("two", mode, n)] = _digest(
                    [embed_convex_avoiding_two(t, s, f1, f2).assignment
                     for t in trees for f1, f2 in itertools.combinations(edges, 2)])
    assert got == PINNED_ASSIGNMENTS


# The spider repair on n = 9 inputs that no smaller sweep reaches: the
# first two fall back from the parity anchor to later ones, the last two
# take the second and third parity branches. Assignments taken before the
# engine took its child choice from the repair plan.
SPIDER_REPAIR = Tree(9, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (5, 7), (6, 8)])
PINNED_SPIDER_REPAIRS = [
    (convex_points, 1, Edge(3, 4), (7, 4, 8, 0, 1, 2, 5, 3, 6)),
    (random_points, 1, Edge(0, 8), (2, 5, 7, 1, 6, 0, 3, 4, 8)),
    (random_points, 2, Edge(2, 7), (1, 8, 6, 0, 5, 2, 3, 4, 7)),
]


@pytest.mark.parametrize("gen,seed,e,expected", PINNED_SPIDER_REPAIRS)
def test_spider_repair_fallbacks_are_pinned(gen, seed, e, expected):
    emb = embed_avoiding_single(SPIDER_REPAIR, gen(9, seed), e)
    assert emb.assignment == expected
    assert not emb.uses_edge(e) and emb.crossing_count() == 0


# Every tree on 9 or 10 vertices whose single-edge repair reaches the spider
# re-anchoring inside a cell, on random_points(9, 1..12) and
# random_points(10, 1..3): the sweep over all edges draws 1,107 embeddings,
# 54 of them through the spider repair. The digest was taken before the
# spider completion stopped testing segments outside its own cell.
SPIDER_CELL_TREES = [
    [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (5, 7), (6, 8)],
    [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (5, 6), (5, 7), (6, 8), (7, 9)],
    [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (4, 8), (5, 9)],
    [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (3, 7), (4, 8), (5, 9)],
    [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (2, 7), (5, 8), (6, 9)],
    [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (1, 7), (6, 8), (7, 9)],
]
PINNED_SPIDER_CELL_SWEEP = (54, "15bc69b3d539c099")


def test_spider_cell_repairs_are_pinned(monkeypatch):
    import forbidtree.embedding as embedding
    reached = []
    real = embedding._cell_spider_pins

    def spy(*a):
        reached.append(a)
        return real(*a)

    monkeypatch.setattr(embedding, "_cell_spider_pins", spy)
    assignments, spider_inputs = [], 0
    for edges in SPIDER_CELL_TREES:
        t = Tree(len(edges) + 1, edges)
        for seed in range(1, 13) if t.k == 9 else range(1, 4):
            s = random_points(t.k, seed)
            for e in all_edges(t.k):
                reached.clear()
                emb = embed_avoiding_single(t, s, e)
                assert not emb.uses_edge(e) and emb.crossing_count() == 0
                assignments.append(emb.assignment)
                spider_inputs += bool(reached)
    assert (spider_inputs, _digest(assignments)) == PINNED_SPIDER_CELL_SWEEP


# The recorded single-edge sweep of BENCH_25.json: n = 5..9, every tree (every
# third at n = 9), vertex 0 swapped with each vertex in turn, convex_points
# seeds 1-3 and random_points seeds 1-5, every edge. The full sha256 of
# json.dumps of the assignments, with the star and cell-spider repair counts.
PINNED_SINGLE_EDGE_SWEEP = (101_144, 5_112, 296,
                            "48edc39b6705f39b91477412573807e9e27815a2447ed11f671c9babf4c1c3a2")


def test_single_edge_sweep_digest_is_pinned(monkeypatch):
    import forbidtree.embedding as embedding
    stars, spiders = [], []
    real_repair, real_spider = embedding._apply_repair, embedding._cell_spider_pins

    def repair_spy(s, rt, plan, u, v, asg):
        real_repair(s, rt, plan, u, v, asg)
        # rule (c) pins u and its leaves; a cell spider pins u as a middle vertex
        stars.append(u in plan.pinned and len(plan.child_order[u]) > 1)

    def spider_spy(*a):
        spiders.append(a)
        return real_spider(*a)

    monkeypatch.setattr(embedding, "_apply_repair", repair_spy)
    monkeypatch.setattr(embedding, "_cell_spider_pins", spider_spy)
    assignments = []
    for n in range(5, 10):
        sets = [convex_points(n, seed) for seed in (1, 2, 3)]
        sets += [random_points(n, seed) for seed in range(1, 6)]
        for t in all_trees(n)[::3] if n == 9 else all_trees(n):
            for v in range(n):
                swap = {0: v, v: 0}
                relabelled = Tree(n, [(swap.get(a, a), swap.get(b, b)) for a, b in t.edges])
                for s in sets:
                    for e in all_edges(n):
                        assignments.append(embed_avoiding_single(relabelled, s, e).assignment)
    digest = hashlib.sha256(json.dumps(assignments).encode()).hexdigest()
    assert (len(assignments), sum(stars), len(spiders), digest) == PINNED_SINGLE_EDGE_SWEEP


def test_first_wedge_run_ignores_the_forbidden_edge():
    """The default plan reads no edge, so one base drawing serves every edge it avoids."""
    for n in (5, 6, 7, 8):
        edges = all_edges(n)
        for t in all_trees(n):
            rt = sort_children_by_subtree_size(root_at(t, 0))
            plan = _default_plan(rt)
            assert (plan.avoid_edges, plan.pinned) == (frozenset(), {})
            for gen in (convex_points, random_points):
                for seed in (1, 2, 3):
                    s = gen(n, seed)
                    _, base = _single_base(t, s)
                    assert base.assignment == tuple(_Engine(s, rt, plan).run())
                    for e in edges:
                        if not base.uses_edge(e):
                            assert embed_avoiding_single(t, s, e) is base


def test_single_base_cache_misses_and_equal_keys():
    """Interleaved and equal-but-distinct keys give what a cold cache gives."""
    n = 7
    t1, t2 = all_trees(n)[1], all_trees(n)[5]
    s1, s2 = convex_points(n, 1), random_points(n, 1)
    t1_copy, s1_copy = Tree(n, list(t1.edges)), convex_points(n, 1)
    assert t1_copy == t1 and t1_copy is not t1 and s1_copy == s1 and s1_copy is not s1
    calls = [(t1, s1), (t2, s1), (t1, s2), (t1, s1), (t1_copy, s1), (t1, s1_copy),
             (t1_copy, s1_copy)]
    _single_base.cache_clear()
    warm = [embed_avoiding_single(t, s, e) for t, s in calls for e in all_edges(n)]
    cold = []
    for t, s in calls:
        for e in all_edges(n):
            _single_base.cache_clear()
            cold.append(embed_avoiding_single(t, s, e))
    assert warm == cold
    assert all(not emb.uses_edge(e) and emb.crossing_count() == 0
               for emb, e in zip(warm, all_edges(n) * len(calls)))


def test_edge_sweep_runs_the_engine_once_plus_repairs(monkeypatch):
    """One tree x every edge: one shared first run, then one run per repair.

    Drawing the first run once per edge instead would make 44 runs here
    (36 first runs plus the same 8 re-runs).
    """
    import forbidtree.embedding as embedding
    runs, repairs = [], []
    real_run, real_repair = embedding._Engine.run, embedding._apply_repair

    def run_spy(self):
        runs.append(self.plan.avoid_edges)
        return real_run(self)

    def repair_spy(*a):
        repairs.append(a)
        return real_repair(*a)

    monkeypatch.setattr(embedding._Engine, "run", run_spy)
    monkeypatch.setattr(embedding, "_apply_repair", repair_spy)
    embedding._single_base.cache_clear()
    s = convex_points(9, 1)
    for e in all_edges(9):
        emb = embed_avoiding_single(SPIDER_REPAIR, s, e)
        assert not emb.uses_edge(e) and emb.crossing_count() == 0
    assert (len(runs), len(repairs)) == (9, 8)
    assert runs[0] == frozenset() and all(len(r) == 1 for r in runs[1:])


def test_single_edge_sweep_builds_the_facing_chain(monkeypatch):
    """A child whose clockwise extreme would draw e takes the next vertex of its facing chain.

    The sweep of every tree and edge on a convex 8-gon reaches that branch.
    """
    import forbidtree.embedding as embedding
    calls = []
    real = embedding._facing_chain

    def spy(*a):
        calls.append(a)
        return real(*a)

    monkeypatch.setattr(embedding, "_facing_chain", spy)
    embedding._single_base.cache_clear()
    s = convex_points(8, 1)
    for t in all_trees(8):
        for e in all_edges(8):
            emb = embed_avoiding_single(t, s, e)
            assert not emb.uses_edge(e) and emb.crossing_count() == 0
    assert calls


def test_reorder_then_filter_takes_two_runs(monkeypatch):
    """Rule (d)'s reorder is the only repair: its re-run's edge filter steers the moved child.

    The base draws leaf 4 on e; the reorder puts the 3-vertex chain 1, 3, 5
    on the root's first block, where child 3's first candidate would draw
    e, and the filter moves it in the same run.
    """
    import forbidtree.embedding as embedding
    runs = []
    real_run = embedding._Engine.run

    def run_spy(self):
        runs.append(self.plan.avoid_edges)
        return real_run(self)

    monkeypatch.setattr(embedding._Engine, "run", run_spy)
    embedding._single_base.cache_clear()
    t = Tree(6, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5)])
    emb = embed_avoiding_single(t, convex_points(6, 1), Edge(0, 1))
    assert emb.assignment == (5, 0, 3, 2, 4, 1)
    assert runs == [frozenset(), frozenset({(0, 1)})]


def test_chain_head_takes_the_lower_end_of_e_when_both_are_visible():
    """Rule (d)'s chain pin: both ends of e = (0, 5) are visible, and z (vertex 1) takes 0."""
    t = Tree(6, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5)])
    emb = embed_avoiding_single(t, random_points(6, 3), Edge(0, 5))
    assert emb.assignment == (1, 0, 4, 2, 3, 5)


def test_placements_get_the_cells_their_proofs_promise(monkeypatch):
    """Each pin of the single-edge repair gets only the cell _apply_repair proves.

    A star: its center off e, and its pins exactly its block. A cell
    spider: its pins exactly its block, which holds both ends of e. A chain
    head or a root spider's center: an end of e; below the root, on a
    3-point block that holds both ends of e, and on the block's chain
    facing the parent.
    """
    import forbidtree.embedding as embedding
    reached = set()

    def check_pin(self, v, v_pt, cell):
        pinned, kids = self.plan.pinned, self.plan.child_order[v]
        parent = self.rt.parent[v]
        if v not in pinned or parent in pinned:
            return
        (e,) = self.plan.avoid_edges
        block = [v_pt, *cell]
        assert v_pt == pinned[v]
        if kids and kids[0] in pinned:
            # a whole star or spider is pinned, and lands on its own block
            subtree = [v, *kids, *(x for c in kids for x in self.plan.child_order[c])]
            assert sorted(pinned[x] for x in subtree) == sorted(block)
            if self.rt.subtree_size[kids[0]] == 1:
                assert v_pt not in e
                reached.add("star")
            else:
                assert parent is not None and set(e) <= set(block)
                reached.add("spider")
            return
        assert v_pt in e
        if parent is None:
            reached.add("pinned root")
            return
        assert len(block) == 3 and set(e) <= set(block)
        assert v_pt in visible_hull_vertices(self.s, self.asg[parent], block)
        reached.add("pinned vertex")

    real = embedding._Engine._blocks

    def spy(self, *a):
        check_pin(self, *a)
        return real(self, *a)

    monkeypatch.setattr(embedding._Engine, "_blocks", spy)

    def sweep(t, s):
        for e in all_edges(t.k):
            emb = embed_avoiding_single(t, s, e)
            assert not emb.uses_edge(e) and emb.crossing_count() == 0

    for n in (5, 6):
        for t in all_trees(n):
            for v in range(n):
                swap = {0: v, v: 0}
                relabelled = Tree(n, [(swap.get(a, a), swap.get(b, b)) for a, b in t.edges])
                for gen in (convex_points, random_points):
                    for seed in (1, 2, 3):
                        sweep(relabelled, gen(n, seed))
    for gen in (convex_points, random_points):
        for seed in (1, 2, 3):
            sweep(SPIDER_REPAIR, gen(9, seed))
    assert reached == {"star", "spider", "pinned root", "pinned vertex"}


def test_repair_rounds_stay_within_the_proved_bound(monkeypatch):
    """At most n - 4 repairs, so n - 3 rounds: the bound in _apply_repair's docstring.

    The sweep also meets a reorder followed by a second repair, so the
    bound is tested on a chain, not only on single repairs.
    """
    import forbidtree.embedding as embedding
    repairs = []
    real_repair = embedding._apply_repair

    def repair_spy(*a):
        repairs.append(a)
        return real_repair(*a)

    monkeypatch.setattr(embedding, "_apply_repair", repair_spy)
    most = 0
    for n in range(5, 9):
        for t in all_trees(n):
            for s in (convex_points(n, 1), random_points(n, 1)):
                for e in all_edges(n):
                    repairs.clear()
                    emb = embed_avoiding_single(t, s, e)
                    assert not emb.uses_edge(e)
                    assert len(repairs) <= n - 4, (t.edges, e)
                    most = max(most, len(repairs))
    assert most == 2


def test_no_hull_rooted_run_avoids_this_interior_edge():
    """A rooted wedge run at a hull vertex does not always avoid an edge; the root spider does.

    Over a pentagon with two interior points, every run with its root
    pinned at a hull vertex, for every root vertex and child order, draws
    the interior edge e. The repair avoids it by pinning the spider's center
    inside the hull, at an end of e.
    """
    s = PointSet([(4, 0), (1, 4), (-4, 2), (-4, -2), (1, -4), (-1, -1), (-1, 1)])
    t, e = spider_tree(7), Edge(5, 6)
    assert convex_hull(s) == [0, 1, 2, 3, 4]
    runs = 0
    for h in range(5):
        for root in range(7):
            rt = root_at(t, root)
            orders = [itertools.permutations(rt.children[v]) for v in range(7)]
            for order in itertools.product(*orders):
                plan = RepairPlan([list(kids) for kids in order], frozenset({(5, 6)}),
                                  pinned={root: h})
                emb = Embedding(t, s, tuple(_Engine(s, rt, plan).run()))
                assert emb.uses_edge(e) and emb.crossing_count() == 0
                runs += 1
    assert runs == 120
    emb = embed_avoiding_single(t, s, e)
    assert emb.assignment == (6, 1, 2, 3, 5, 4, 0)
    assert not emb.uses_edge(e) and emb.crossing_count() == 0
    assert exists_embedding(t, s, EdgeSet([e])).feasible is True
