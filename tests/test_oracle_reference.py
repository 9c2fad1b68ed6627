"""The search oracle against references.

Pinned digests fix the verdicts and witnesses, and separately every report
field (node and prune counts too), over small inputs. A frozen copy of an
older search loop (``oracle_reference.py``, which reads the same crossing
table and rooting but tries every point at every level) bounds the search
core on generated inputs at every budget: wherever the reference settles,
the core settles with the same verdict and witness, and never expands more
nodes; and ``exists_embedding`` gives the core's report, or answers from
the first drawing exactly where its rule allows. A brute force over all
injective assignments checks the verdicts, and the minimum forbidding
sizes, with ``segments_cross`` alone; and the bitmask crossing table and
the candidate rows are checked pair by pair against ``segments_cross``.
"""
import hashlib
import itertools
import json
import time

from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_reference import reference_search
from prufer_reference import prufer_to_edges, prufer_trees

from forbidtree import oracle
from forbidtree.forbid import r_edge_blanket
from forbidtree.generators import convex_points, random_points
from forbidtree.geometry import Edge, EdgeSet, PointSet, convex_hull, hull_maps, segments_cross
from forbidtree.oracle import (
    _first_drawing,
    _search,
    _search_rooting,
    exists_embedding,
    forbids,
    min_forbidden_set_size,
)
from forbidtree.trees import Tree, all_trees, spider_tree


def all_edges(n):
    return [Edge(a, b) for a in range(n) for b in range(a + 1, n)]


def hull_run(s):
    """Three consecutive hull edges from the first hull vertex (the hull wraps)."""
    hull = convex_hull(s)
    h = len(hull)
    return EdgeSet(Edge(hull[i], hull[(i + 1) % h]) for i in range(3))


def three_edge_sets(s):
    n = len(s)
    return [
        hull_run(s),
        EdgeSet([Edge(0, 1), Edge(0, 2), Edge(1, 2)]),
        EdgeSet([Edge(0, n - 1), Edge(1, n - 1), Edge(2, n - 1)]),
    ]


def report_fields(rep):
    return [rep.feasible, rep.nodes_expanded, sorted(rep.prunes.items()),
            list(rep.witness.assignment) if rep.witness else None]


def verdict_fields(rep):
    return [rep.feasible, list(rep.witness.assignment) if rep.witness else None]


def _digest(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


# sha256 prefixes of (verdict and witness of the unbounded searches, every
# field of every search). The first was taken before twin subtrees were
# tried in one point order, and neither that rule, nor the lookahead, nor
# the first-drawing answers of exists_embedding, nor the skipped symmetric
# root points changed it. The second was re-pinned with each of the four:
# the twin rule, the lookahead and the root skips cut the node and prune
# counts and settle some of the budget-50 searches (the lookahead also adds
# its own prune count), and a call answered by the first drawing reports 0
# of each. The root skips moved it only on the sets in convex position
# (random_points(5, 1) is one). Before the twin rule, it was the digest
# taken from the frozenset-table oracle.
PINNED_REPORTS = {
    ("convex", 5): ("6544f220d7536a89", "dc4855a3ae9f34bd"),
    ("random", 5): ("1d2c83682b44dbf4", "2e2a99747eabc6e6"),
    ("convex", 6): ("b4cd3c14e6975b14", "1421afc45b1d088a"),
    ("random", 6): ("6fa1af9a2ec9fd9e", "1c700c489ec19514"),
    ("convex", 7): ("5966d335e1cd5265", "b9dfa3b1d495969b"),
    ("random", 7): ("b0d1ea55210071eb", "9af59d35e440dd02"),
}


def pinned_reports():
    got = {}
    for n in (5, 6, 7):
        for mode, gen in (("convex", convex_points), ("random", random_points)):
            s = gen(n, 1)
            unbounded, rows = [], []
            for t in prufer_trees(n):
                cases = [EdgeSet([e]) for e in all_edges(n)] + three_edge_sets(s)
                reports = [exists_embedding(t, s, f) for f in cases]
                unbounded += [verdict_fields(rep) for rep in reports]
                reports.append(exists_embedding(t, s, hull_run(s), budget=50))
                rows += [report_fields(rep) for rep in reports]
            got[(mode, n)] = (_digest(unbounded), _digest(rows))
    return got


def test_oracle_reports_are_pinned():
    assert pinned_reports() == PINNED_REPORTS


coordinate = st.integers(-1000, 1000)
point_sets = st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=9,
                      unique=True)


def general_position(coords):
    try:
        return PointSet(coords)
    except ValueError:
        return None


@st.composite
def oracle_inputs(draw):
    """A point set (n <= 7), a labelled tree on k <= n vertices and a forbidden set."""
    n = draw(st.integers(1, 7))
    s = general_position(draw(st.lists(st.tuples(coordinate, coordinate),
                                       min_size=n, max_size=n, unique=True)))
    if s is None:
        s = random_points(n, draw(st.integers(1, 1000)))
    k = n - draw(st.integers(0, n - 1))
    if k <= 2:
        t = Tree(k, [(0, 1)][:k - 1])
    else:
        seq = draw(st.lists(st.integers(0, k - 1), min_size=k - 2, max_size=k - 2))
        t = Tree(k, prufer_to_edges(tuple(seq), k))
    edges = all_edges(n)
    picked = draw(st.lists(st.sampled_from(edges), max_size=8)) if edges else []
    if n >= 3 and draw(st.booleans()):
        picked += hull_run(s)
    return t, s, EdgeSet(picked)


def core_fields(t, s, forbidden, budget):
    """``report_fields`` of the search core ``_search`` run alone."""
    found, asg, nodes, prunes = _search(t, s, s.edge_mask((e.a, e.b) for e in forbidden), budget)
    return [found, nodes, sorted(prunes.items()), asg if found else None]


def assert_dominates_reference(t, s, forbidden, budgets):
    """The search core against the frozen loop, and exists_embedding against the core.

    Unbounded, the core and the reference give the same verdict and witness,
    and the core expands no more nodes and prunes no more branches of either
    kind. At each budget, wherever the reference settles the core settles
    too, with the same verdict and witness; so a core run-out means a
    reference run-out. The core's own cut-off is exact: with N its unbounded
    node count, it settles at budget N with the unbounded report and runs
    out at N - 1 after N nodes. At each budget, exists_embedding gives the
    core's report, except for a hit, which it gives exactly where the rule
    allows one: F is nonempty, W0 (the core's drawing with nothing
    forbidden) avoids F, and the budget is at least N0, the node count of
    the core's search for W0. A hit is feasible with witness W0, 0 nodes
    and 0 prunes of every kind.
    """
    full = core_fields(t, s, forbidden, 10**9)
    found, nodes, prunes, assignment = reference_search(t, s, forbidden, 10**9)
    assert [full[0], full[3]] == [found, list(assignment) if assignment else None]
    assert full[1] <= nodes
    assert all(dict(full[2])[kind] <= count for kind, count in prunes.items())
    own = full[1]
    _, w0, n0, _ = _search(t, s, 0, 10**9)
    drawn = {(min(w0[a], w0[b]), max(w0[a], w0[b])) for a, b in t.edges}
    avoids = bool(forbidden.edges) and drawn.isdisjoint((e.a, e.b) for e in forbidden)
    hit = [True, 0, [(kind, 0) for kind, _ in full[2]], w0]
    for budget in sorted(set(budgets) | {own, own - 1, n0, n0 - 1} - {0}):
        core = core_fields(t, s, forbidden, budget)
        found, _, _, assignment = reference_search(t, s, forbidden, budget)
        if found is not None:
            assert [core[0], core[3]] == [found, list(assignment) if assignment else None], budget
        if core[0] is None:
            assert found is None and budget < own and core[1] == budget + 1, budget
        else:
            assert budget >= own and core == full, budget
        rep = report_fields(exists_embedding(t, s, forbidden, budget))
        assert rep == (hit if avoids and budget >= n0 else core), budget


# Run-outs are where a rewrite of the search loop breaks first, so both tests
# compare at budgets up to the reference's full node count N, and at N + 1;
# the helper adds the oracle's own node count and the budget one below it.
@settings(max_examples=200, deadline=None)
@given(oracle_inputs(), st.data())
def test_oracle_matches_reference(case, data):
    t, s, forbidden = case
    nodes = reference_search(t, s, forbidden, 10**9)[1]
    budgets = {1, nodes, nodes + 1, 10**9}
    budgets |= set(data.draw(st.lists(st.integers(1, nodes + 1), max_size=6)))
    assert_dominates_reference(t, s, forbidden, budgets)


def test_oracle_matches_reference_at_every_budget():
    # the spider's exhaustive refusal on a convex hexagon (no twins, so the
    # lookahead cuts it from 576 nodes to 256, and the skipped mirror-image
    # root points to 128), and, for spiders with three twin legs, a
    # feasible search on seven random points and a refusal on a convex
    # 7-gon (3,537 nodes in the reference, 141 here). Budgets run to the
    # reference's node count N plus one, or to 1,001 where N is larger:
    # the oracle has settled well before that
    for s in (convex_points(6, 1), random_points(7, 1), convex_points(7, 1)):
        t, forbidden = spider_tree(len(s)), hull_run(s)
        nodes = reference_search(t, s, forbidden, 10**9)[1]
        own = core_fields(t, s, forbidden, 10**9)[1]
        assert nodes > 500 and own < nodes and own < 1000
        budgets = [*range(1, min(nodes, 1000) + 2), nodes, nodes + 1]
        assert_dominates_reference(t, s, forbidden, budgets)


def test_oracle_matches_reference_on_every_tree_of_eight():
    # eight vertices are the fewest at which a rooting can have siblings of
    # equal size that are not isomorphic, so no twins; the hypothesis test
    # stops at seven
    for s in (convex_points(8, 1), random_points(8, 1), random_points(8, 2)):
        for forbidden in (EdgeSet(), hull_run(s), EdgeSet([Edge(0, 1), Edge(2, 5)])):
            for t in all_trees(8):
                assert_dominates_reference(t, s, forbidden, [1, 100])


def symmetric_sets(s):
    """Forbidden sets that a non-identity map of hull_maps(s) keeps.

    The empty set (every map keeps it), the runs of 1 to 3 consecutive hull
    edges from every start (each kept by a reflection), and the chord from
    the first hull vertex to the third beside its image under each
    reflection that moves it.
    """
    hull, maps = convex_hull(s), list(hull_maps(s))
    n = len(hull)
    runs = [EdgeSet(Edge(hull[(i + j) % n], hull[(i + j + 1) % n]) for j in range(length))
            for length in (1, 2, 3) for i in range(n)]
    chord = (hull[0], hull[2])
    pairs = {frozenset((chord, tuple(sorted((m[chord[0]], m[chord[1]]))))) for m in maps[n:]}
    mirrored = [EdgeSet(Edge(*e) for e in pair) for pair in sorted(pairs, key=sorted) if len(pair) == 2]
    return [EdgeSet(), *runs, *mirrored]


def test_oracle_matches_reference_under_symmetric_forbidden_sets(monkeypatch):
    # on convex sets the search skips root points that a map keeping F
    # sends lower: against the frozen loop, the verdict and witness are the
    # same and the nodes no more, at every budget the helper tries; and
    # the skips cut nodes on some input of every n
    trees = {n: [spider_tree(n), Tree(n, [(i, i + 1) for i in range(n - 1)]),
                 Tree(n, [(0, i) for i in range(1, n)])] for n in range(5, 10)}
    trees[6] += all_trees(6) + all_trees(5)
    for n, shapes in trees.items():
        s = convex_points(n, 1)
        sets = symmetric_sets(s)
        assert all(oracle._skipped_roots(s, s.edge_mask((e.a, e.b) for e in f)) for f in sets)
        cut = False
        for t in shapes:
            for forbidden in sets:
                assert_dominates_reference(t, s, forbidden, [1, 100])
                with monkeypatch.context() as m:
                    m.setattr(oracle, "_skipped_roots", lambda s, mask: 0)
                    unskipped = core_fields(t, s, forbidden, 10**9)
                skipped = core_fields(t, s, forbidden, 10**9)
                assert [skipped[0], skipped[3]] == [unskipped[0], unskipped[3]]
                assert skipped[1] <= unskipped[1]
                cut |= skipped[1] < unskipped[1]
        assert cut, n


def test_reports_do_not_depend_on_cache_state():
    # equal but distinct trees share a cached rooting and a cached first
    # drawing, and another shape on the same k must not; searched in
    # alternation on one point set, with forbidden sets that block, that
    # the first drawing avoids and that it uses, and with nothing forbidden,
    # each report equals a call made with both caches cleared
    s = random_points(7, 3)
    shapes = all_trees(7)
    twin = Tree(7, shapes[4].edges)
    trees = [shapes[4], shapes[9], twin, shapes[4], shapes[9], twin]
    assert twin is not shapes[4] and twin == shapes[4]
    star = EdgeSet(Edge(0, q) for q in range(1, 7))
    sets = (hull_run(s), star, EdgeSet([Edge(0, 1)]), EdgeSet([Edge(2, 6)]), EdgeSet())
    cases = [(f, b) for f in sets for b in (40, 10**8)]

    def reports(t, clear):
        rows = []
        for forbidden, budget in cases:
            if clear:
                _search_rooting.cache_clear()
                _first_drawing.clear()
            rows.append(report_fields(exists_embedding(t, s, forbidden, budget)))
        return rows

    cold = [reports(t, True) for t in trees]
    warm = [reports(t, False) for t in trees]
    assert warm == cold
    assert cold[0] == cold[2] != cold[1]
    assert any(row[1] == 0 for rows in cold for row in rows)  # some call is a hit
    assert any(row[0] is False for rows in cold for row in rows)
    assert _search_rooting.cache_info().maxsize is not None
    assert len(_first_drawing) == 1


def test_cached_answers_match_the_search_core():
    # every tree on n = 5..8 points against every single edge, and every
    # pair of edges at n <= 6: the verdict and witness of exists_embedding,
    # hit or not, are the search core's, run with no cache
    hits = 0
    for n in (5, 6, 7, 8):
        edges = all_edges(n)
        sets = [EdgeSet([e]) for e in edges]
        if n <= 6:
            sets += [EdgeSet(pair) for pair in itertools.combinations(edges, 2)]
        for s in (convex_points(n, 1), convex_points(n, 2), random_points(n, 1), random_points(n, 2)):
            for t in all_trees(n):
                for forbidden in sets:
                    rep = report_fields(exists_embedding(t, s, forbidden))
                    core = core_fields(t, s, forbidden, 10**9)
                    assert [rep[0], rep[3]] == [core[0], core[3]], (n, t.edges, forbidden)
                    hits += rep[1] == 0
    assert hits > 0


def plane_drawings(t, s):
    """Edge sets of the plane drawings of t, from every injective assignment."""
    edges = all_edges(len(s))
    cross = {((e1.a, e1.b), (e2.a, e2.b)): segments_cross(s, e1, e2)
             for e1 in edges for e2 in edges}
    plane = set()
    for asg in itertools.permutations(range(len(s)), t.k):
        drawn = [(min(asg[a], asg[b]), max(asg[a], asg[b])) for a, b in t.edges]
        if not any(cross[pair] for pair in itertools.combinations(drawn, 2)):
            plane.add(frozenset(drawn))
    return {frozenset(Edge(a, b) for a, b in d) for d in plane}


def brute_force_verdicts(t, s, forbidden_sets):
    """Feasibility for each forbidden set, from every injective assignment."""
    plane = plane_drawings(t, s)
    return [any(not (d & f.edges) for d in plane) for f in forbidden_sets]


def min_hitting_size(drawings_per_tree, edges, cap):
    """Fewest edges that hit every drawing of some tree, or None above the cap."""
    for m in range(1, cap + 1):
        for combo in itertools.combinations(edges, m):
            hit = set(combo)
            if any(all(d & hit for d in drawings) for drawings in drawings_per_tree):
                return m
    return None


def test_oracle_agrees_with_brute_force():
    for n in (4, 5, 6):
        for s in (convex_points(n, 1), random_points(n, 1)):
            forbidden_sets = [EdgeSet()] + [EdgeSet([e]) for e in all_edges(n)]
            forbidden_sets.append(hull_run(s))
            for k in (n - 1, n):
                for t in all_trees(k):
                    expected = brute_force_verdicts(t, s, forbidden_sets)
                    got = [exists_embedding(t, s, f).feasible for f in forbidden_sets]
                    assert got == expected, (n, k, t.edges)


def test_blanket_matches_brute_force():
    # One global search decides the blanket's subset argument: every k-vertex
    # drawing lies on some k-subset, so no separate subset walk is needed.
    for n, k in ((8, 5), (8, 6)):
        s = convex_points(n, 1)
        c = r_edge_blanket(s, k)
        assert len(c.edges) < len(all_edges(n))
        assert brute_force_verdicts(c.target_tree, s, [c.edges]) == [False]
        assert forbids(c.edges, c.target_tree, s)


def test_min_forbidden_matches_brute_force():
    for n in (4, 5, 6):
        for seed in (1, 2, 3):
            for s in (convex_points(n, seed), random_points(n, seed)):
                for k in range(2, n + 1):
                    drawings = {t: plane_drawings(t, s) for t in all_trees(k)}
                    expected = min_hitting_size(drawings.values(), all_edges(n), 3)
                    for cap in (1, 2, 3):
                        res = min_forbidden_set_size(s, k, cap)
                        if expected is None or expected > cap:
                            assert res is None, (n, seed, k, cap)
                            continue
                        assert res.size == len(res.edges) == expected, (n, seed, k, cap)
                        assert all(d & res.edges.edges for d in drawings[res.tree])


def test_min_forbidden_below_spanning_matches_brute_force():
    # k < n at the cap of every edge, where a size of 5 to 12 makes the
    # search branch deep: the size is the brute-force minimum, the set
    # blocks every drawing of its tree, and one edge fewer finds nothing
    for n in (5, 6):
        for seed in (1, 2):
            for s in (convex_points(n, seed), random_points(n, seed)):
                for k in range(3, n):
                    drawings = {t: plane_drawings(t, s) for t in all_trees(k)}
                    cap = n * (n - 1) // 2
                    expected = min_hitting_size(drawings.values(), all_edges(n), cap)
                    res = min_forbidden_set_size(s, k, cap)
                    assert res.size == len(res.edges) == expected, (n, seed, k)
                    assert all(d & res.edges.edges for d in drawings[res.tree])
                    assert min_forbidden_set_size(s, k, expected - 1) is None, (n, seed, k)


def test_min_forbidden_convex_seven_gon_below_spanning():
    # k = 5 on the convex 7-gon: 11 edges block the chair. Branching on
    # every edge of each drawing reached each set in many orders (about
    # 30 s); excluding the edges of the failed branches takes about 0.5 s,
    # so the bound leaves a wide margin for slow hosts
    s = convex_points(7, 1)
    start = time.perf_counter()
    res = min_forbidden_set_size(s, 5, 12)
    assert time.perf_counter() - start < 10
    assert res.size == 11 and res.tree.edges == ((0, 1), (0, 2), (0, 3), (1, 4))
    assert sorted((e.a, e.b) for e in res.edges) == [
        (0, 1), (0, 2), (0, 5), (0, 6), (1, 2), (1, 3), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6)]
    assert all(d & res.edges.edges for d in plane_drawings(res.tree, s))


# (n, seed, k, cap) -> size. The n = 7 sizes agree with the brute force in
# bench/checker.py; the n = 6 inputs are those of the benchmark's search-min
# workload. test_min_forbidden_range_checks pins random_points(8, 1) at cap 4.
PINNED_SIZES = {
    (7, 1, 7, 4): 4, (7, 2, 7, 4): 3, (7, 3, 7, 4): 4, (7, 4, 7, 4): 4,
    **{(6, 1000 + i, 6, 3): 3 for i in range(24)},
}


def test_min_forbidden_sizes_are_pinned():
    got = {}
    for n, seed, k, cap in PINNED_SIZES:
        s = random_points(n, seed)
        res = min_forbidden_set_size(s, k, cap)
        got[n, seed, k, cap] = res.size
        if n > 6:
            assert all(d & res.edges.edges for d in plane_drawings(res.tree, s))
    assert got == PINNED_SIZES


@given(point_sets.map(general_position).filter(lambda s: s is not None))
def test_crossing_table_matches_segments_cross(s):
    n = len(s)
    table = s.crossing_sets()
    assert len(table) == n * n
    edges = all_edges(n)
    for e1 in edges:
        row = table[e1.a * n + e1.b]
        assert table[e1.b * n + e1.a] == row
        for e2 in edges:
            bit = row >> (e2.a * n + e2.b) & 1
            assert bit == segments_cross(s, e1, e2)
            if e1.shares_endpoint(e2):
                assert not bit
    rows = s.candidate_rows()
    assert len(rows) == n
    for p in range(n):
        assert [entry[:3] for entry in rows[p]] == [
            (q, 1 << q, 1 << s.edge_id(Edge(min(p, q), max(p, q)))) for q in range(n) if q != p]
        for q, _, _, crossed in rows[p]:
            for e2 in edges:
                expected = segments_cross(s, Edge(min(p, q), max(p, q)), e2)
                assert crossed >> (e2.a * n + e2.b) & 1 == expected
                assert crossed >> (e2.b * n + e2.a) & 1 == expected
            # and no other bit: none on the diagonal, none past n * n
            assert crossed < 1 << n * n and not any(crossed >> (r * n + r) & 1 for r in range(n))
