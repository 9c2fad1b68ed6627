"""The search oracle against references that share none of its machinery.

Pinned digests fix every report field (verdict, node and prune counts,
witness) over small inputs; a brute force over all injective assignments
checks the verdicts with ``segments_cross`` alone; and the bitmask crossing
table is checked pair by pair against ``segments_cross``.
"""
import hashlib
import itertools
import json

from hypothesis import given
from hypothesis import strategies as st
from prufer_reference import prufer_trees

from forbidtree.forbid import r_edge_blanket
from forbidtree.generators import convex_points, random_points
from forbidtree.geometry import Edge, EdgeSet, PointSet, convex_hull, segments_cross
from forbidtree.oracle import exists_embedding, forbids
from forbidtree.trees import all_trees


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


def _digest(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


# sha256 prefixes of every report field, taken from the frozenset-table
# oracle this bitmask one replaced.
PINNED_REPORTS = {
    ("convex", 5): "ef0290b068f954cc",
    ("random", 5): "26d701e661b30495",
    ("convex", 6): "4fb2e9d637b67df9",
    ("random", 6): "835e0c321cd4eb8a",
    ("convex", 7): "f67b264cba40205c",
    ("random", 7): "8f395da277dfa4a0",
}


def pinned_reports():
    got = {}
    for n in (5, 6, 7):
        for mode, gen in (("convex", convex_points), ("random", random_points)):
            s = gen(n, 1)
            rows = []
            for t in prufer_trees(n):
                cases = [EdgeSet([e]) for e in all_edges(n)] + three_edge_sets(s)
                rows += [report_fields(exists_embedding(t, s, f)) for f in cases]
                rows.append(report_fields(exists_embedding(t, s, hull_run(s), budget=50)))
            got[(mode, n)] = _digest(rows)
    return got


def test_oracle_reports_are_pinned():
    assert pinned_reports() == PINNED_REPORTS


def brute_force_verdicts(t, s, forbidden_sets):
    """Feasibility for each forbidden set, from every injective assignment."""
    plane = set()
    for asg in itertools.permutations(range(len(s)), t.k):
        drawn = [Edge(asg[a], asg[b]) for a, b in t.edges]
        if not any(segments_cross(s, e1, e2)
                   for e1, e2 in itertools.combinations(drawn, 2)):
            plane.add(frozenset(drawn))
    return [any(not (d & f.edges) for d in plane) for f in forbidden_sets]


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


coordinate = st.integers(-1000, 1000)
point_sets = st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=9,
                      unique=True)


def general_position(coords):
    try:
        return PointSet(coords)
    except ValueError:
        return None


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
